"""The family kernel against the per-trial family draw, bit for bit.

`experiments._family_block(seed, ts, ...)` draws the families of a block of
trials in numpy from the PCG64 words of the keys (seed, t, 1).  Every row
must equal `_family_ends(rng_for((seed, t, 1)), ...)`, the draw of
`Generator.choice` without replacement that the runners made per trial,
including the rows the kernel hands back to that draw.
"""

import numpy as np
import pytest

from walshlab import experiments as ex
from walshlab.experiments import (
    FAMILIES,
    _FLOYD_MAX_PICKS,
    _family_block,
    _family_capacity,
    _family_ends,
    _family_picks,
    _floyd_picks,
    _pcg_words,
    _trial_limbs,
    rng_for,
)

RESOLUTIONS = [0, 1, 2, 3, 6, 8, 10, 14, 18, 20]
# 1, 1, 2 and 3 uint32 words: the last two give keys of more than one word a seed
SEEDS = [0, 3, 2**32 + 5, 2**64 + 1]


def reference(seed, ts, resolution, count, policy):
    return np.stack([_family_ends(rng_for((seed, t, 1)), resolution, count, policy) for t in ts])


def check_block(seed, ts, resolution, count, policy):
    block = _family_block(seed, ts, resolution, count, policy)
    assert block.dtype == np.int64 and block.shape == (len(ts), count, 2)
    assert np.array_equal(block, reference(seed, ts, resolution, count, policy)), (
        seed, resolution, count, policy,
    )


def counting_family_ends(monkeypatch):
    """Count the rows that `_family_block` hands to the per-trial draw."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _family_ends(*args)

    monkeypatch.setattr(ex, "_family_ends", counted)
    return calls


# misaligned families need N >= 2
@pytest.mark.parametrize(
    "policy, resolution",
    [(p, n) for p in FAMILIES for n in RESOLUTIONS if _family_capacity(n, p) >= 1],
)
def test_family_block_matches_the_per_trial_draw(policy, resolution):
    capacity = _family_capacity(resolution, policy)
    for count in sorted({c for c in (1, 5, capacity) if c <= capacity}):
        # a few trials where the rows go through the per-trial draw
        trials = 40 if _family_picks(resolution, count, policy)[1] <= _FLOYD_MAX_PICKS else 2
        for seed in SEEDS:
            check_block(seed, range(7, 7 + trials), resolution, count, policy)


def test_family_block_of_trial_indices_past_one_word():
    # (seed, t, 1) keys whose t takes two entropy words
    check_block(3, range(2**32 - 3, 2**32 + 3), 6, 5, "random")


def test_lemire_precheck_row_goes_through_the_per_trial_draw(monkeypatch):
    # row 400 of seed 3 at N = 20: a draw's leftover falls below its range,
    # numpy then draws another word, and the kernel's words alone are wrong
    seed, ts, resolution, count = 3, range(398, 403), 20, 5
    population, picks = _family_picks(resolution, count, "random")
    limbs = _trial_limbs(seed, ts, (1,))
    drawn, flagged = _floyd_picks(_pcg_words(limbs, picks // 2), population, picks)
    assert flagged.tolist() == [False, False, True, False, False]
    want = reference(seed, ts, resolution, count, "random")
    assert not np.array_equal(drawn[2], want[2].reshape(-1))
    calls = counting_family_ends(monkeypatch)
    assert np.array_equal(_family_block(seed, ts, resolution, count, "random"), want)
    assert len(calls) == 1


def test_tail_shuffle_configs_go_through_the_per_trial_draw(monkeypatch):
    # at N = 14, 2 * 164 picks exceed 16385 // 50, where numpy's choice
    # shuffles the tail of the full range instead of Floyd's rule; the
    # Floyd bound, raised here, keeps the kernel below this on its own
    assert _FLOYD_MAX_PICKS <= 10_000 // 50
    monkeypatch.setattr(ex, "_FLOYD_MAX_PICKS", 400)
    resolution, ts = 14, range(0, 3)
    calls = counting_family_ends(monkeypatch)
    check_block(0, ts, resolution, 163, "random")
    assert calls == []
    population, picks = _family_picks(resolution, 164, "random")
    limbs = _trial_limbs(0, ts, (1,))
    drawn, flagged = _floyd_picks(_pcg_words(limbs, picks // 2), population, picks)
    want = reference(0, ts, resolution, 164, "random")
    assert not flagged.any() and not np.array_equal(drawn, want.reshape(len(ts), -1))
    check_block(0, ts, resolution, 164, "random")
    assert len(calls) == len(ts)


@pytest.mark.parametrize(
    "resolution, count, policy",
    [(3, 8, "singletons"), (4, 16, "dyadic"), (0, 1, "singletons"), (6, 1, "dyadic")],
)
def test_full_range_draws_stay_in_the_kernel(monkeypatch, resolution, count, policy):
    # every value of the population is picked, so the first range is the
    # one value j = 0, for which numpy draws no word
    population, picks = _family_picks(resolution, count, policy)
    assert population == picks
    calls = counting_family_ends(monkeypatch)
    block = _family_block(5, range(0, 30), resolution, count, policy)
    assert calls == []
    assert np.array_equal(block, reference(5, range(0, 30), resolution, count, policy))


def test_picks_above_the_floyd_bound_go_through_the_per_trial_draw(monkeypatch):
    calls = counting_family_ends(monkeypatch)
    check_block(2, range(0, 4), 8, _FLOYD_MAX_PICKS, "singletons")
    assert calls == []
    check_block(2, range(0, 4), 8, _FLOYD_MAX_PICKS + 1, "singletons")
    assert len(calls) == 4
