"""Batched trial seeding against numpy's own seeding.

`experiments._trial_limbs(seed, ts, streams)` computes the SeedSequence and
PCG64 states of the keys (seed, t, s) of many trials at once, as uint64
limbs, and `_retarget` re-targets one reused Generator to each key in turn.
Every key must start in the state, and give the draws, of
`np.random.default_rng` (equivalently `rng_for`) of that key, bit for bit.
The same limbs feed the family kernel, whose raw PCG64 words must be numpy's.
"""

import numpy as np
import pytest

from walshlab.experiments import (
    _SEED_BATCH,
    _key_words,
    _pcg_words,
    _retarget,
    _trial_limbs,
    rng_for,
)

# 1, 1, 2, 2, 3, 4, 5 and 6 uint32 words: from 2**64 + 5 on a (seed, t, s)
# key is five words long or more, past the pool of four
SEEDS = [0, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5, 2**96 + 3, 2**128 + 1, 2**160 + 4]
COUNT = 13
STREAMS = [0, 1, *range(10, 10 + COUNT + 1)]
# trial indices on both sides of 2**32, where t takes a second entropy word
STRADDLE = range(2**32 - 3, 2**32 + 3)


def first_draws(rng):
    return (
        rng.integers(0, 2**32, size=3, dtype=np.uint32).tobytes(),
        rng.standard_normal(5).tobytes(),
        rng.choice(257, size=10, replace=False).tobytes(),
        rng.integers(0, 1000, size=3).tobytes(),
        rng.choice([-1.0, 1.0], size=4).tobytes(),
    )


def generators(seed, ts, streams):
    """The re-targeted generators of the keys (seed, t, s), trial-major."""
    return _retarget(np.random.Generator(np.random.PCG64(0)), _trial_limbs(seed, ts, streams))


def check_keys(seed, ts, streams):
    keys = [(seed, t, s) for t in ts for s in streams]
    n = 0
    for key, rng in zip(keys, generators(seed, ts, streams)):
        fresh = np.random.default_rng(list(key))
        assert rng.bit_generator.state == fresh.bit_generator.state, key
        assert first_draws(rng) == first_draws(fresh), key
        n += 1
    assert n == len(keys)


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_match_default_rng_for_every_key_shape(seed):
    # the runners' keys (seed, t, s), more than a seed batch of trials
    ts = range(_SEED_BATCH + 20)
    check_keys(seed, ts, STREAMS[:3])
    check_keys(seed, range(80), STREAMS)


def test_one_batch_mixes_word_counts():
    # one call seeds the trials below 2**32 and those above it, whose keys
    # are one word longer, and keeps them in trial order
    for seed in SEEDS:
        widths = {len(_key_words((seed, t, 0))) for t in STRADDLE}
        assert len(widths) == 2
        check_keys(seed, STRADDLE, (0, 11))


def test_rng_for_stays_a_fresh_generator():
    key = (7, 0, 0)
    assert rng_for(key) is not rng_for(key)
    rng = next(generators(7, range(1), (0,)))
    assert rng_for(key).bit_generator.state == rng.bit_generator.state


def test_retarget_drops_the_buffered_uint32():
    # trial k draws more than trial k+1 and ends with half a 64-bit draw
    # buffered; the first draws of trial k+1 are 32-bit ones
    keys = [(4, t, s) for t in range(6) for s in (0, 1)]
    rngs = generators(4, range(6), (0, 1))
    for k, key in enumerate(keys):
        rng = next(rngs)
        assert first_draws(rng) == first_draws(np.random.default_rng(list(key))), key
        if k % 2 == 0:
            rng.standard_normal(k + 3)
            rng.integers(0, 2**32, size=2 * k + 1, dtype=np.uint32)
            if not rng.bit_generator.state["has_uint32"]:
                rng.integers(0, 2**32, size=1, dtype=np.uint32)
            assert rng.bit_generator.state["has_uint32"] == 1


def test_negative_key_is_refused():
    with pytest.raises(ValueError):
        np.random.SeedSequence([3, -1])
    # refused as the trials are seeded, before any generator is handed out
    for seed in (-1, -2**40):
        with pytest.raises(ValueError, match="non-negative"):
            _trial_limbs(seed, range(3), (0, 1))
        with pytest.raises(ValueError, match="non-negative"):
            generators(seed, range(3), (0,))


def test_key_words_span_one_to_six():
    assert {len(_key_words((seed,))) for seed in SEEDS} == set(range(1, 7))


def test_limbs_are_the_seeded_states():
    for seed in SEEDS:
        limbs = _trial_limbs(seed, STRADDLE, (0, 1, 12)).tolist()
        keys = [(seed, t, s) for t in STRADDLE for s in (0, 1, 12)]
        assert len(limbs[0]) == len(keys)
        for key, (hi, lo, inc_hi, inc_lo) in zip(keys, zip(*limbs)):
            state = rng_for(key).bit_generator.state["state"]
            assert (hi << 64 | lo, inc_hi << 64 | inc_lo) == (state["state"], state["inc"]), key


@pytest.mark.parametrize("count", [1, 2, 7])
def test_kernel_words_are_random_raw(count):
    for seed in SEEDS:
        words = _pcg_words(_trial_limbs(seed, STRADDLE, (1, 3)), count)
        keys = [(seed, t, s) for t in STRADDLE for s in (1, 3)]
        assert words.dtype == np.uint64 and words.shape == (count, len(keys))
        for key, column in zip(keys, words.T):
            raw = np.random.PCG64(np.random.SeedSequence(list(key))).random_raw(count)
            assert column.tobytes() == raw.tobytes(), key
