"""Batched trial seeding against numpy's own seeding.

`experiments._generators` computes the SeedSequence and PCG64 states of
many keys at once and re-targets one reused Generator per key.  Every key
must start in the state, and give the draws, of `np.random.default_rng`
(equivalently `rng_for`) of that key, bit for bit.  The same states, as
uint64 limbs, feed the family kernel, whose raw PCG64 words must be numpy's.
"""

import random

import numpy as np
import pytest

from walshlab.experiments import (
    _SEED_BATCH,
    _generators,
    _key_limbs,
    _key_words,
    _pcg_words,
    rng_for,
)

# 1, 1, 2, 2 and 3 uint32 words: 2**64 + 5 makes a (seed, t, s) key five
# words long, past the pool of four
SEEDS = [0, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 5]
COUNT = 13
STREAMS = [0, 1, *range(10, 10 + COUNT + 1)]


def first_draws(rng):
    return (
        rng.integers(0, 2**32, size=3, dtype=np.uint32).tobytes(),
        rng.standard_normal(5).tobytes(),
        rng.choice(257, size=10, replace=False).tobytes(),
        rng.integers(0, 1000, size=3).tobytes(),
        rng.choice([-1.0, 1.0], size=4).tobytes(),
    )


def check_keys(keys):
    n = 0
    for key, rng in zip(keys, _generators(keys)):
        fresh = np.random.default_rng(list(key))
        assert rng.bit_generator.state == fresh.bit_generator.state, key
        assert first_draws(rng) == first_draws(fresh), key
        n += 1
    assert n == len(keys)


@pytest.mark.parametrize("seed", SEEDS)
def test_generators_match_default_rng_for_every_key_shape(seed):
    # the runners' keys: (seed, t) and (seed, t, s), more than one batch
    keys = [(seed, t, *s) for t in range(80) for s in [(), *[(x,) for x in STREAMS]]]
    assert len(keys) > _SEED_BATCH
    check_keys(keys)


def test_one_batch_mixes_word_counts():
    keys = [(seed, t, *s) for seed in SEEDS for t in range(12) for s in [(), (0,), (11,)]]
    keys += [(seed,) for seed in SEEDS] + [(3, 2**32 + 7, 2**96)]
    random.Random(5).shuffle(keys)
    assert len(keys) <= _SEED_BATCH
    assert len({len(rng_for(k).bit_generator.seed_seq.entropy) for k in keys}) > 1
    check_keys(keys)


def test_rng_for_stays_a_fresh_generator():
    key = (7, 0, 0)
    assert rng_for(key) is not rng_for(key)
    assert rng_for(key).bit_generator.state == next(_generators([key])).bit_generator.state


def test_retarget_drops_the_buffered_uint32():
    # trial k draws more than trial k+1 and ends with half a 64-bit draw
    # buffered; the first draws of trial k+1 are 32-bit ones
    keys = [(4, t, s) for t in range(6) for s in (0, 1)]
    rngs = _generators(keys)
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
    with pytest.raises(ValueError, match="non-negative"):
        next(_generators([(3, -1)]))
    # refused as its batch is seeded, before any of the batch's keys is handed out
    with pytest.raises(ValueError, match="non-negative"):
        next(_generators([(3, 0, 0), (3, 0, 1), (-2**40, 0, 0)]))


# keys of 1 .. 6 uint32 entropy words, the widest past the pool of four
WIDE_KEYS = [
    (0,), (2**32 - 1,), (2**32,), (5, 7), (3, 2**32 + 1), (2**64 + 1,), (1, 2, 3),
    (2**64 - 1, 2**32 + 9), (9, 2**96 + 3), (0, 0, 0, 0, 0), (2**160 + 4,), (4, 2**32, 2**64),
]


def test_key_words_span_one_to_six():
    assert {len(_key_words(key)) for key in WIDE_KEYS} == set(range(1, 7))


def test_limbs_are_the_seeded_states():
    limbs = _key_limbs(WIDE_KEYS).tolist()
    for key, (hi, lo, inc_hi, inc_lo) in zip(WIDE_KEYS, zip(*limbs)):
        state = rng_for(key).bit_generator.state["state"]
        assert (hi << 64 | lo, inc_hi << 64 | inc_lo) == (state["state"], state["inc"]), key


@pytest.mark.parametrize("count", [1, 2, 7])
def test_kernel_words_are_random_raw(count):
    words = _pcg_words(_key_limbs(WIDE_KEYS), count)
    assert words.dtype == np.uint64 and words.shape == (count, len(WIDE_KEYS))
    for key, column in zip(WIDE_KEYS, words.T):
        raw = np.random.PCG64(np.random.SeedSequence(list(key))).random_raw(count)
        assert column.tobytes() == raw.tobytes(), key
