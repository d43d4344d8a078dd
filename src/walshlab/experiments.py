"""Randomized verification campaigns and their machine-readable reports.

Every campaign is driven by an `ExperimentConfig` that fully determines the
run: per-trial generators are seeded by (master seed, trial index, stream),
so two runs with equal configs produce identical reports and the result does
not depend on scheduling.  A run seeds its keys `_SEED_BATCH` trials at a
time: the SeedSequence and PCG64 states of the keys (seed, t, s) of a batch
are computed together in numpy from one entropy array, as uint64 limbs
(`_trial_limbs`), and one reused Generator is re-targeted to each key in
turn (`_retarget`), drawing exactly as `rng_for(key)` would.  Each key's
draws are therefore used up before the next key is taken.  The campaigns'
interval families skip the Generator: `_family_block` steps the limbs of
the keys (seed, t, 1) of a batch and applies numpy's bounded-integer and
sampling rules to their words, with the bits of `rng.choice`.

Campaigns separate "asserted" bounds, where the underlying identity pins an
exact constant (orthogonality at p = 2, the pointwise sharp bound with
constant 1, adjointness, support containment), from "reported" empirical
constants, which are emitted with max / mean / 99th percentile and never
asserted to a specific value.

Every campaign runner works on budgeted chunks of trials (`column_chunks`):
each trial still draws from its own generators, straight into the chunk's
stacks (`_draw_cells`), whose trailing axes (axis 0 = cells) carry the
trials, and the chunk is transformed, reduced and normed together.
Neither the runners nor the basis sweep build a grid wrapper
(`DyadicFunction`, `SeqFunction`, `LatticeFunction`).  The runners hold a
chunk's interval families as one (T, count, 2) int array of [lo, hi)
rows, drawn for the chunk's seed batch (`_chunked_trials`, whose chunks
never cross a batch) by `_family_block` from the keys (seed, t, 1), so
stream 1 is not among the keys a runner re-targets its Generator to; each
row equals the per-trial draw `_family_ends` of that key, which the
kernel still takes for the rare rows it cannot reproduce.  The
block sums and segment transforms take their anchors and
left-level bitmasks from those endpoints (`intervals.left_level_masks`):
no `IntInterval` or `Decomposition` is built and `decompose` is not
called.  The basis sweep takes the masks of all its intervals at once
and builds its capture table and spot checks from them, with no
`Decomposition` either.  `verify_identities` stays on the verified route
through `family_decompose`, and draws each of its keys from a fresh
`rng_for` generator.  A config whose trial would hold more than
`_MAX_TRIAL_FLOATS` floats at a time is refused before any draw.  `pointwise` stacks
the block sums of a chunk as (cells, S, T) for the stack kernels of
`operators`; `lemma` draws into a (T, S, cells, d) buffer, removes the cell
means of all its components with one mean, and hands the kernels
cells-first views of an (S, cells, d, T) copy.  `vector` keeps its projections as
(S, cells, T, d).  `adjoint` stacks f as (cells, T, d) and the
components as (cells, T*S, d) for the owner-aware segment transform pair.
`weak11` stacks its components as (cells, T, S, d) and their bad parts at
every height as (cells, T, S, H, d).  The Rademacher norms of `vector` and
`weak11` (`lattice.rad_norm_stack`) run per trial on views of these
stacks, each trial with its own sign seed [seed, t, 2] or [seed, t, 3].

The ratio campaigns for p > 2 open with a fixed block of deterministic
adversarial probes (a covered Walsh function, anticorrelated cascade
functions against the block family, a spike, a Riesz product) before the
seeded random trials.  The probes anchor the reported maximum at a
known-bad configuration, which is what makes the running maximum settle
early; a random trial beating them would itself be a finding.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from functools import lru_cache

import numpy as np

from .dyadic import IntInterval
from .intervals import decompose, family_decompose, left_level_masks, verify_decomposition
from .lattice import (
    LatticeFunction,
    _adjoint_of_stack,
    _good_parts,
    _mc_samples,
    _pairings,
    _segment_columns,
    _sign_averaged_pairings,
    _stopping_masks,
    cells_mask,
    cz_decompose,
    lattice_norm,
    rad_norm_stack,
    root_means,
    verify_cz,
)
from .operators import (
    _square_sum,
    block_sum,
    block_sum_family,
    block_sum_stack,
    rms_maximal,
    rms_maximal_stack,
    sharp_maximal,
    sharp_maximal_stack,
    square_function_stack,
)
from .walsh import (
    DyadicCell,
    DyadicFunction,
    _walsh_columns,
    bit_reversal,
    column_chunks,
    mart_diff,
    project,
    project_columns,
    restrict_rescale,
    synthesize_values,
    walsh_eval,
)

ASSERT_TOL = 1e-10
# Largest grid a campaign accepts: 2**20 cells, 8 MiB per float array.
MAX_RESOLUTION = 20
# Most floats one trial may hold: 2**27, a 1 GiB float64 stack, or 128 grids
# at the largest resolution.  Sizes above it are refused before any draw.
_MAX_TRIAL_FLOATS = 1 << 27
FAMILIES = ("random", "dyadic", "misaligned", "singletons")
_MAX_EXP = np.finfo(float).maxexp  # 2.0**e overflows from here on


def _check_resolution(resolution: int) -> None:
    if not 0 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be in [0, {MAX_RESOLUTION}], got {resolution}")


def _check_trial_floats(floats: int, **sizes) -> None:
    """Refuse `floats` floats a trial above `_MAX_TRIAL_FLOATS`, naming `sizes`."""
    if floats > _MAX_TRIAL_FLOATS:
        named = ", ".join(f"{name} {value}" for name, value in sizes.items())
        raise ValueError(
            f"{named} need {floats} floats a trial, above the limit of {_MAX_TRIAL_FLOATS}"
        )


def _check_min(least: int, **values) -> None:
    for name, value in values.items():
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a campaign needs; equal configs give identical reports."""

    kind: str
    resolution: int = 8
    trials: int = 100
    seed: int = 0
    p: float = 2.0            # Lebesgue exponent
    q: float = 2.0            # lattice exponent of l^q(d)
    dim: int = 1              # lattice dimension d
    family: str = "random"    # random | dyadic | misaligned | singletons
    count: int = 4            # intervals per family
    rad: str = "exact"        # exact | mc:<samples>
    policy: str = "gaussian-cells"
    components: int = 4       # sequence length for lemma / weak-type runs
    lam_halfspan: int = 6     # weak-type lambda grid: median * 2**(-h .. h)
    mean_zero: bool = True    # subtract cell means in the lemma campaign
    probes: bool = True       # deterministic adversarial prefix in ratio runs

    def __post_init__(self) -> None:
        _check_resolution(self.resolution)
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError(f"exponent p must be finite and >= 1, got {self.p}")
        if not self.q >= 1:
            raise ValueError(f"lattice exponent q must be >= 1, got {self.q}")
        _check_min(
            1, trials=self.trials, count=self.count, dim=self.dim, components=self.components
        )
        _check_min(0, lam_halfspan=self.lam_halfspan, seed=self.seed)
        # the weak-type grid scales by 2.0**lam_halfspan, which must be a finite float
        if self.lam_halfspan >= _MAX_EXP:
            raise ValueError(f"lam_halfspan must be < {_MAX_EXP}, got {self.lam_halfspan}")
        _check_policy(self.policy)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family policy {self.family!r}")
        _mc_samples(self.rad)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RatioReport:
    config: dict
    trials: list[dict]
    summary: dict
    passed: bool


def rng_for(seed, *key) -> np.random.Generator:
    if isinstance(seed, (int, np.integer)):
        entropy = [int(seed)]
    else:
        entropy = [int(s) for s in seed]
    # the generator default_rng builds, without its argument dispatch
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy + [int(k) for k in key]))
    )


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

_SEED_BATCH = 256  # trials whose keys are seeded together
_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence (pool of 4 uint32 words) constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit multiplier as two uint64 limbs, and its low limb's 32-bit halves
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(2549297995355413924), np.uint64(4865540595714422341)
_PCG_MULT_LO0, _PCG_MULT_LO1 = _PCG_MULT_LO & _LOW32, _PCG_MULT_LO >> _SHIFT32


def _key_words(key) -> list[int]:
    """The SeedSequence entropy of a key: each int as little-endian uint32 words."""
    words = []
    for x in key:
        x = operator.index(x)
        if x < 0:
            raise ValueError(f"expected non-negative integer, got {x}")
        words.append(x & _MASK32)
        x >>= 32
        while x:
            words.append(x & _MASK32)
            x >>= 32
    return words


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence(row).generate_state(4, np.uint64)` for every row of a
    (keys, words) uint32 array, one uint32 operation across all keys at a time."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> 16
        return value

    def mix(x, y):
        out = np.uint32(_MIX_MULT_L) * x
        out -= np.uint32(_MIX_MULT_R) * y
        out ^= out >> 16
        return out

    keys, width = entropy.shape
    pool = [
        hashmix(entropy[:, i] if i < width else np.zeros(keys, np.uint32))
        for i in range(4)
    ]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, width):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value *= np.uint32(hash_const)
        value ^= value >> 16
        words.append(value.astype(np.uint64))
    return np.stack([words[i] | words[i + 1] << np.uint64(32) for i in range(0, 8, 2)], 1)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * multiplier + inc mod 2**128, on uint64 limbs.

    The high limb takes the high half of lo * multiplier-low from 32-bit
    partial products, which numpy's uint64 arithmetic holds without loss.
    """
    lo0, lo1 = lo & _LOW32, lo >> _SHIFT32
    p01, p10 = lo0 * _PCG_MULT_LO1, lo1 * _PCG_MULT_LO0
    mid = (lo0 * _PCG_MULT_LO0 >> _SHIFT32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = lo1 * _PCG_MULT_LO1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32) + (mid >> _SHIFT32)
    new_lo = lo * _PCG_MULT_LO + inc_lo
    new_hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + carry + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _pcg_limbs(entropy: np.ndarray) -> np.ndarray:
    """The state and inc of `np.random.PCG64(SeedSequence(row))` for every row
    of a (keys, words) uint32 entropy array, as a (4, keys) uint64 array of
    limbs: state high, state low, inc high, inc low."""
    w0, w1, w2, w3 = _seed_states(entropy).T
    inc_hi, inc_lo = w2 << np.uint64(1) | w3 >> np.uint64(63), w3 << np.uint64(1) | np.uint64(1)
    # PCG64 seeding: state = inc + seed, then one step
    lo = inc_lo + w1
    hi, lo = _pcg_step(inc_hi + w0 + (lo < inc_lo), lo, inc_hi, inc_lo)
    return np.stack((hi, lo, inc_hi, inc_lo))


def _trial_limbs(seed: int, ts: range, streams) -> np.ndarray:
    """`_pcg_limbs` of the keys (seed, t, s) for t in ts and s in streams,
    trial-major: column k * len(streams) + j is (seed, ts[k], streams[j]).

    A key's entropy is the seed's `_key_words`, then t as one uint32 word
    (two from 2**32 on), then s as one word; ts is split at 2**32, and each
    part is seeded as one (keys, words) array.
    """
    head = _key_words((seed,))
    tail = np.asarray(streams, dtype=np.uint32)
    parts = [np.empty((4, 0), dtype=np.uint64)]
    for width, lo, hi in ((1, 0, 1 << 32), (2, 1 << 32, 1 << 64)):
        part = range(max(ts.start, lo), min(ts.stop, hi))
        if not part:
            continue
        t = np.arange(part.start, part.stop, dtype=np.uint64)[:, None]
        entropy = np.empty((len(part), len(tail), len(head) + width + 1), dtype=np.uint32)
        entropy[..., : len(head)] = head
        entropy[..., len(head)] = t & _LOW32
        if width == 2:
            entropy[..., len(head) + 1] = t >> _SHIFT32
        entropy[..., -1] = tail
        parts.append(_pcg_limbs(entropy.reshape(-1, entropy.shape[-1])))
    return np.concatenate(parts, axis=1)


def _pcg_words(limbs: np.ndarray, count: int) -> np.ndarray:
    """The first `count` 64-bit outputs (`random_raw`) of every key of a (4,
    keys) limb array, as a (count, keys) uint64 array: step, then XSL-RR."""
    hi, lo, inc_hi, inc_lo = limbs
    words = np.empty((count, limbs.shape[1]), dtype=np.uint64)
    for row in words:
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        xsl, rot = hi ^ lo, hi >> np.uint64(58)
        np.bitwise_or(xsl >> rot, xsl << (-rot & np.uint64(63)), out=row)
    return words


def _retarget(rng: np.random.Generator, limbs: np.ndarray):
    """Yield `rng` re-targeted to each key of a (4, keys) limb array in turn
    (`_trial_limbs`), with no buffered uint32, so that it draws as a fresh
    generator of the key, `rng_for(key)`.  Every yield is the same
    Generator: a caller must be done drawing from one key before it asks
    for the next."""
    state = {"state": 0, "inc": 0}
    target = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
    bitgen = rng.bit_generator
    for hi, lo, inc_hi, inc_lo in zip(*limbs.tolist()):
        state["state"], state["inc"] = hi << 64 | lo, inc_hi << 64 | inc_lo
        bitgen.state = target
        yield rng


def _chunked_trials(
    cfg: ExperimentConfig,
    chunk,
    streams,
    cells: int,
    start: int = 0,
    live: int | None = None,
    families: bool = True,
):
    """Trial records of `chunk(cfg, ts, rngs, ends)` over the budgeted chunks
    ts of the trials, `cells` floats a trial (`column_chunks`).

    The trials from `start` on run in batches of `_SEED_BATCH`, and the
    chunks of a batch lie inside it.  A batch seeds the keys
    (cfg.seed, t, s) of its trials together (`_trial_limbs`), and `rngs`
    yields them re-targeted in turn (`_retarget`): trial by trial, and
    within a trial each stream s in the given order.  `ends` holds the
    chunk's (T, count, 2) family rows, drawn for the whole batch from the
    keys (cfg.seed, t, 1) by `_family_block`, so stream 1 is not among the
    streams.  A runner without families passes `families=False` and is
    called as `chunk(cfg, ts, rngs)`.  A config whose `live` floats a trial
    (by default `cells`), the most one trial holds at a time, exceed
    `_MAX_TRIAL_FLOATS` is refused first.
    """
    sizes = {name: getattr(cfg, name) for name in ("resolution", "count", "dim", "components")}
    _check_trial_floats(cells if live is None else live, **sizes)
    rng = np.random.Generator(np.random.PCG64(0))
    trials = []
    for first in range(start, cfg.trials, _SEED_BATCH):
        batch = range(first, min(first + _SEED_BATCH, cfg.trials))
        rngs = _retarget(rng, _trial_limbs(cfg.seed, batch, streams))
        if families:
            ends = _family_block(cfg.seed, batch, cfg.resolution, cfg.count, cfg.family)
        for sl in column_chunks(len(batch), cells):
            args = (ends[sl],) if families else ()
            trials += chunk(cfg, batch[sl], rngs, *args)
    return trials


def _rng(seed) -> np.random.Generator:
    """`seed` itself when it is a Generator, else its fresh `rng_for` generator."""
    return seed if isinstance(seed, np.random.Generator) else rng_for(seed)


def _sparse_arg(policy: str) -> int:
    try:
        k = int(policy.split(":", 1)[1])
    except ValueError:
        k = 0
    if k < 1:
        raise ValueError(f"policy {policy!r} needs at least one coefficient")
    return k


def _check_policy(policy: str) -> None:
    if policy.startswith("sparse-spectrum:"):
        _sparse_arg(policy)
    elif policy not in ("gaussian-cells", "rademacher-cells"):
        raise ValueError(f"unknown function policy {policy!r}")


def _draw_cells(rng: np.random.Generator, shape: tuple, policy: str) -> np.ndarray:
    """Cell values of shape (cells,) or (cells, d), coordinatewise by policy."""
    if policy == "gaussian-cells":
        return rng.standard_normal(shape)
    if policy == "rademacher-cells":
        return rng.choice([-1.0, 1.0], size=shape)
    if policy.startswith("sparse-spectrum:"):
        k = _sparse_arg(policy)
        n = shape[0]
        coeffs = np.zeros(shape)
        for column in coeffs.reshape(n, -1).T:  # views: the draws land in coeffs
            idx = rng.choice(n, size=min(k, n), replace=False)
            column[idx] = rng.choice([-1.0, 1.0], size=idx.size)
        return synthesize_values(coeffs)
    raise ValueError(f"unknown function policy {policy!r}")


def random_function(seed, resolution: int, policy: str) -> DyadicFunction:
    """Seeded random grid function; deterministic in (seed, policy).

    `seed` is a seed or key for `rng_for`, or a Generator to draw from.
    """
    return DyadicFunction(resolution, _draw_cells(_rng(seed), (1 << resolution,), policy))


def random_lattice_function(
    seed, resolution: int, dim: int, q: float, policy: str
) -> LatticeFunction:
    """Seeded lattice-valued grid function, coordinatewise by policy; `seed`
    as in `random_function`."""
    return LatticeFunction(resolution, _draw_cells(_rng(seed), (1 << resolution, dim), policy), q)


@lru_cache(maxsize=None)
def _misaligned_endpoints(resolution: int) -> np.ndarray:
    """Endpoints in [1, 2**N) with at least ceil(N/2) binary digits set."""
    candidates = np.arange(1, 1 << resolution)
    eligible = candidates[np.bitwise_count(candidates) >= (resolution + 1) // 2]
    eligible.setflags(write=False)
    return eligible


def _family_capacity(resolution: int, policy: str) -> int:
    """Largest interval count that the family policy can draw in [0, 2**N)."""
    size = 1 << resolution
    if policy == "random":  # 2 * count distinct endpoints in [0, size]
        return (size + 1) // 2
    if policy in ("singletons", "dyadic"):  # cells of the grid, or of a coarser level
        return size
    if policy == "misaligned":  # 2 * count distinct misaligned endpoints
        return _misaligned_endpoints(resolution).size // 2
    raise ValueError(f"unknown family policy {policy!r}")


_NO_ROOM = {
    "random": "cannot fit {count} disjoint intervals in [0, {size})",
    "singletons": "cannot fit {count} singletons in [0, {size})",
    "dyadic": "cannot fit {count} dyadic pieces in [0, {size})",
    "misaligned": "cannot pick {ends} misaligned endpoints in [0, {size})",
}


def _check_family_fits(resolution: int, count: int, policy: str) -> None:
    """Refuse a family count that the policy cannot draw at this resolution."""
    if count > _family_capacity(resolution, policy):
        raise ValueError(
            _NO_ROOM[policy].format(count=count, ends=2 * count, size=1 << resolution)
        )


def _family_picks(resolution: int, count: int, policy: str) -> tuple[int, int]:
    """(population, picks): a family draws `picks` distinct values of
    range(population) and takes its endpoints from them (`_picked_ends`)."""
    if policy == "random":  # endpoints in [0, size]
        return (1 << resolution) + 1, 2 * count
    if policy == "singletons":  # cells
        return 1 << resolution, count
    if policy == "dyadic":  # cells of level ceil(log2(count))
        return 1 << max(count - 1, 0).bit_length(), count
    # "misaligned": indices into the misaligned endpoints
    return _misaligned_endpoints(resolution).size, 2 * count


def _picked_ends(picks: np.ndarray, resolution: int, count: int, policy: str) -> np.ndarray:
    """The (T, count, 2) [lo, hi) rows of T families from their sorted
    (T, picks) draws of `_family_picks`."""
    T = len(picks)
    if policy == "random":
        return picks.reshape(T, count, 2)
    if policy == "misaligned":
        return _misaligned_endpoints(resolution)[picks].reshape(T, count, 2)
    # a cell of the grid, or of the dyadic level: [pos * width, (pos + 1) * width)
    width = (1 << resolution) // _family_picks(resolution, count, policy)[0]
    return np.stack((picks * width, (picks + 1) * width), axis=2)


def _family_ends(rng, resolution: int, count: int, policy: str) -> np.ndarray:
    """The (count, 2) int array of [lo, hi) rows of one family drawn from
    `rng`: sorted, pairwise disjoint and inside [0, 2**N].  The count must
    fit the policy (`_check_family_fits`)."""
    population, picks = _family_picks(resolution, count, policy)
    drawn = np.sort(rng.choice(population, size=picks, replace=False))
    return _picked_ends(drawn[None], resolution, count, policy)[0]


# Most picks a family kernel row makes.  Its Floyd loop costs O(picks**2) a
# row: in blocks of 256 at N = 14 it took 7.5, 18.5 and 25.6 us a family at
# 64, 96 and 128 picks, against 14.0, 22.0 and 22.8 us for the block's
# rows through `_family_ends`.
_FLOYD_MAX_PICKS = 96
# numpy's `choice` without replacement shuffles the tail of a full range
# instead of Floyd's rule when population > _TAIL_POPULATION and
# picks > population // _TAIL_SHARE
_TAIL_POPULATION, _TAIL_SHARE = 10_000, 50


def _floyd_picks(words: np.ndarray, population: int, picks: int):
    """Sorted (T, picks) draws of `choice(population, picks, replace=False)`
    from the (words, T) first outputs of T generators, and a (T,) flag of
    the rows whose draws this cannot reproduce.

    Floyd's rule draws val_i in [0, j_i] for j_i = population - picks + i
    and keeps val_i, or j_i if val_i is already kept.  Each draw is numpy's
    Lemire bounded uint32 on the next 32-bit half of a word, low half
    first, and j = 0 draws nothing.  A row is flagged where Lemire's
    rejection pre-check fires (leftover < j + 1), which may take further
    words.
    """
    first = population - picks
    halves = np.empty((2 * len(words), words.shape[1]), dtype=np.uint64)
    halves[0::2], halves[1::2] = words & _LOW32, words >> _SHIFT32
    kept = np.empty((picks, words.shape[1]), dtype=np.int64)
    flagged = np.zeros(words.shape[1], dtype=bool)
    halves = iter(halves)
    for i, row in enumerate(kept):
        j = first + i
        if j == 0:
            row[:] = 0
            continue
        scaled = next(halves) * np.uint64(j + 1)
        flagged |= (scaled & _LOW32) <= np.uint64(j)
        val = (scaled >> _SHIFT32).astype(np.int64)
        np.copyto(row, np.where((kept[:i] == val).any(axis=0), j, val))
    kept.sort(axis=0)
    return kept.T, flagged


def _family_block(seed: int, ts: range, resolution: int, count: int, policy: str) -> np.ndarray:
    """The (T, count, 2) family rows of the trials ts, row t equal to
    `_family_ends(rng_for((seed, t, 1)), resolution, count, policy)`.

    The keys (seed, t, 1) are seeded together (`_trial_limbs`) and their
    words drawn in numpy (`_pcg_words`, `_floyd_picks`).  A row goes through
    `_family_ends` on its own re-targeted generator instead where Lemire's
    pre-check fires, and every row does where numpy's `choice` would take
    its tail shuffle or the picks exceed `_FLOYD_MAX_PICKS`.
    """
    limbs = _trial_limbs(seed, ts, (1,))
    population, picks = _family_picks(resolution, count, policy)
    tail = population > _TAIL_POPULATION and picks > population // _TAIL_SHARE
    if tail or picks > _FLOYD_MAX_PICKS:
        ends, redo = np.empty((len(ts), count, 2), dtype=np.int64), np.arange(len(ts))
    else:
        words = (picks - (population == picks) + 1) // 2  # j = 0 draws no word
        drawn, flagged = _floyd_picks(_pcg_words(limbs, words), population, picks)
        ends, redo = _picked_ends(drawn, resolution, count, policy), np.flatnonzero(flagged)
    if redo.size:
        rngs = _retarget(np.random.Generator(np.random.PCG64(0)), limbs[:, redo])
        for r, rng in zip(redo, rngs):
            ends[r] = _family_ends(rng, resolution, count, policy)
    return ends


def random_interval_family(
    seed, resolution: int, count: int, policy: str = "random"
) -> list[IntInterval]:
    """Seeded family of pairwise disjoint index intervals inside [0, 2**N);
    `seed` as in `random_function`."""
    if count < 1:
        raise ValueError("need at least one interval")
    _check_family_fits(resolution, count, policy)
    ends = _family_ends(_rng(seed), resolution, count, policy).tolist()
    return [IntInterval(lo, hi) for lo, hi in ends]


# ---------------------------------------------------------------------------
# Shared campaign helpers
# ---------------------------------------------------------------------------


def _interval_projections(values: np.ndarray, ends: np.ndarray):
    """Project every column onto the s-th interval of its family, for s = 0, 1, ...

    `values` is a (cells, T, ...) stack holding one function per column t,
    any further axes being lattice coordinates; `ends` is a (T, S, 2) int
    array whose row ends[t, s] is the [lo, hi) of column t's s-th interval.
    An empty row lo == hi keeps nothing, i.e. gives an exact zero
    projection.  Yields one projection of the whole stack per s, its cells
    in bit-reversed order (see `project_columns`).
    """
    lo, hi = ends.transpose(2, 1, 0)  # (S, T) each
    return project_columns(values, np.broadcast_to(np.arange(len(ends)), lo.shape), lo, hi)


def _sq_sum_of_projections(values: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Pointwise sum of squared spectral projections onto intervals.

    `values` is one grid function with its (S, 2) int array of [lo, hi)
    rows, or a (cells, T) stack of functions with a (T, S, 2) array, one
    family per column.  Squares are added in interval order, one (cells, T)
    projection at a time, with the cells in the bit-reversed order the
    projections come out in; the sum is put back in cell order once, at the
    end.  Squaring and adding act cell by cell, so the bits are those of
    folding natural-order projections.
    """
    if values.ndim == 1:
        return _sq_sum_of_projections(values[:, None], ends[None])[:, 0]
    acc = np.zeros(values.shape)
    for proj in _interval_projections(values, ends):
        acc += np.square(proj, out=proj)
        del proj  # free it before the next projection is made
    return acc[bit_reversal(values.shape[0].bit_length() - 1)]


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 over a zero denominator; NaN when either side is NaN
    or infinite, so an overflowed norm cannot read as a finite ratio."""
    if not (math.isfinite(num) and math.isfinite(den)):
        return math.nan
    return num / den if den > 0 else 0.0


def _worst(values, start: float = 0.0) -> float:
    """max(start, *values), but NaN when any value is NaN.

    The builtin max drops a NaN that is not first (max(0.0, nan) == 0.0),
    which would let a broken trial pass an asserted bound.
    """
    values = list(values)
    if any(math.isnan(v) for v in values):
        return math.nan
    return max([start, *values])


def _scalar_probes(resolution: int) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Deterministic adversarial cases anchoring the ratio maximum, each with
    its family as an (S, 2) int array of [lo, hi) rows."""
    n = 1 << resolution
    hi = 1 << np.arange(resolution + 1)
    blocks = np.stack((hi >> 1, hi), axis=1)  # delta_block(k), k = 0 .. N
    w = lambda m: _walsh_columns([m], resolution)[:, 0]
    cases: list[tuple[str, np.ndarray, np.ndarray]] = []
    mid = (1 << (resolution - 1)) + 1 if resolution >= 2 else n - 1
    cases.append(("walsh-covered", w(mid), blocks))
    if resolution >= 3:
        low_blocks = blocks[1:4]
        low, high = w(1) + w(2), w(4) - w(7)
        for c in (1.0, 1.272, 2.0):
            cases.append((f"cascade-{c}", low + c * high, low_blocks))
    spike = np.zeros(n)
    spike[0] = float(n)
    cases.append(("spike", spike, blocks))
    # prod over k = 1..N of (1 + 0.9 r_k), built by doubling: r_k is +1 on
    # the cells whose k-th leading binary digit is 0, so each step appends
    # that digit and multiplies by its factor, in the order k = 1, 2, ...
    riesz = np.ones(1)
    factors = 1.0 + 0.9 * np.array([1.0, -1.0])
    for _ in range(resolution):
        riesz = (riesz[:, None] * factors).reshape(-1)
    cases.append(("riesz-0.9", riesz, blocks))
    return cases


def _summarize(trials: list[dict], key: str = "ratio") -> dict:
    arr = np.array([t[key] for t in trials], dtype=float)
    return {
        "n_trials": int(arr.size),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
        "median": float(np.quantile(arr, 0.5)),
        "q99": float(np.quantile(arr, 0.99)),
        "argmax_trial": int(arr.argmax()),
    }


def _bounded(name: str, worst: float, bound: float) -> dict:
    """Asserted check: the worst value is at most `bound`, up to ASSERT_TOL."""
    return {"name": name, "passed": worst <= bound + ASSERT_TOL, "worst": worst}


def _finite(worst: float) -> dict:
    """Asserted check where no bound is pinned: the worst ratio is finite."""
    return {"name": "ratios finite", "passed": math.isfinite(worst), "worst": worst}


def _report(cfg, trials, checks, key="ratio", **extra) -> RatioReport:
    """The report of a campaign: the distribution of `key` over the trials,
    then each `extra` entry that is not None, then the asserted checks; it
    passes iff every check does."""
    summary = _summarize(trials, key)
    summary.update((name, value) for name, value in extra.items() if value is not None)
    summary["asserted"] = checks
    return RatioReport(cfg.to_dict(), trials, summary, all(c["passed"] for c in checks))


def _regime(p: float) -> str | None:
    return "p<2 report-only" if p < 2 else None


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


def _scalar_records(cfg: ExperimentConfig, ts: range, cases, rows, ends) -> list[dict]:
    """Trial records of the scalar trials ts, whose cell values are the rows
    of a trial-major (T, cells) array and whose families are the (T, S, 2)
    endpoint array `ends`; the transforms run on all of them at once."""
    rhs = root_means(np.abs(rows), cfg.p, cfg.p).tolist()
    sq = _sq_sum_of_projections(np.ascontiguousarray(rows.T), ends)
    lhs = root_means(np.ascontiguousarray(sq.T), cfg.p, cfg.p / 2.0).tolist()
    return [
        {"trial": t, "case": case, "lhs": num, "rhs": den, "ratio": _ratio(num, den)}
        for t, case, num, den in zip(ts, cases, lhs, rhs)
    ]


def _scalar_chunk(cfg: ExperimentConfig, ts: range, rngs, ends) -> list[dict]:
    """Trial records of one budgeted chunk of random scalar trials, each
    drawn from the next generator of `rngs` (its stream 0) into one row of
    a trial-major array, with its family rows in `ends`."""
    n = 1 << cfg.resolution
    rows = np.empty((len(ts), n))
    for k in range(len(ts)):
        rows[k] = _draw_cells(next(rngs), (n,), cfg.policy)
    return _scalar_records(cfg, ts, [cfg.policy] * len(ts), rows, ends)


def run_scalar_lpr(cfg: ExperimentConfig) -> RatioReport:
    """Square function of interval projections against the plain L^p norm.

    Asserts ratio <= 1 at p = 2 (orthogonality); for p != 2 the ratio is
    reported only (and for p < 2 the run is explicitly report-only, the
    inequality being false in general there).  The probes, if any, are the
    first trials, scored in budgeted chunks with their families padded by
    empty rows, which project to an exact zero; the random trials follow
    (`_scalar_chunk`).
    """
    _check_family_fits(cfg.resolution, cfg.count, cfg.family)
    n = 1 << cfg.resolution
    probes = _scalar_probes(cfg.resolution)[: cfg.trials] if cfg.probes else []
    trials = []
    for sl in column_chunks(len(probes), n):
        cases, values, families = zip(*probes[sl])
        ends = np.zeros((len(cases), max(map(len, families)), 2), dtype=np.int64)
        for row, family in zip(ends, families):
            row[: len(family)] = family
        trials += _scalar_records(cfg, range(sl.start, sl.stop), cases, np.stack(values), ends)
    trials += _chunked_trials(cfg, _scalar_chunk, (0,), n, start=len(probes))
    worst = _worst(rec["ratio"] for rec in trials)
    if cfg.p == 2:
        checks = [_bounded("ratio<=1 at p=2", worst, 1.0)]
    else:
        checks = [_finite(worst)] if cfg.p > 2 else []
    return _report(cfg, trials, checks, regime=_regime(cfg.p))


def _pointwise_chunk(cfg: ExperimentConfig, ts: range, rngs, ends) -> list[dict]:
    """Trial records of one budgeted chunk of pointwise trials.

    Each trial is drawn from the next generator of `rngs` (its stream 0)
    into one column of a (cells, T) stack; `ends` is the chunk's (T, S, 2)
    array of family rows.  The block sums of every trial, anchored at
    the left ends over their left-level bitmasks, form one (cells, S, T)
    stack, and the sharp and rms maximal functions run on the whole chunk.
    """
    n = 1 << cfg.resolution
    values = np.empty((n, len(ts)))
    for k in range(len(ts)):
        values[:, k] = _draw_cells(next(rngs), (n,), cfg.policy)
    lo, hi = ends[..., 0], ends[..., 1]
    masks = left_level_masks(lo, hi)
    sharp = sharp_maximal_stack(block_sum_stack(values, lo, masks))  # (cells, T)
    m2 = rms_maximal_stack(values)
    excess = (sharp - m2).max(axis=0)
    pos = m2 > 0
    ratios = np.divide(sharp, m2, out=np.full_like(sharp, -np.inf), where=pos).max(axis=0)
    ratios[~pos.any(axis=0)] = 0.0
    return [
        {"trial": t, "ratio": ratio, "excess": exc}
        for t, ratio, exc in zip(ts, ratios.tolist(), excess.tolist())
    ]


def run_pointwise(cfg: ExperimentConfig) -> RatioReport:
    """Sharp function of the block transform against the rms maximal function.

    The bound holds pointwise with constant exactly one; every trial asserts
    it cellwise.  Trials run in chunks whose (cells, S, T) block-sum stack
    fits the column budget (`_pointwise_chunk`).
    """
    _check_family_fits(cfg.resolution, cfg.count, cfg.family)
    # the budget covers the cfg.count block sums a chunk of trials keeps
    trials = _chunked_trials(cfg, _pointwise_chunk, (0,), cfg.count << cfg.resolution)
    worst_ratio = _worst(rec["ratio"] for rec in trials)
    worst_excess = _worst((rec["excess"] for rec in trials), -np.inf)
    check = _bounded("pointwise sharp <= rms maximal (constant 1)", worst_ratio, 1.0)
    check["passed"] &= worst_excess <= ASSERT_TOL
    return _report(cfg, trials, [check], worst_excess=worst_excess)


def _vector_chunk(cfg: ExperimentConfig, ts: range, rngs, ends) -> list[dict]:
    """Trial records of one budgeted chunk of vector trials, each trial drawn
    from the next generator of `rngs` (its stream 0) with its family rows
    in `ends`; the projections of the chunk fill one (S, cells, T, d) stack
    in cell order."""
    n, T = 1 << cfg.resolution, len(ts)
    values = np.empty((n, T, cfg.dim))
    for k in range(T):
        values[:, k] = _draw_cells(next(rngs), (n, cfg.dim), cfg.policy)
    comps = np.empty((cfg.count, n, T, cfg.dim))
    rev = bit_reversal(cfg.resolution)
    for s, proj in enumerate(_interval_projections(values, ends)):
        np.take(proj, rev, axis=0, out=comps[s])
    cell_norms = np.empty((T, n))
    for k, t in enumerate(ts):
        cell_norms[k] = rad_norm_stack(comps[:, :, k], cfg.q, cfg.p, cfg.rad, [cfg.seed, t, 2])
    lhs = root_means(cell_norms, cfg.p, cfg.p).tolist()
    rhs = _lp_x_rows(values.swapaxes(0, 1), cfg)
    if cfg.dim == 1:  # the scalar square function of the same projections
        sq = _square_sum(comps[..., 0].swapaxes(0, 1))  # (cells, T)
        scalars = root_means(np.ascontiguousarray(sq.T), cfg.p, cfg.p / 2.0).tolist()
    records = []
    for k, t in enumerate(ts):
        rec = {"trial": t, "lhs": lhs[k], "rhs": rhs[k], "ratio": _ratio(lhs[k], rhs[k])}
        if cfg.dim == 1:
            rec["scalar_lhs"] = scalars[k]
            rec["rad_over_scalar"] = _ratio(lhs[k], scalars[k])
        records.append(rec)
    return records


def run_vector_lpr(cfg: ExperimentConfig) -> RatioReport:
    """Sign-averaged norm of lattice-valued interval projections vs the source norm.

    Asserts ratio <= 1 only in the exact-sign p = q = 2 case; other regimes
    are reported.  For d = 1 each trial also records the scalar square
    function value so the two formulations can be compared.
    """
    _check_family_fits(cfg.resolution, cfg.count, cfg.family)
    # the budget covers all cfg.count projections a chunk of trials keeps
    cells = (cfg.count * cfg.dim) << cfg.resolution
    trials = _chunked_trials(cfg, _vector_chunk, (0,), cells)
    worst = _worst(rec["ratio"] for rec in trials)
    if cfg.p == 2 and cfg.q == 2 and cfg.rad == "exact":
        check = _bounded("ratio<=1 at p=q=2 exact signs", worst, 1.0)
    else:
        check = _finite(worst)
    return _report(cfg, trials, [check], regime=_regime(cfg.p))


def _lp_x_rows(rows: np.ndarray, cfg: ExperimentConfig) -> list[float]:
    """L^p norm of the pointwise l^q norm of every trial of a (T, cells, d)
    stack, in any memory layout."""
    return root_means(lattice_norm(rows, cfg.q), cfg.p, cfg.p).tolist()


def _lemma_chunk(cfg: ExperimentConfig, ts: range, rngs) -> list[dict]:
    """Trial records of one budgeted chunk of lemma trials.

    Trial t draws its components from the next cfg.components generators of
    `rngs` into a trial-major (T, S, cells, d) buffer, so each component's
    (cells, d) draw is contiguous and one mean over the cell axis removes
    every component's cell means with the bits of a mean of that draw
    alone (at d = 1 numpy sums a contiguous run of cells pairwise).  The
    chunk is then copied once into an (S, cells, d, T) stack, and the
    square function runs on a cells-first view of it.
    """
    n, S, d, T = 1 << cfg.resolution, cfg.components, cfg.dim, len(ts)
    draws = np.empty((T, S, n, d))
    for k in range(T):
        for s in range(S):
            draws[k, s] = _draw_cells(next(rngs), (n, d), cfg.policy)
    if cfg.mean_zero:
        draws -= draws.mean(axis=2, keepdims=True)
    # trials innermost, where the kernels' elementwise steps run fastest
    stack = np.ascontiguousarray(draws.transpose(1, 2, 3, 0))  # (S, cells, d, T)
    del draws
    # the kernels read cells-first views; the norm takes the n*d entries as cells
    sq = square_function_stack(stack.reshape(S, n, -1).swapaxes(0, 1))
    norm = np.sqrt(_square_sum(stack.reshape(S, n * d, -1).swapaxes(0, 1)))
    lhs = _lp_x_rows(sq.reshape(n, d, -1).transpose(2, 0, 1), cfg)
    rhs = _lp_x_rows(norm.reshape(n, d, -1).transpose(2, 0, 1), cfg)
    return [
        {"trial": t, "lhs": left, "rhs": right, "ratio": _ratio(left, right)}
        for t, left, right in zip(ts, lhs, rhs)
    ]


def run_lemma_square(cfg: ExperimentConfig) -> RatioReport:
    """Coordinatewise martingale square function vs the l2-aggregated norm.

    Generates a family of lattice-valued components (cell means removed when
    mean_zero is set), applies the square function per coordinate across the
    family, and compares L^p(lattice) norms.  The d = 1, p = 2 mean-zero case
    asserts ratio <= 1; lattice cases are reported.  Trials run in chunks
    whose (S, cells, d, T) stack of draws fits the column budget
    (`_lemma_chunk`).
    """
    # the budget covers the components a chunk of trials draws
    cells = (cfg.components * cfg.dim) << cfg.resolution
    trials = _chunked_trials(cfg, _lemma_chunk, range(cfg.components), cells, families=False)
    worst = _worst(rec["ratio"] for rec in trials)
    if cfg.dim == 1 and cfg.p == 2 and cfg.mean_zero:
        check = _bounded("square function contracts at p=2, d=1, mean zero", worst, 1.0)
    else:
        check = _finite(worst)
    return _report(cfg, trials, [check])


def _weak11_chunk(cfg: ExperimentConfig, ts: range, rngs, ends) -> list[dict]:
    """Trial records of one budgeted chunk of weak-type trials.

    Trial t draws its components from the next cfg.count generators of
    `rngs` into a (cells, T, S, d) stack, its family rows being in `ends`;
    its leaf norms come from its own sign seed [cfg.seed, t, 3].  The adjoint of
    the stack, the stopping cells of every height and the adjoint of the
    (cells, T, S, H, d) bad parts then run on the whole chunk, the heights
    a budgeted chunk at a time.
    """
    n, S, T = 1 << cfg.resolution, cfg.count, len(ts)
    values = np.empty((n, T, S, cfg.dim))
    leaves = np.empty((T, n))
    for k, t in enumerate(ts):
        for s in range(S):
            values[:, k, s] = _draw_cells(next(rngs), (n, cfg.dim), cfg.policy)
        leaves[k] = rad_norm_stack(
            values[:, k].swapaxes(0, 1), cfg.q, 2.0, cfg.rad, [cfg.seed, t, 3]
        )
    anchors, hi = ends.reshape(T * S, 2).T
    levels = left_level_masks(anchors, hi)
    owners = np.repeat(np.arange(T), S)
    columns = values.reshape(n, T * S, cfg.dim)
    out_norms = lattice_norm(_adjoint_of_stack(columns, anchors, levels, owners), cfg.q)
    l1 = leaves.mean(axis=1)
    med = np.median(out_norms, axis=0)
    scale = np.where(med > 0, med, np.where(l1 > 0, l1, 1.0))
    spans = range(-cfg.lam_halfspan, cfg.lam_halfspan + 1)
    lams = scale[:, None] * np.array([2.0**e for e in spans])  # (T, H)
    weak = np.empty_like(lams)  # lam * |{out_norms > lam}|
    excess = [[] for _ in ts]
    for hs in column_chunks(len(spans), (T * S * cfg.dim) << cfg.resolution):
        weak[:, hs] = lams[:, hs] * ((out_norms[:, :, None] > lams[:, hs]).sum(axis=0) / n)
        masks, covered = _stopping_masks(leaves.T, lams[:, hs])
        bad = _good_parts(values, masks)  # (cells, T, S, H, d)
        np.subtract(values[:, :, :, None], bad, out=bad)
        tstar_bad = _adjoint_of_stack(bad.reshape(n, T * S, -1, cfg.dim), anchors, levels, owners)
        off = ~covered
        worst = np.where(off, lattice_norm(tstar_bad, cfg.q), -np.inf).max(axis=0)
        for found, row, kept in zip(excess, worst.tolist(), off.any(axis=0).tolist()):
            found += [value for value, keep in zip(row, kept) if keep]
    return [
        {
            "trial": t,
            "ratio": _worst(_ratio(num, den) for num in row),
            "support_excess": _worst(found),
        }
        for t, row, den, found in zip(ts, weak.tolist(), l1.tolist(), excess)
    ]


def run_weak11(cfg: ExperimentConfig) -> RatioReport:
    """Weak-type (1,1) behaviour of the adjoint segment transform.

    Per trial: draw a component family g, split it at each height of a
    geometric lambda grid around the median output norm with the shared
    stopping cells of its pointwise sign-averaged norm, and check that the
    adjoint transform of the bad part vanishes off the stopping cells.  The
    containment is asserted exactly; the weak-type constant
    lam * |{|T*g| > lam}| / ||g||_1 is reported over the grid.  Trials run
    in chunks whose (cells, T, S, H, d) stack of bad parts fits the column
    budget (`_weak11_chunk`).
    """
    _check_family_fits(cfg.resolution, cfg.count, cfg.family)
    # a family holds cfg.count intervals, one component g per interval
    streams = range(10, 10 + cfg.count)
    heights = 2 * cfg.lam_halfspan + 1
    # trials are chunked over all heights, but a trial holds its components
    # and one budgeted run of heights at a time: one height from N = 14 on
    live = (cfg.count * cfg.dim) << cfg.resolution
    cells = live * heights
    trials = _chunked_trials(cfg, _weak11_chunk, streams, cells, live=live)
    worst_excess = _worst(rec["support_excess"] for rec in trials)
    check = _bounded("adjoint of bad part supported on stopping cells", worst_excess, 0.0)
    return _report(cfg, trials, [check], worst_support_excess=worst_excess)


def _adjointness_chunk(cfg: ExperimentConfig, ts: range, rngs, ends) -> list[dict]:
    """Trial records of one budgeted chunk of adjointness trials.

    Trial t draws f and its components from the next 1 + cfg.count
    generators of `rngs` into a (cells, T, d) and a (cells, T, S, d) stack;
    its family rows are in `ends`.  One forward and one adjoint pass transform the whole
    chunk; both pairings are taken per trial row.
    """
    n, S, T = 1 << cfg.resolution, cfg.count, len(ts)
    f = np.empty((n, T, cfg.dim))
    gs = np.empty((n, T, S, cfg.dim))
    for k in range(T):
        f[:, k] = _draw_cells(next(rngs), (n, cfg.dim), cfg.policy)
        for s in range(S):
            gs[:, k, s] = _draw_cells(next(rngs), (n, cfg.dim), cfg.policy)
    anchors, hi = ends.reshape(T * S, 2).T
    levels = left_level_masks(anchors, hi)
    owners = np.repeat(np.arange(T), S)
    tstar = _adjoint_of_stack(gs.reshape(n, T * S, cfg.dim), anchors, levels, owners)
    tf = _segment_columns(f, anchors, levels, owners).reshape(n, T, S, cfg.dim)
    rhs = _pairings(np.moveaxis(f, 0, -2), np.moveaxis(tstar, 0, -2))
    lhs = _sign_averaged_pairings(tf.transpose(2, 1, 0, 3), gs.transpose(2, 1, 0, 3))
    return [
        {"trial": t, "lhs": left, "rhs": right, "residual": abs(left - right) / (1.0 + abs(right))}
        for t, left, right in zip(ts, lhs.tolist(), rhs.tolist())
    ]


def run_adjointness(cfg: ExperimentConfig) -> RatioReport:
    """Exact adjointness of the segment transform pair under sign averaging.

    Trials run in chunks whose (cells, T, S, d) component stack fits the
    column budget (`_adjointness_chunk`).
    """
    if cfg.rad != "exact":
        raise ValueError("adjointness requires exact sign mode")
    _check_family_fits(cfg.resolution, cfg.count, cfg.family)
    streams = (0, *range(10, 10 + cfg.count))
    cells = (cfg.count * cfg.dim) << cfg.resolution
    trials = _chunked_trials(cfg, _adjointness_chunk, streams, cells)
    worst = _worst(rec["residual"] for rec in trials)
    return _report(cfg, trials, [_bounded("adjointness residual", worst, 0.0)], "residual")


# ---------------------------------------------------------------------------
# Identity suite, decomposition driver, CZ driver (CLI backends)
# ---------------------------------------------------------------------------


def _all_cells(resolution: int):
    for level in range(resolution + 1):
        for pos in range(1 << level):
            yield DyadicCell(level, pos)


def verify_identities(resolution: int = 8, trials: int = 50, seed: int = 0) -> dict:
    """Run the operator-layer invariant battery; returns a JSON-able report.

    Asserted identities are exact up to float tolerance; the sharp-function
    lower bound for mean-zero families carries no usable constant and is
    reported as an empirical ratio distribution instead.
    """
    _check_resolution(resolution)
    _check_min(1, trials=trials)
    _check_min(0, seed=seed)
    # each trial draws 1..max_count disjoint intervals of the "random" policy
    max_count = 6
    min_resolution = next(
        r for r in itertools.count() if _family_capacity(r, "random") >= max_count
    )
    if resolution < min_resolution:
        raise ValueError(
            f"resolution must be >= {min_resolution} to fit {max_count} disjoint "
            f"intervals, got {resolution}"
        )
    # each check's residuals, folded by `_worst` so that a NaN fails the check
    residuals = {
        name: []
        for name in (
            "projection_identity", "pointwise_sharp_vs_rms", "mean_subtraction_optimality",
            "orthogonality_sum", "mean_truncation", "telescoping", "locality", "constancy",
            "block_mean_zero", "rescaling_identity",
        )
    }
    norm_ratios = []
    n = 1 << resolution
    # per trial t the keys (seed, t), (seed, t, 0), (seed, t, 1); then the
    # keys (seed, trials, 0) and (seed, trials, 1) of the mean truncation sweep
    for t in range(trials):
        # every draw of the key (seed, t), in the order the checks use them
        rng = rng_for(seed, t)
        count = int(rng.integers(1, max_count + 1))
        offset = rng.standard_normal(count)  # one per block sum
        level = int(rng.integers(1, resolution + 1))
        cell = DyadicCell(level, int(rng.integers(0, 1 << level)))
        noise = rng.standard_normal(n - (n >> level))  # off the cell
        a = int(rng.integers(0, n))
        f = random_function((seed, t, 0), resolution, "gaussian-cells")
        intervals = random_interval_family((seed, t, 1), resolution, count)
        decs = family_decompose(intervals)

        for dec in decs:
            for base, levels, union in (
                (dec.anchor, dec.left_levels, dec.left_union()),
                (dec.interval.hi, dec.right_levels, dec.right_union()),
            ):
                if not levels or base >= n:
                    continue
                lhs = project(sorted(union), f).values
                rhs = walsh_eval(base, resolution).values * block_sum(
                    f, base, levels
                ).values
                residuals["projection_identity"].append(float(np.abs(lhs - rhs).max()))

        g = block_sum_family(f, decs)
        sharp = sharp_maximal(g).values
        m2 = rms_maximal(f).values
        residuals["pointwise_sharp_vs_rms"].append(float((sharp - m2).max()))
        residuals["block_mean_zero"].append(float(np.abs(g.values.mean(axis=1)).max()))
        for p_exp in (2.0, 4.0):
            gp = float(root_means((g.values**2).sum(axis=0)[None], p_exp, p_exp / 2)[0])
            sp = float(root_means(np.abs(sharp)[None], p_exp, p_exp)[0])
            if sp > 1e-12:
                norm_ratios.append(gp / sp)

        mean_vec = g.values.mean(axis=1)
        c = mean_vec + offset
        osc_mean = ((g.values - mean_vec[:, None]) ** 2).sum(axis=0).mean()
        osc_c = ((g.values - c[:, None]) ** 2).sum(axis=0).mean()
        residuals["mean_subtraction_optimality"].append(float(osc_mean - osc_c))

        ends = np.array([(iv.lo, iv.hi) for iv in intervals])
        proj_sq = _sq_sum_of_projections(f.values, ends)
        residuals["orthogonality_sum"].append(float(proj_sq.mean() - (f.values**2).mean()))

        total = np.zeros(n)
        for k in range(resolution + 1):
            total += mart_diff(k, f).values
        residuals["telescoping"].append(float(np.abs(total - f.values).max()))

        sl = cell.grid_slice(resolution)
        outside = ~cells_mask([cell], resolution)
        perturbed_vals = f.values.copy()
        perturbed_vals[outside] += noise
        perturbed = DyadicFunction(resolution, perturbed_vals)
        for j in range(cell.level + 1, resolution + 1):
            d_orig = mart_diff(j, f).values[sl]
            d_pert = mart_diff(j, perturbed).values[sl]
            residuals["locality"].append(float(np.abs(d_orig - d_pert).max()))
        for j in range(0, cell.level + 1):
            vals = mart_diff(j, f).values[sl]
            residuals["constancy"].append(float(np.abs(vals - vals[0]).max()))

        m = cell.level
        wa_f = walsh_eval(a, resolution) * f
        f_tilde = restrict_rescale(f, cell)
        sign = walsh_eval(a & ((1 << m) - 1), m).values[cell.position]
        wa_tilde = walsh_eval(a >> m, resolution - m)
        for j in range(m + 1, resolution + 1):
            lhs = mart_diff(j, wa_f).values[sl]
            rhs = sign * mart_diff(j - m, wa_tilde * f_tilde).values
            residuals["rescaling_identity"].append(float(np.abs(lhs - rhs).max()))

    # mean truncation sweep at a coarse resolution, all dyadic cells
    res6 = min(resolution, 6)
    f6 = random_function((seed, trials, 0), res6, "gaussian-cells")
    intervals6 = random_interval_family((seed, trials, 1), res6, 2)
    for dec in family_decompose(intervals6):
        if not dec.left_levels:
            continue
        full = block_sum(f6, dec.anchor, dec.left_levels).values
        for cell in _all_cells(res6):
            inv_measure = 1 << cell.level
            kept = [j for j in dec.left_levels if (1 << j) <= inv_measure]
            truncated = block_sum(f6, dec.anchor, kept).values
            sl = cell.grid_slice(res6)
            residuals["mean_truncation"].append(
                abs(float(full[sl].mean()) - float(truncated[sl].mean()))
            )

    ratios = np.array(norm_ratios) if norm_ratios else np.zeros(1)
    results = []
    for name, values in residuals.items():
        worst = _worst(values)
        results.append({"name": name, "worst_residual": worst, "passed": worst <= ASSERT_TOL})
    return {
        "config": {"resolution": resolution, "trials": trials, "seed": seed},
        "checks": results,
        "reported": {
            "norm_over_sharp": {
                "max": float(ratios.max()),
                "mean": float(ratios.mean()),
                "q99": float(np.quantile(ratios, 0.99)),
            }
        },
        "passed": all(r["passed"] for r in results),
    }


def decompose_report(a: int, b: int) -> dict:
    """Decomposition of [a, b) plus its elementwise verification, JSON-able.

    The verification enumerates every element, so [a, b) may hold at most
    2**MAX_RESOLUTION of them, the size of the largest campaign grid.
    """
    if b - a > 1 << MAX_RESOLUTION:
        raise ValueError(
            f"interval [{a}, {b}) has {b - a} elements, more than 2**{MAX_RESOLUTION}"
        )
    dec = decompose(a, b)
    chk = verify_decomposition(dec, a, b)
    return {
        "a": a,
        "b": b,
        "anchor": dec.anchor,
        "left": [{"level": j, "lo": piece.lo, "hi": piece.hi} for j, piece in dec.left],
        "right": [
            {"level": i, "lo": piece.lo, "hi": piece.hi} for i, piece in dec.right
        ],
        "checks": chk.as_dict(),
        "passed": chk.passed,
    }


def czd_report(
    resolution: int, dim: int, q: float, lam: float, seed: int
) -> dict:
    """Splitting of a seeded random lattice function at an absolute height."""
    _check_resolution(resolution)
    _check_min(1, dim=dim)
    _check_trial_floats(dim << resolution, resolution=resolution, dim=dim)
    _check_min(0, seed=seed)
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"threshold lambda must be finite and positive, got {lam}")
    if not q >= 1:
        raise ValueError(f"lattice exponent q must be >= 1, got {q}")
    g = random_lattice_function((seed, 0, 0), resolution, dim, q, "gaussian-cells")
    result = cz_decompose(g, lam)
    report = verify_cz(result, g)
    report["config"] = {
        "resolution": resolution,
        "dim": dim,
        "q": q,
        "lam": lam,
        "seed": seed,
    }
    return report


# ---------------------------------------------------------------------------
# Exhaustive basis sweep for the pointwise bound
# ---------------------------------------------------------------------------


def exhaustive_pointwise_basis_check(
    resolution: int = 5, max_intervals: int = 3, spot_checks: int = 200, seed: int = 0
) -> dict:
    """Pointwise sharp bound over every family of <= max_intervals intervals
    in [0, 2**resolution) with every Walsh basis function as input.

    On basis inputs all pipeline arithmetic is exact: the modulated function
    is again a basis function, its block restriction is either zero or that
    same function, so the sharp value is a table lookup once the single-input
    tables are computed through the real operators.  The sweep enumerates all
    families against those tables and asserts that at most one interval
    captures each basis index (pieces are disjoint across a family); a seeded
    subsample of (family, basis) pairs is re-run through the full pipeline to
    pin the tables to the real code path.  Both take each interval's left
    levels from `left_level_masks`, the route the campaigns run.  A negative
    `resolution` or `spot_checks`, or `max_intervals` below 1, is refused
    with ValueError before any table is built.

    Families are enumerated depth by depth as arrays: a family's children
    append any interval starting at or after its last end, and each family
    carries the capture row of its union (the basis index its block sum
    keeps at every input, or -1).  Children are grown a budgeted chunk at a
    time (`column_chunks`, `depth * 2**resolution` cells per family), at
    most one live chunk per depth, so memory does not grow with the family
    count.  Every family draws one uniform in the depth-first preorder of
    the family tree (parent, then its children's subtrees in interval
    order); the draws are made in consecutive blocks, which consumes the
    generator exactly as one draw per family would, and the sampled ranks
    are mapped back to families through per-depth subtree sizes.
    """
    _check_min(1, max_intervals=max_intervals)
    _check_min(0, resolution=resolution, spot_checks=spot_checks)
    n = 1 << resolution
    # intervals in (lo, hi) order: those starting at or after s are the
    # suffix from first[s]
    lo, hi = np.array(
        [(a, b) for a in range(n) for b in range(a + 1, n + 1)], dtype=np.int64
    ).T
    n_iv = len(lo)
    first = np.searchsorted(lo, np.arange(n + 1))
    grid = np.arange(n)
    bit_length = np.array([m.bit_length() for m in range(n)])
    # interval i keeps basis index nn when bit_length(lo[i] ^ nn) is a left level
    masks = left_level_masks(lo, hi)
    moved = lo[:, None] ^ grid
    capture = np.where(masks[:, None] >> bit_length[moved] & 1, moved, -1)

    basis = _walsh_columns(range(n), resolution)
    sharp_tab = np.zeros(n + 1)  # index m+1; slot 0 is the zero function
    sharp_tab[1:] = sharp_maximal_stack(basis[:, None]).max(axis=0)
    m2_tab = rms_maximal_stack(basis).min(axis=0)
    if float(np.abs(m2_tab - 1.0).max()) != 0.0:
        raise RuntimeError("rms maximal function of a Walsh function is not exactly 1")

    def children(union, ends, depth):
        """Budgeted chunks of the depth-`depth` children of a chunk of families:
        (parent capture rows, appended interval indices, depth)."""
        counts = n_iv - first[ends]
        offsets = np.cumsum(counts) - counts
        for sl in column_chunks(int(counts.sum()), depth * n):
            pos = np.arange(sl.start, sl.stop)
            parent = np.searchsorted(offsets, pos, side="right") - 1
            yield union[parent], first[ends[parent]] + pos - offsets[parent], depth

    families = 0
    chunk_worst = []
    open_levels = [children(np.full((1, n), -1), np.zeros(1, dtype=np.int64), 1)]
    while open_levels:
        chunk = next(open_levels[-1], None)
        if chunk is None:
            open_levels.pop()
            continue
        union, added, depth = chunk
        rows = capture[added]
        twice = (union >= 0) & (rows >= 0)
        if twice.any():
            j, nn = np.argwhere(twice)[0]
            raise RuntimeError(
                f"a family ending in [{lo[added[j]]}, {hi[added[j]]}) captures "
                f"index {nn} twice"
            )
        union = np.maximum(union, rows)
        families += len(added)
        chunk_worst.append(float(sharp_tab[union + 1].max()))
        if depth < max_intervals:
            open_levels.append(children(union, hi[added], depth + 1))
    worst = _worst(chunk_worst)

    # subtree[h]: families in the subtree of a depth-d family ending at h,
    # itself included; before[d][i]: families in the subtrees of the depth-d
    # families ending in the intervals ahead of interval i
    subtree = np.ones(n + 1, dtype=np.int64)
    before = {}
    for d in range(max_intervals, 0, -1):
        before[d] = np.concatenate(([0], np.cumsum(subtree[hi])))
        subtree = 1 + before[d][-1] - before[d][first]
    if families != int(before[1][-1]):
        raise RuntimeError("enumerated family count disagrees with the family tree")

    def unrank(rank):
        """The family with the given depth-first preorder rank."""
        family, start, d = [], 0, 1
        while True:
            target = before[d][first[start]] + rank
            i = int(np.searchsorted(before[d], target, side="right")) - 1
            family.append(i)
            rank = target - before[d][i]
            if rank == 0:
                return family
            rank, start, d = rank - 1, hi[i], d + 1

    rng = rng_for((seed, 99))
    # The draw rate keeps the fixed 1.7e6 family scale of the original sweep:
    # an exact count would change `spot_checks` in every recorded report.
    rate = spot_checks / 1.7e6
    sampled = [
        unrank(sl.start + int(r))
        for sl in column_chunks(families, 1)
        for r in np.flatnonzero(rng.random(sl.stop - sl.start) < rate)
    ]

    # spot checks through the full pipeline
    for _ in range(min(spot_checks, 50) - len(sampled)):
        k = int(rng.integers(1, max_intervals + 1))
        fam, start = [], 0
        for _ in range(k):
            room = n_iv - int(first[start])
            if not room:
                break
            i = int(first[start]) + int(rng.integers(0, room))
            fam.append(i)
            start = hi[i]
        if fam:
            sampled.append(fam)
    spot_excess = []
    for fam in sampled:
        nn = int(rng.integers(0, n))
        f = _walsh_columns([nn], resolution)
        sharp = sharp_maximal_stack(block_sum_stack(f, lo[fam][None], masks[fam][None]))
        m2 = rms_maximal_stack(f)
        spot_excess.append(float((sharp - m2).max()))
        table_value = sharp_tab[capture[fam, nn].max() + 1]
        if not abs(float(sharp.max()) - table_value) <= 1e-12:
            pairs = [(int(lo[i]), int(hi[i])) for i in fam]
            raise RuntimeError(f"pipeline disagrees with table on {pairs}, n={nn}")

    spot_worst = _worst(spot_excess)
    passed = worst <= 1.0 + ASSERT_TOL and spot_worst <= ASSERT_TOL
    return {
        "config": {
            "resolution": resolution,
            "max_intervals": max_intervals,
            "seed": seed,
        },
        "families": families,
        "basis_functions": n,
        "max_ratio": worst,
        "spot_checks": len(sampled),
        "spot_worst_excess": spot_worst,
        "passed": passed,
    }


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def report_json_lines(report: RatioReport, timestamp: str | None = None) -> str:
    """One JSON line per trial followed by the summary object."""
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat()
    lines = [json.dumps(t) for t in report.trials]
    lines.append(
        json.dumps(
            {
                "summary": report.summary,
                "config": report.config,
                "passed": report.passed,
                "timestamp": timestamp,
            }
        )
    )
    return "\n".join(lines) + "\n"


def report_csv(report: RatioReport, timestamp: str | None = None) -> str:
    """Flat one-row summary, config columns first."""
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat()
    row: dict = {}
    for k, v in report.config.items():
        row[f"config.{k}"] = v
    for k, v in report.summary.items():
        if k == "asserted":
            continue
        row[f"summary.{k}"] = v
    row["passed"] = report.passed
    row["timestamp"] = timestamp
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(row)
    writer.writerow(str(v) for v in row.values())
    return out.getvalue()


def write_report(report: RatioReport, path: str, fmt: str = "json") -> None:
    if fmt == "json":
        text = report_json_lines(report)
    elif fmt == "csv":
        text = report_csv(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)


RUNNERS = {
    "scalar": run_scalar_lpr,
    "vector": run_vector_lpr,
    "pointwise": run_pointwise,
    "lemma": run_lemma_square,
    "weak11": run_weak11,
    "adjoint": run_adjointness,
}
