"""Dyadic operator zoo: block sums, maximal functions, square function.

The central object is the map sending a scalar grid function f to the family

    s  |->  sum over j in Theta_s of  Delta_j(w_{a_s} * f),

one component per decomposed interval, where a_s is the interval's anchor and
Theta_s its left-piece levels (`block_sum_family`).  Multiplying component s
by w_{a_s} recovers the spectral projection of f onto the union of the left
pieces, which is how the square function of arbitrary interval projections is
reduced to martingale machinery.  One private engine computes these block
sums for every caller: `_anchor_columns` builds the anchor functions and
kept index ranges, `_block_sum_chunks` runs the forward map on a (cells, ...)
stack one budgeted chunk of anchors at a time, and `_block_sums_adjoint` is
its adjoint.  The lattice segment transform pair is the same engine run
with level 0 added to the left-piece levels.

Maximal and oscillation functionals are dyadic throughout: suprema range over
the dyadic cells of levels 0..N only, which loses nothing because the
functions are cell-constant at level N.  Tree sweeps run bottom-up with
pairwise sums, so a sharp/maximal evaluation costs O(2**N * (N + S)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .dyadic import delta_block
from .intervals import Decomposition
from .walsh import (
    DyadicFunction,
    ResolutionError,
    cell_sums,
    column_chunks,
    project_columns,
    walsh_eval,
)


@dataclass(frozen=True, eq=False)
class SeqFunction:
    """Finitely many grid functions viewed as one l2-sequence-valued function."""

    resolution: int
    values: np.ndarray  # shape (components, 2**resolution)

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != (1 << self.resolution):
            raise ValueError(
                f"expected shape (S, {1 << self.resolution}), got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_components(cls, components: Sequence[DyadicFunction]) -> "SeqFunction":
        if not components:
            raise ValueError("need at least one component")
        res = components[0].resolution
        for g in components[1:]:
            if g.resolution != res:
                raise ResolutionError("components live on different grids")
        return cls(res, np.stack([g.values for g in components]))


def _anchor_columns(anchors, levels, resolution: int, ndim: int):
    """(cells, s, 1, ...) anchor functions w_a, shaped to broadcast over a stack
    with `ndim` axes, and per anchor the index ranges of its (checked) levels."""
    ranges = []
    for lv in levels:
        ranges.append([])
        for j in lv:
            if j > resolution:
                raise ResolutionError(f"level {j} exceeds resolution {resolution}")
            blk = delta_block(j)
            ranges[-1].append((blk.lo, blk.hi))
    w = np.stack([walsh_eval(a, resolution).values for a in anchors], axis=1)
    return w.reshape(w.shape + (1,) * (ndim - 2)), ranges


def _block_sum_chunks(values: np.ndarray, anchors, levels):
    """Yield (slice, (cells, s, ...) block sums) per budgeted chunk of anchors.

    Column s sums the martingale differences of w_{a_s} * values over its
    levels; trailing axes of the (cells, ...) stack ride along.
    """
    resolution = values.shape[0].bit_length() - 1
    for sl in column_chunks(len(anchors), values.size):
        w, ranges = _anchor_columns(anchors[sl], levels[sl], resolution, values.ndim + 1)
        # a scalar stack is modulated in the anchor columns themselves
        modulated = np.multiply(w, values[:, None], out=w if values.ndim == 1 else None)
        (sums,) = project_columns(modulated, [ranges])
        yield sl, sums


def _block_sums_adjoint(stacked: np.ndarray, anchors, levels) -> np.ndarray:
    """Adjoint of `_block_sum_chunks` on a (cells, S, ...) stack: the sum, in
    column order, of w_{a_s} times the block sums of column s."""
    resolution = stacked.shape[0].bit_length() - 1
    acc = np.zeros(stacked.shape[:1] + stacked.shape[2:])
    for sl in column_chunks(len(anchors), acc.size):
        w, ranges = _anchor_columns(anchors[sl], levels[sl], resolution, stacked.ndim)
        (blocks,) = project_columns(stacked[:, sl], [ranges])
        for s in range(blocks.shape[1]):
            acc += w[:, s] * blocks[:, s]
    return acc


def block_sum(f: DyadicFunction, a: int, levels: Iterable[int]) -> DyadicFunction:
    """Sum over j in `levels` of the level-j martingale difference of w_a * f.

    Computed spectrally: modulate by w_a, then keep the coefficient blocks of
    the requested levels.  Multiplying the result by w_a again gives the
    spectral projection of f onto the union of the translated blocks.
    """
    ((_, sums),) = _block_sum_chunks(f.values, [a], [levels])
    return DyadicFunction(f.resolution, sums[:, 0])


def block_sum_family(
    f: DyadicFunction, decomps: Sequence[Decomposition]
) -> SeqFunction:
    """One block sum per decomposition, using its anchor and left-piece levels.

    Every component integrates to zero since left levels are >= 1.
    """
    anchors = [dec.anchor for dec in decomps]
    levels = [dec.left_levels for dec in decomps]
    out = np.zeros((len(decomps), f.size))
    for sl, sums in _block_sum_chunks(f.values, anchors, levels):
        out[sl] = sums.T
        del sums  # the last chunk must not stay alive while SeqFunction copies `out`
    return SeqFunction(f.resolution, out)


def sharp_maximal(g: SeqFunction) -> DyadicFunction:
    """Dyadic sharp function: sup over cells of the rms oscillation about the cell mean.

    Uses the per-cell variance identity (mean of the squared norm minus the
    squared norm of the mean) so each level costs one pairwise-sum pass.
    Each level of the (cells, S) pyramid is turned back into a C-ordered
    (S, cells) array before summing over components: numpy adds a contiguous
    axis of 8 or more pairwise, which would round differently.
    """
    n = 1 << g.resolution
    best = np.zeros(n)
    for sq, comp in zip(cell_sums((g.values**2).sum(axis=0)), cell_sums(g.values.T)):
        count = n // sq.shape[0]
        osc2 = sq / count - ((comp.T / count) ** 2).sum(axis=0)
        best = np.maximum(best, np.repeat(np.maximum(osc2, 0.0), count))
    return DyadicFunction(g.resolution, np.sqrt(best))


def maximal_function(f: DyadicFunction) -> DyadicFunction:
    """Dyadic Hardy-Littlewood maximal function: sup of cell averages of |f|."""
    n = f.size
    best = np.zeros(n)
    for sums in cell_sums(np.abs(f.values)):
        count = n // sums.shape[0]
        best = np.maximum(best, np.repeat(sums / count, count))
    return DyadicFunction(f.resolution, best)


def rms_maximal(f: DyadicFunction) -> DyadicFunction:
    """Root-mean-square maximal function: sup of (cell average of f**2)**(1/2).

    Equals the maximal function of f**2 followed by a pointwise square root.
    """
    squared = DyadicFunction(f.resolution, f.values**2)
    return DyadicFunction(f.resolution, np.sqrt(maximal_function(squared).values))


def square_function(g: SeqFunction) -> DyadicFunction:
    """Martingale square function over levels 1..N, summed across components.

    The level-0 term (the mean) is deliberately excluded.
    """
    res = g.resolution
    n = 1 << res
    # means[k] holds the level-k cell means, C-ordered (S, 2**k) as in sharp_maximal
    means = [s.T / (n // s.shape[0]) for s in cell_sums(g.values.T)][::-1]
    acc = np.zeros(n)
    for k in range(1, res + 1):
        diff = means[k] - np.repeat(means[k - 1], 2, axis=1)
        acc += np.repeat((diff**2).sum(axis=0), n >> k)
    return DyadicFunction(res, np.sqrt(acc))
