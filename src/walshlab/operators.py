"""Dyadic operator zoo: block sums, maximal functions, square function.

The central object is the map sending a scalar grid function f to the family

    s  |->  sum over j in Theta_s of  Delta_j(w_{a_s} * f),

one component per decomposed interval, where a_s is the interval's anchor and
Theta_s its left-piece levels (`block_sum_family`).  Multiplying component s
by w_{a_s} recovers the spectral projection of f onto the union of the left
pieces, which is how the square function of arbitrary interval projections is
reduced to martingale machinery.  One private engine computes these block
sums for every caller, on int arrays with one calling convention: anchors,
level bitmasks (bit j for level j) and owner trials, one entry per column.
`_mask_ranges` expands the set bits of a chunk's masks into their kept
index blocks in one numpy step, `_block_sum_chunks` runs the forward map
on a (cells, T, ...) stack of T trials one budgeted chunk of anchors at a
time, and `_block_sums_adjoint` is its adjoint.  The campaigns take the
masks from interval endpoints (`intervals.left_level_masks`); the public
functions that take levels or `Decomposition`s convert them at their
boundary (`_levels_mask`, `_family_arrays`), which refuses an anchor or a
level above the grid's resolution with `ResolutionError` and a negative
level with `ValueError`; the engine itself checks nothing.  Neither
direction modulates: the Walsh coefficients of w_a * f are those of f at
m ^ a, so both build their kept coefficients by one gather at r ^ a and
one synthesis pruned to the hull of the kept rows (`_gather_synthesis`).
The forward map analyzes the stack once and keeps each column's level
blocks; the adjoint keeps their images under xor by the anchor, which
multiplies each projection by its anchor function, and gathers its
accumulator from bit-reversed cell order once, at the end.  Every anchor
column has one owner trial: the forward map gathers from that trial only,
and the adjoint adds each column of a (cells, C, ...) stack into that
trial's accumulator, in component order.  A single function is the
one-trial stack f[:, None] with every owner 0.  The lattice segment
transform pair is the same engine run with level 0, bit 0, added to the
left levels.

Maximal and oscillation functionals are dyadic throughout: suprema range over
the dyadic cells of levels 0..N only, which loses nothing because the
functions are cell-constant at level N.  Tree sweeps run bottom-up with
pairwise sums, so a sharp/maximal evaluation costs O(2**N * (N + S)).

Each functional is one kernel on a cells-first stack.  `sharp_maximal`,
`rms_maximal` and `square_function` run their kernel on one trial's
SeqFunction or DyadicFunction; the maximal function, which only the rms
kernel calls, has no one-trial function.  `sharp_maximal_stack` and
`square_function_stack` take a (cells, S, ...) stack, so a SeqFunction,
stored (S, cells), is passed transposed; `maximal_function_stack` and
`rms_maximal_stack` take a (cells, ...) stack.  Trailing axes carry trials
and lattice coordinates, each trailing column bitwise as if computed alone,
in any memory layout.  `block_sum_stack` runs the block-sum engine paired
one column to one trial: it turns a (cells, T) stack and (T, S) arrays of
anchors and level masks into the (cells, S, T) stack the sharp kernel
reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .intervals import Decomposition
from .walsh import (
    DyadicFunction,
    ResolutionError,
    _check_resolved,
    _synthesize_owned,
    analyze_values,
    bit_reversal,
    cell_sums,
    column_chunks,
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


def _levels_mask(levels: Iterable[int], resolution: int) -> int:
    """Bitmask of block levels, bit j for level j; a level above `resolution`
    or a negative level is refused."""
    mask = 0
    for j in levels:
        if j > resolution:
            raise ResolutionError(f"level {j} exceeds resolution {resolution}")
        if j < 0:
            raise ValueError(f"block level must be nonnegative, got {j}")
        mask |= 1 << j
    return mask


def _family_arrays(decomps: Sequence[Decomposition], resolution: int):
    """Anchors and left-level bitmasks of a decomposition family, as int
    arrays; an anchor or level the grid does not resolve is refused."""
    anchors = [dec.anchor for dec in decomps]
    _check_resolved(anchors, resolution, "n")
    masks = [_levels_mask(dec.left_levels, resolution) for dec in decomps]
    return np.array(anchors, dtype=np.intp), np.array(masks, dtype=np.intp)


def _mask_ranges(masks: np.ndarray, resolution: int):
    """(column, lo, hi) int arrays with one row per set bit j of masks[column]:
    [lo, hi) is the index block delta_block(j), [0, 1) for j = 0 and
    [2**(j-1), 2**j) above.  Rows run in column order, then level order."""
    column, level = np.nonzero(masks[:, None] >> np.arange(resolution + 1) & 1)
    hi = 1 << level
    return column, hi >> 1, hi


def _gather_synthesis(coeffs: np.ndarray, anchors, sources, column, lo, hi) -> np.ndarray:
    """Synthesize the coefficients gathered at r ^ a, in bit-reversed cell order.

    Column c of the (cells, len(anchors), ...) result keeps, at every row r
    of its ranges [lo, hi) (the rows of (column, lo, hi) int arrays), the
    coefficient coeffs[r ^ anchors[c], sources[c]], and +0.0 elsewhere; it
    is synthesized over the hull of the ranges, with row j holding cell
    bit_reversal(N)[j].
    """
    n = coeffs.shape[0]
    # one (column, range) row per kept range, each spread over its rows
    length = hi - lo
    rows = np.arange(length.sum()) + np.repeat(lo - (np.cumsum(length) - length), length)
    cols = np.repeat(column, length)
    kept = np.zeros((n, len(anchors), *coeffs.shape[2:]))
    kept[rows, cols] = coeffs[rows ^ anchors[cols], sources[cols]]
    return _synthesize_owned(kept, lo.min(initial=n), hi.max(initial=0))


def _block_sum_chunks(values: np.ndarray, anchors, masks, owners):
    """Yield (slice, (cells, s, ...) block sums) per budgeted chunk of anchors.

    `values` is a (cells, T, ...) stack of T trials, and column s sums the
    martingale differences of w_{a_s} times trial owners[s] over the levels
    set in masks[s]; trailing axes ride along.  `anchors`, `masks` and
    `owners` are int arrays, already checked against the grid (see
    `_family_arrays`).  A single function is the one-trial stack
    values[:, None] with every owner 0.

    The stack is analyzed once.  The coefficient of w_a * f at m is that of
    f at m ^ a, so each chunk gathers its kept level blocks from the
    owners' coefficients (`_gather_synthesis`).  That is bitwise
    modulate-then-analyze unless a column's first cell is -0.0, which can
    flip the sign of a zero; no campaign draw has one.
    """
    resolution = values.shape[0].bit_length() - 1
    coeffs = analyze_values(values)
    anchors, masks, owners = (np.asarray(x, dtype=np.intp) for x in (anchors, masks, owners))
    for sl in column_chunks(len(anchors), values[:, 0].size):
        column, lo, hi = _mask_ranges(masks[sl], resolution)
        sums = _gather_synthesis(coeffs, anchors[sl], owners[sl], column, lo, hi)
        yield sl, sums[bit_reversal(resolution)]


def block_sum_stack(values: np.ndarray, anchors, masks) -> np.ndarray:
    """(cells, S, T) block sums of a (cells, T) stack of scalar functions.

    Component s of trial t is the block sum of column t with anchor
    anchors[t, s] over the levels set in masks[t, s], both (T, S) int
    arrays; a zero mask gives a zero component, so a shorter family is
    padded with zero masks.  An anchor outside [0, 2**N) or a mask with a
    bit above N (or a negative mask) is refused with ResolutionError.
    """
    anchors, masks = np.asarray(anchors, dtype=np.intp), np.asarray(masks, dtype=np.intp)
    resolution = values.shape[0].bit_length() - 1
    if ((anchors < 0) | (anchors >> resolution != 0)).any():
        raise ResolutionError(f"an anchor is not resolved on a generation-{resolution} grid")
    if (masks >> (resolution + 1) != 0).any():
        raise ResolutionError(f"a level mask has a level outside 0..{resolution}")
    trials, count = anchors.shape
    owners = np.repeat(np.arange(trials), count)
    slots = np.tile(np.arange(count), trials)
    # components outermost in memory, so the sharp kernel reads each one whole
    out = np.zeros((count, *values.shape)).transpose(1, 0, 2)
    for sl, sums in _block_sum_chunks(values, anchors.ravel(), masks.ravel(), owners):
        out[:, slots[sl], owners[sl]] = sums
    return out


def _block_sums_adjoint(stacked: np.ndarray, anchors, masks, owners) -> np.ndarray:
    """Adjoint of `_block_sum_chunks` on a (cells, C, ...) stack of C columns.

    Column c belongs to trial owners[c] (non-decreasing).  Returns the
    (cells, T, ...) stack whose trial t sums, in column order, w_{a_c} times
    the block sums of its own columns c.  Within a chunk the k-th columns of
    all trials are added in one step, k = 0, 1, ...

    w_a times the projection of h onto a level block [lo, hi) has the
    coefficients of h moved by xor a: at r in the block's image
    [base, base + hi - lo), base = (a ^ lo) & ~(hi - lo - 1) ({a} for level
    0), it holds the coefficient of h at r ^ a.  So each chunk is analyzed
    and its moved blocks gathered and synthesized (`_gather_synthesis`), the
    forward map's gather with every column its own source.  Where bit h of a
    is set, the butterfly stage h meets each moved pair swapped and gives
    (x + y, -(x - y)): the value of w_a times the projection, but an exact
    zero may come out -0.0.  The accumulator starts at +0.0, and adding
    -0.0 to it leaves +0.0, so the sums have the bits of the multiply.
    The accumulator is in bit-reversed cell order and gathered once at the end.
    """
    n = stacked.shape[0]
    resolution = n.bit_length() - 1
    anchors, masks, owners = (np.asarray(x, dtype=np.intp) for x in (anchors, masks, owners))
    trials = int(owners[-1]) + 1 if owners.size else 1
    acc = np.zeros((n, trials, *stacked.shape[2:]))
    # rank of each column among the columns of its trial
    ranks = np.arange(owners.size) - np.searchsorted(owners, owners)
    for sl in column_chunks(len(anchors), stacked[:, 0].size):
        column, lo, hi = _mask_ranges(masks[sl], resolution)
        base = (anchors[sl][column] ^ lo) & ~(hi - lo - 1)
        sources = np.arange(sl.stop - sl.start)
        coeffs = analyze_values(stacked[:, sl])
        blocks = _gather_synthesis(coeffs, anchors[sl], sources, column, base, base + hi - lo)
        for rank in np.unique(ranks[sl]).tolist():
            cols = np.flatnonzero(ranks[sl] == rank)
            acc[:, owners[sl][cols]] += blocks[:, cols]
    return acc[bit_reversal(resolution)]


def block_sum(f: DyadicFunction, a: int, levels: Iterable[int]) -> DyadicFunction:
    """Sum over j in `levels` of the level-j martingale difference of w_a * f.

    Computed spectrally: the coefficient of w_a * f at m is that of f at
    m ^ a, so the kept blocks of the requested levels are gathered from the
    coefficients of f and synthesized.  Multiplying the result by w_a again
    gives the spectral projection of f onto the union of the translated
    blocks.
    """
    _check_resolved([a], f.resolution, "n")
    mask = _levels_mask(levels, f.resolution)
    ((_, sums),) = _block_sum_chunks(f.values[:, None], [a], [mask], [0])
    return DyadicFunction(f.resolution, sums[:, 0])


def block_sum_family(
    f: DyadicFunction, decomps: Sequence[Decomposition]
) -> SeqFunction:
    """One block sum per decomposition, using its anchor and left-piece levels.

    Every component integrates to zero since left levels are >= 1.
    """
    anchors, masks = _family_arrays(decomps, f.resolution)
    out = np.zeros((len(decomps), f.size))
    for sl, sums in _block_sum_chunks(f.values[:, None], anchors, masks, np.zeros_like(anchors)):
        out[sl] = sums.T
        del sums  # the last chunk must not stay alive while SeqFunction copies `out`
    return SeqFunction(f.resolution, out)


def _square_sum(stack: np.ndarray, count: int = 1) -> np.ndarray:
    """Sum over s of (stack[:, s] / count) ** 2 for a (cells, S, ...) stack.

    The bits are those numpy gives one trial's own (S, cells) array summed
    over axis 0.  Over two or more cells numpy adds the components in order
    s = 0, 1, ..., and so does this fold, one component at a time into one
    accumulator, which keeps a single component's terms alive.  Over a
    single cell numpy sums the components pairwise along a contiguous axis,
    which is redone here for every trailing column.
    """
    if stack.shape[0] == 1:
        terms = np.divide(np.moveaxis(stack, 1, -1), count, order="C")  # S last
        return np.square(terms, out=terms).sum(axis=-1)
    acc = np.divide(stack[:, 0], count)
    np.square(acc, out=acc)
    term = np.empty_like(acc)
    for s in range(1, stack.shape[1]):
        np.divide(stack[:, s], count, out=term)
        acc += np.square(term, out=term)
    return acc


def sharp_maximal_stack(stack: np.ndarray) -> np.ndarray:
    """Dyadic sharp function of a (cells, S, ...) stack; returns (cells, ...).

    At each point, the sup over the dyadic cells containing it of the rms
    oscillation about the cell mean, by the per-cell variance identity (mean
    of the squared norm minus the squared norm of the mean), one level of
    pairwise cell sums at a time.
    """
    n = stack.shape[0]
    best = np.zeros(stack.shape[:1] + stack.shape[2:])
    for sq, comp in zip(cell_sums(_square_sum(stack)), cell_sums(stack)):
        cells = sq.shape[0]
        count = n // cells
        osc2 = sq / count
        # a leaf cell's squared mean is its mean square, summed alike: reuse it
        osc2 -= sq if count == 1 else _square_sum(comp, count)
        np.maximum(osc2, 0.0, out=osc2)
        view = best.reshape(cells, count, *best.shape[1:])
        np.maximum(view, osc2[:, None], out=view)
    return np.sqrt(best, out=best)


def maximal_function_stack(stack: np.ndarray) -> np.ndarray:
    """Dyadic maximal function of a (cells, ...) stack: sup of cell averages of |f|."""
    n = stack.shape[0]
    best = np.zeros(stack.shape)
    for sums in cell_sums(np.abs(stack)):
        cells = sums.shape[0]
        view = best.reshape(cells, n // cells, *stack.shape[1:])
        np.maximum(view, (sums / (n // cells))[:, None], out=view)
    return best


def rms_maximal_stack(stack: np.ndarray) -> np.ndarray:
    """Root-mean-square maximal function of a (cells, ...) stack."""
    best = maximal_function_stack(np.square(stack))
    return np.sqrt(best, out=best)


def square_function_stack(stack: np.ndarray) -> np.ndarray:
    """Martingale square function over levels 1..N of a (cells, S, ...) stack,
    summed across components; returns (cells, ...).  The level-0 term (the
    mean) is excluded.

    The per-level sums over components are kept (2**k cells each) and added
    into the result in level order k = 1, 2, ..., N.
    """
    n = stack.shape[0]
    terms = []  # levels N .. 1
    fine = None
    for sums in cell_sums(stack):  # (2**k, S, ...), k = N .. 0
        means = sums / (n // sums.shape[0])
        if fine is not None:
            # each cell of the finer level less the mean of its parent cell
            fine[0::2] -= means
            fine[1::2] -= means
            terms.append(_square_sum(fine))
        fine = means
    acc = np.zeros(stack.shape[:1] + stack.shape[2:])
    for term in reversed(terms):
        cells = term.shape[0]
        view = acc.reshape(cells, n // cells, *acc.shape[1:])
        view += term[:, None]
    return np.sqrt(acc, out=acc)


def sharp_maximal(g: SeqFunction) -> DyadicFunction:
    """Dyadic sharp function: sup over cells of the rms oscillation about the cell mean."""
    return DyadicFunction(g.resolution, sharp_maximal_stack(g.values.T))


def rms_maximal(f: DyadicFunction) -> DyadicFunction:
    """Root-mean-square maximal function: sup of (cell average of f**2)**(1/2).

    Equals the maximal function of f**2 followed by a pointwise square root.
    """
    return DyadicFunction(f.resolution, rms_maximal_stack(f.values))


def square_function(g: SeqFunction) -> DyadicFunction:
    """Martingale square function over levels 1..N, summed across components.

    The level-0 term (the mean) is deliberately excluded.  The per-trial
    reference of `square_function_stack`, which
    tests/test_cell_sums.py::test_stack_kernels_match_each_trial pins
    against it bitwise, trial by trial.
    """
    return DyadicFunction(g.resolution, square_function_stack(g.values.T))
