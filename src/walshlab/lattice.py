"""Finite-dimensional lattice-valued analysis.

Values live in l^q(d): d coordinates with the coordinatewise order and the
q-norm (max for q = inf).  A lattice-valued grid function is a (2**N, d)
array of cell values.  On top of that this module provides

* the mixed norms: L^p of the lattice norm, and the L^p norm of a
  Rademacher sum (exact sign enumeration up to 20 components, seeded Monte
  Carlo beyond);
* the segment transform pair: component s of the forward map is the sum of
  martingale differences of w_{a_s} * f over the anchor level 0 and the
  left-piece levels of interval s, so that modulating back by w_{a_s}
  projects f onto the contiguous segment {a_s} u (left pieces); the adjoint
  recombines a component family with the same blocks and modulations, and the
  two are exact adjoints for the sign-averaged coordinatewise pairing;
* the Calderon-Zygmund splitting at a height lam: stop at the maximal dyadic
  cells whose average pointwise norm exceeds lam, replace the function by its
  mean on each stopping cell (good part h), and keep the remainder (bad part
  b).  Off the stopping cells |h| <= lam pointwise; on a stopping cell the
  parent average bounds the mean by 2*lam, so |h| <= 2*lam whenever the root
  is not selected, i.e. whenever lam >= the L^1 norm of the pointwise norms.
  The bad part has zero mean, its level-n martingale difference is supported
  on the stopping cells of level <= n-1, and the stopping cells have total
  measure at most (L^1 norm)/lam.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .intervals import Decomposition
from .walsh import (
    DyadicCell,
    ResolutionError,
    cell_sums,
    column_chunks,
    project_columns,
)
from .operators import _modulation_columns

EXACT_SIGN_LIMIT = 20
_SIGN_CHUNK = 1 << 12
_PAIRING_BUDGET = 1 << 16  # floats per sign-pairing array
_TINY = np.finfo(float).tiny  # smallest normal float


def lattice_norm(coords: np.ndarray, q: float, axis: int = -1) -> np.ndarray:
    """l^q norm along `axis` (max for q = inf)."""
    size = np.abs(np.asarray(coords, dtype=float))
    if q == np.inf:
        return size.max(axis=axis)
    if q < 1:
        raise ValueError(f"lattice exponent must be >= 1, got {q}")
    size **= q  # in place: the same powers as `size ** q`, with no temporary
    norms = size.sum(axis=axis)
    norms **= 1.0 / q
    return norms


def root_means(base: np.ndarray, p: float, exponent: float) -> np.ndarray:
    """mean(base ** exponent) ** (1/p) for each row of a nonnegative (rows, n) array.

    `exponent` is p for magnitudes and p/2 for sums of squares.  A row whose
    mean of powers overflows, or falls below the smallest normal float while
    the row is not all zero, is redone as M * mean((x / M) ** p) ** (1/p) with
    x = base ** (exponent/p) and M = max x; every other row keeps the bits of
    the plain formula, whose mean along the contiguous last axis sums each row
    as the mean of that row alone would.
    """
    with np.errstate(over="ignore"):  # overflowed rows are redone below
        means = np.mean(base**exponent, axis=-1)
    roots = np.array([m ** (1.0 / p) for m in means])
    for k in np.flatnonzero(np.isinf(means) | (means < _TINY)):
        x = base[k] ** (exponent / p)
        top = x.max()
        if 0 < top < np.inf:
            roots[k] = top * np.mean((x / top) ** p) ** (1.0 / p)
    return roots


@dataclass(frozen=True, eq=False)
class LatticeFunction:
    """l^q(d)-valued function, constant on the cells of generation `resolution`."""

    resolution: int
    values: np.ndarray  # shape (2**resolution, d)
    q: float

    def __post_init__(self) -> None:
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != (1 << self.resolution):
            raise ValueError(
                f"expected shape ({1 << self.resolution}, d), got {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    def norm_values(self) -> np.ndarray:
        """Pointwise lattice norms, one per cell."""
        return lattice_norm(self.values, self.q, axis=1)

    def _check_compatible(self, other: "LatticeFunction") -> None:
        if self.resolution != other.resolution:
            raise ResolutionError(
                f"resolution mismatch: {self.resolution} vs {other.resolution}"
            )
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")


def lp_x_norm(f: LatticeFunction, p: float) -> float:
    """L^p norm of the pointwise lattice norm (cell max for p = inf)."""
    norms = f.norm_values()
    if p == np.inf:
        return float(norms.max())
    if p < 1:
        raise ValueError(f"exponent must be >= 1, got {p}")
    return float(root_means(norms[None], p, p)[0])


def _exact_sign_block(count: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the exact sign matrix: entry s of row k is -1 iff
    bit s of k is set."""
    rows = np.arange(start, stop, dtype=np.int64)
    signs = 1.0 - 2.0 * ((rows[:, None] >> np.arange(count)) & 1)
    signs.setflags(write=False)
    return signs


_cached_sign_block = lru_cache(maxsize=8)(_exact_sign_block)


def _mc_samples(mode: str) -> int | None:
    """Sample count of a sign mode: None for 'exact', k for 'mc:<k>' with k >= 1."""
    if mode == "exact":
        return None
    try:
        samples = int(mode.split(":", 1)[1]) if mode.startswith("mc:") else 0
    except ValueError:
        samples = 0
    if samples < 1:
        raise ValueError(
            f"Rademacher sign mode {mode!r} is neither 'exact' nor 'mc:<samples>' "
            "with at least one sample"
        )
    return samples


def _sign_chunks(count, mode, seed, row_values, reduce, rows=_SIGN_CHUNK):
    """Per-chunk results over the sign vectors of `mode`, and the row count.

    The sign rows (the full hypercube or one seeded sample) are cut into
    chunks of `rows` rows, a power of two.  `row_values` maps a (K, count)
    block of sign rows to results with one leading entry per row, and
    `reduce` maps the row results of one whole chunk, C-contiguous and in
    row order, to that chunk's entry of the returned list.

    Exact mode evaluates only half of the 2**count rows.  Row 2**count-1-k
    is the negation of row k, and `row_values` must give a row and its
    negation bitwise-equal results, so chunk C-1-c is chunk c reversed, and
    a lone chunk ends with its first half reversed.  Exact rows are built
    per chunk from their indices; the whole sign matrix is never held.
    """
    samples = _mc_samples(mode)
    if samples is not None:
        draws = np.random.default_rng(seed).integers(0, 2, size=(samples, count))
        signs = 1.0 - 2.0 * draws.astype(float)
        partials = [
            reduce(row_values(signs[start : start + rows]))
            for start in range(0, samples, rows)
        ]
        return partials, samples
    if count > EXACT_SIGN_LIMIT:
        raise ValueError(
            f"exact signs support a component count of at most "
            f"{EXACT_SIGN_LIMIT}, got {count}; use an mc:<samples> mode"
        )
    total = 1 << count
    if total <= rows:
        half = row_values(_cached_sign_block(count, 0, total // 2))
        return [reduce(np.concatenate([half, half[::-1]]))], total
    chunks = total // rows
    partials = [None] * chunks
    for c in range(chunks // 2):
        vals = row_values(_exact_sign_block(count, c * rows, (c + 1) * rows))
        partials[c] = reduce(vals)
        partials[chunks - 1 - c] = reduce(np.ascontiguousarray(vals[::-1]))
    return partials, total


def _stacked(components: Sequence[LatticeFunction]) -> np.ndarray:
    if not components:
        raise ValueError("need at least one component")
    first = components[0]
    for g in components[1:]:
        first._check_compatible(g)
        if g.q != first.q:
            raise ValueError("components carry different lattice exponents")
    return np.stack([g.values for g in components])  # (S, cells, d)


def rad_norm_values(
    components: Sequence[LatticeFunction],
    p: float,
    mode: str = "exact",
    seed=None,
) -> np.ndarray:
    """Per-cell L^p Rademacher-average norms of a component family.

    Sign enumeration is chunked so exact mode stays memory-safe up to the
    component limit; the p-th powers add up one chunk at a time, in row order.
    A cell whose mean of powers overflows, or falls below the smallest normal
    float while its components are not all zero, is redone over the same sign
    rows as M * mean((norm / M) ** p) ** (1/p), with M its largest norm; every
    other cell keeps its bits.
    """
    if not (np.isfinite(p) and p >= 1):
        raise ValueError(f"exponent p must be finite and >= 1, got {p}")
    stacked = _stacked(components)
    q = components[0].q
    if seed is None and _mc_samples(mode) is not None:
        seed = np.random.SeedSequence().entropy  # one sample for every pass

    def over_signs(part, finish, reduce):
        """`_sign_chunks` of `finish(norms)` at the cells of a component stack."""

        def row_values(signs):
            return finish(lattice_norm(np.einsum("ks,scd->kcd", signs, part), q, axis=2))

        return _sign_chunks(part.shape[0], mode, seed, row_values, reduce)

    def mean_powers(part, scale=None):
        def powers(norms):
            if scale is not None:
                norms /= scale
            norms **= p
            return norms

        partials, total = over_signs(part, powers, lambda vals: vals.sum(axis=0))
        acc = np.zeros(part.shape[1])
        for partial in partials:
            acc += partial
        return acc / total

    with np.errstate(over="ignore"):  # overflowed cells are redone below
        means = mean_powers(stacked)
    out = means ** (1.0 / p)
    redo = np.flatnonzero(np.isinf(means) | (means < _TINY))
    redo = redo[stacked[:, redo].any(axis=(0, 2))]  # all-zero cells stay 0
    if redo.size:
        part = stacked[:, redo]
        partials, _ = over_signs(part, lambda norms: norms, lambda vals: vals.max(axis=0))
        top = np.maximum.reduce(partials)
        keep = (0 < top) & (top < np.inf)  # a Monte Carlo sample can cancel every sum
        out[redo[keep]] = top[keep] * mean_powers(part[:, keep], top[keep]) ** (1.0 / p)
    return out


def lp_radx_norm(
    components: Sequence[LatticeFunction],
    p: float,
    mode: str = "exact",
    seed=None,
) -> float:
    """L^p norm in x of the cellwise Rademacher-average norm."""
    cell_norms = rad_norm_values(components, p, mode, seed)
    return float(root_means(cell_norms[None], p, p)[0])


def _sign_averaged_pairing(
    left: Sequence[LatticeFunction], right: Sequence[LatticeFunction]
) -> float:
    """Average over all exact signs e of the pairing of sum_s e_s left_s with
    sum_s e_s right_s.

    Each sign row's pairing is a Python float, folded in row order.
    """
    a, b = _stacked(left), _stacked(right)  # (S, cells, d) each

    def pairings(signs):
        asum = np.zeros(signs.shape[:1] + a.shape[1:])
        bsum = np.zeros_like(asum)
        for s in range(a.shape[0]):
            col = signs[:, s, None, None]
            asum += col * a[s]
            bsum += col * b[s]
        return (asum * bsum).sum(axis=2).mean(axis=1)

    # the largest power of two of rows whose (rows, cells, d) arrays fit the budget
    fit = min(_SIGN_CHUNK, max(1, _PAIRING_BUDGET // a[0].size))
    rows = 1 << (fit.bit_length() - 1)
    partials, total = _sign_chunks(
        a.shape[0], "exact", None, pairings, lambda vals: vals, rows
    )
    acc = 0.0
    for part in partials:
        for value in part.tolist():
            acc += value
    return acc / total


def duality_pairing(f: LatticeFunction, g: LatticeFunction) -> float:
    """Integral over [0,1) of the coordinatewise dot product."""
    f._check_compatible(g)
    return float((f.values * g.values).sum(axis=1).mean())


def _segment_columns(decomps: Sequence[Decomposition], resolution: int, ndim: int):
    """Anchor functions and kept index ranges of a chunk of decompositions.

    The anchor functions are shaped (cells, s, 1, ...) with `ndim` axes, to
    broadcast over a stack of components; the ranges keep level 0 plus each
    decomposition's left-piece levels.
    """
    w, ranges = _modulation_columns(
        [d.anchor for d in decomps], [d.left_levels for d in decomps], resolution
    )
    return w.reshape(w.shape + (1,) * (ndim - 2)), [[(0, 1)] + r for r in ranges]


def segment_transform(
    f: LatticeFunction, decomps: Sequence[Decomposition]
) -> list[LatticeFunction]:
    """Forward transform: one component per interval.

    Component s collects the martingale differences of w_{a_s} * f over the
    anchor level 0 and the left-piece levels; multiplied back by w_{a_s} it
    is the spectral projection of f onto the segment {a_s} u (left pieces).
    """
    out = []
    for sl in column_chunks(len(decomps), f.values.size):
        w, ranges = _segment_columns(decomps[sl], f.resolution, 3)
        (comps,) = project_columns(w * f.values[:, None, :], [ranges])
        out.extend(
            LatticeFunction(f.resolution, comps[:, s], f.q) for s in range(comps.shape[1])
        )
    return out


def _adjoint_of_stack(
    stacked: np.ndarray, decomps: Sequence[Decomposition], resolution: int
) -> np.ndarray:
    """Adjoint transform of a (cells, S, ...) component stack; returns (cells, ...).

    Trailing axes are transformed independently, so several families can be
    recombined in one pass; the terms add up in component order.
    """
    acc = np.zeros(stacked.shape[:1] + stacked.shape[2:])
    for sl in column_chunks(len(decomps), acc.size):
        w, ranges = _segment_columns(decomps[sl], resolution, stacked.ndim)
        (blocks,) = project_columns(stacked[:, sl], [ranges])
        for s in range(blocks.shape[1]):
            acc = acc + w[:, s] * blocks[:, s]
    return acc


def segment_transform_adjoint(
    components: Sequence[LatticeFunction], decomps: Sequence[Decomposition]
) -> LatticeFunction:
    """Adjoint transform: recombine one component per interval.

    Sums w_{a_s} times the same block-restricted martingale differences of
    component s.  Exact adjoint of `segment_transform` for the sign-averaged
    coordinatewise pairing.
    """
    if len(components) != len(decomps):
        raise ValueError(
            f"{len(components)} components for {len(decomps)} decompositions"
        )
    first = components[0]
    for g in components[1:]:
        first._check_compatible(g)
    stacked = np.stack([g.values for g in components], axis=1)
    return LatticeFunction(
        first.resolution, _adjoint_of_stack(stacked, decomps, first.resolution), first.q
    )


# ---------------------------------------------------------------------------
# Calderon-Zygmund splitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CZResult:
    """Splitting g = b + h at height lam with its stopping cells."""

    b: LatticeFunction
    h: LatticeFunction
    cells: tuple[DyadicCell, ...]
    lam: float

    def bad_set_mask(self, max_level: int | None = None) -> np.ndarray:
        """Grid mask of the union of stopping cells (of level <= max_level)."""
        return cells_mask(
            (c for c in self.cells if max_level is None or c.level <= max_level),
            self.b.resolution,
        )


def cells_mask(cells: Iterable[DyadicCell], resolution: int) -> np.ndarray:
    """Grid mask of the union of the given dyadic cells."""
    mask = np.zeros(1 << resolution, dtype=bool)
    for cell in cells:
        mask[cell.grid_slice(resolution)] = True
    return mask


def stopping_cells(leaf_norms: np.ndarray, lam: float) -> list[DyadicCell]:
    """Maximal dyadic cells whose average of `leaf_norms` exceeds lam.

    Top-down sweep; a cell is selected iff its average is strictly above lam
    and no ancestor was selected.
    """
    if not lam > 0:
        raise ValueError(f"threshold must be positive, got {lam}")
    sums = list(cell_sums(leaf_norms))[::-1]  # sums[m] holds the level-m cell sums
    resolution = len(sums) - 1
    cells: list[DyadicCell] = []
    covered = np.zeros(1, dtype=bool)
    for m in range(resolution + 1):
        count = 1 << (resolution - m)
        selected = (sums[m] / count > lam) & ~covered
        cells.extend(DyadicCell(m, int(pos)) for pos in np.flatnonzero(selected))
        covered |= selected
        if m < resolution:
            covered = np.repeat(covered, 2)
    return cells


def split_at_cells(
    values: np.ndarray, cells: Sequence[DyadicCell], resolution: int
):
    """Good/bad split of raw cell values over the given stopping cells."""
    good = values.copy()
    for cell in cells:
        sl = cell.grid_slice(resolution)
        good[sl] = values[sl].mean(axis=0)
    return values - good, good


def cz_decompose(g: LatticeFunction, lam: float) -> CZResult:
    """Calderon-Zygmund splitting of a lattice-valued grid function.

    Stops at the maximal dyadic cells where the average pointwise norm
    exceeds lam; h freezes g to its mean on each stopping cell, b = g - h.
    """
    cells = stopping_cells(g.norm_values(), lam)
    bad, good = split_at_cells(g.values, cells, g.resolution)
    return CZResult(
        b=LatticeFunction(g.resolution, bad, g.q),
        h=LatticeFunction(g.resolution, good, g.q),
        cells=tuple(cells),
        lam=float(lam),
    )


def verify_cz(result: CZResult, g: LatticeFunction, tol: float = 1e-10) -> dict:
    """Check every invariant of a splitting; returns a report, never raises.

    The pointwise bound on h is 2*lam when the root is not a stopping cell
    and degrades to the L^1 norm of g when it is (the mean of g is then the
    only admissible good part).
    """
    n = 1 << g.resolution
    norms = g.norm_values()
    l1 = float(norms.mean())
    root_selected = any(c.level == 0 for c in result.cells)
    h_bound = l1 + tol if root_selected else 2.0 * result.lam + tol

    checks = {}
    checks["sum"] = float(
        np.abs(result.b.values + result.h.values - g.values).max()
    ) <= tol
    checks["h_inf"] = float(result.h.norm_values().max()) <= h_bound
    checks["h_l1"] = float(result.h.norm_values().mean()) <= l1 + tol
    checks["b_mean_zero"] = float(np.abs(result.b.values.mean(axis=0)).max()) <= tol

    sums = list(cell_sums(result.b.values))[::-1]  # level-m cell sums, (2**m, d)
    support_ok = True
    for level in range(1, g.resolution + 1):
        fine = sums[level] / (n >> level)
        coarse = sums[level - 1] / (n >> (level - 1))
        diff = np.repeat(fine - np.repeat(coarse, 2, axis=0), n >> level, axis=0)
        off = ~result.bad_set_mask(max_level=level - 1)
        if off.any() and float(np.abs(diff[off]).max()) > tol:
            support_ok = False
            break
    checks["diff_support"] = support_ok

    bad_set = result.bad_set_mask()
    measure = float(bad_set.mean())
    checks["bad_set_measure"] = measure <= l1 / result.lam + tol
    # the union covers the sum of the cell widths iff no two cells overlap
    widths = sum(n >> cell.level for cell in result.cells)
    checks["cells_disjoint"] = int(bad_set.sum()) == widths

    return {
        "passed": all(checks.values()),
        "checks": checks,
        "lam": result.lam,
        "l1_norm": l1,
        "root_selected": root_selected,
        "stopping_cells": len(result.cells),
        "bad_set_measure": measure,
    }
