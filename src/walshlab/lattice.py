"""Finite-dimensional lattice-valued analysis.

Values live in l^q(d): d coordinates with the coordinatewise order and the
q-norm (max for q = inf).  A lattice-valued grid function is a (2**N, d)
array of cell values.  On top of that this module provides

* the mixed norms, cell by cell: the lattice norm (`lattice_norm`), and
  the L^p norm of a Rademacher sum (exact sign enumeration up to 20
  components, seeded Monte Carlo beyond); `root_means` over the cells
  turns either into an L^p norm in x.  Exact sign sums are built by
  doubling, and every lattice norm adds its coordinates in the order of
  numpy's sum along a contiguous axis, whatever the memory layout.  The
  Rademacher norm is one kernel on an (S, cells, d) stack in any layout
  (`rad_norm_stack`), and `rad_norm_values` runs it on one family;
* the segment transform pair: component s of the forward map is the sum of
  martingale differences of w_{a_s} * f over the anchor level 0 and the
  left-piece levels of interval s, so that modulating back by w_{a_s}
  projects f onto the contiguous segment {a_s} u (left pieces); the adjoint
  recombines a component family with the same blocks and modulations, and the
  two are exact adjoints for the sign-averaged coordinatewise pairing; both
  run on the block-sum engine of `operators`, with one owner trial per
  column of a (cells, T*S, ...) stack of T families, and one family is the
  one-trial stack;
* the Calderon-Zygmund splitting at a height lam: stop at the maximal dyadic
  cells whose average pointwise norm exceeds lam, replace the function by its
  mean on each stopping cell (good part h), and keep the remainder (bad part
  b).  Off the stopping cells |h| <= lam pointwise; on a stopping cell the
  parent average bounds the mean by 2*lam, so |h| <= 2*lam whenever the root
  is not selected, i.e. whenever lam >= the L^1 norm of the pointwise norms.
  The bad part has zero mean, its level-n martingale difference is supported
  on the stopping cells of level <= n-1, and the stopping cells have total
  measure at most (L^1 norm)/lam.  `_stopping_masks` selects the stopping
  cells of many heights and trials from one cell-sum pyramid, and
  `_good_parts` freezes a (cells, T, S, d) stack of families on them at
  every height at once, (cells, T, S, H, d); `stopping_cells` and
  `split_at_cells` run them on one family and one height.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .intervals import Decomposition
from .operators import _block_sum_chunks, _block_sums_adjoint, _family_arrays
from .walsh import DyadicCell, ResolutionError, cell_sums

EXACT_SIGN_LIMIT = 20
# Largest Monte Carlo sign sample: the draws are made a chunk at a time, so
# the cap bounds the run time, not the memory.
MC_SAMPLE_LIMIT = 10**9
_SIGN_CHUNK = 1 << 12
_PAIRING_BUDGET = 1 << 16  # floats per sign-pairing array
_SIGN_SUM_BUDGET = 1 << 20  # floats per (d, rows, cells) block of signed sums
_TINY = np.finfo(float).tiny  # smallest normal float


def _fold(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = x[0] + ... + x[n-1] over the leading axis of x, which it overwrites.

    The terms are added in the order of numpy's sum along a contiguous axis
    of length n: below 8 terms in sequence; from 8 to 128, eight
    accumulators take every eighth term, are combined as
    ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)), and the remaining
    terms follow in sequence; above 128 the axis is split at half its
    length, rounded down to a multiple of 8, and the two sums are added.
    Each ufunc call adds whole slices, so every entry sums on its own, in
    any memory layout.
    """
    n = len(x)
    if n > 128:
        half = n // 2 - n // 2 % 8
        _fold(x[half:], x[half])
        _fold(x[:half], out)
        out += x[half]
        return out
    if n < 8:
        if n == 1:
            np.copyto(out, x[0])
        else:
            np.add(x[0], x[1], out=out)
        rest = range(2, n)
    else:
        top = n - n % 8
        for i in range(8, top, 8):
            x[:8] += x[i : i + 8]
        x[0:8:2] += x[1:8:2]
        x[0:8:4] += x[2:8:4]
        np.add(x[0], x[4], out=out)
        rest = range(top, n)
    for i in rest:
        out += x[i]
    return out


def _fold_norms(size: np.ndarray, q: float, out: np.ndarray, coords) -> None:
    """Write the l^q norms along the leading axis of `size` into `out`.

    `size` holds the absolute coordinates, (d, ...), and is overwritten;
    `out` has its trailing shape, in any layout.  `coords()` gives the
    coordinates again for the rare cells that `lattice_norm` redoes.
    """
    if q == np.inf:
        np.max(size, axis=0, out=out)
        return
    with np.errstate(over="ignore"):  # overflowed cells are redone below
        size **= q  # in place: the same powers as `size ** q`, with no temporary
        _fold(size, out)
    redo = None
    if out.size and not (_TINY <= out.min() and out.max() < np.inf):
        redo = np.flatnonzero(~(out >= _TINY) | (out == np.inf))
    out **= 1.0 / q
    if redo is not None:
        rows = coords().reshape(len(size), -1)[:, redo].T
        x = np.abs(rows, order="C")  # (cells, d): each cell sums along a contiguous row
        top = x.max(axis=1)
        keep = (0 < top) & (top < np.inf)  # zero cells stay 0, NaN and inf stay
        x = x[keep] / top[keep, None]
        x **= q
        out.flat[redo[keep]] = top[keep] * x.sum(axis=1) ** (1.0 / q)


def lattice_norm(coords: np.ndarray, q: float, axis: int = -1) -> np.ndarray:
    """l^q norm along `axis` (max for q = inf).

    The q-th powers add up as numpy's sum along a contiguous axis adds them
    (`_fold`), which is `sum(axis=axis)` wherever `axis` is contiguous in
    memory or shorter than 8.  A cell whose sum of q-th powers overflows,
    or falls below the smallest normal float while its coordinates are not
    all zero, is redone as M * sum((|x| / M) ** q) ** (1/q) with M its
    largest |coordinate|; every other cell keeps the bits of the plain
    formula.
    """
    coords = np.asarray(coords, dtype=float)
    if not q >= 1:  # refuses NaN too
        raise ValueError(f"lattice exponent must be >= 1, got {q}")
    moved = np.moveaxis(coords, axis, 0)
    dim = len(moved)
    norms = np.empty(moved.shape[1:])
    size = np.abs(moved, order="C").reshape(dim, -1)  # coordinate-major
    _fold_norms(size, q, norms.reshape(-1), lambda: moved.reshape(dim, -1))
    return norms[()]


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


def _exact_sign_block(count: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the exact sign matrix: entry s of row k is -1 iff
    bit s of k is set."""
    rows = np.arange(start, stop, dtype=np.int64)
    return 1.0 - 2.0 * ((rows[:, None] >> np.arange(count)) & 1)


def _exact_sign_sums(part: np.ndarray, rows: range, out=None) -> np.ndarray:
    """Signed sums sum_s e_s part[s] over a range of exact sign rows.

    `part` is an (S, m, ...) stack and the result an (m, len(rows), ...)
    array, written into `out` if given.  The range is a power-of-two block
    of rows that starts at a multiple of its length, so its rows share
    every sign bit from b = log2(len(rows)) up.  Doubling builds them from
    one row of +0.0: for each low bit s < b, the rows made so far, minus
    part[s], become the next rows, and then part[s] is added to the rows
    made so far; each shared bit s >= b then adds +-part[s] to every row
    (entry s of row k is -1 iff bit s of k is set).  So every row sums
    ((0 + e_0 part[0]) + e_1 part[1]) + ... left to right in s, and as
    x - y is x + (-y) in IEEE arithmetic, it gets the bits of the same sum
    made one component at a time.  A Gray-code walk, which flips one sign
    per row, would reorder the sum and change the bits.
    """
    sums = np.empty((part.shape[1], len(rows)) + part.shape[2:]) if out is None else out
    sums[:, :1] = 0.0
    low = len(rows).bit_length() - 1
    for s in range(part.shape[0]):
        term = part[s][:, None]
        if s < low:
            made = 1 << s
            np.subtract(sums[:, :made], term, out=sums[:, made : 2 * made])
            sums[:, :made] += term
        elif rows.start >> s & 1:
            sums -= term
        else:
            sums += term
    return sums


def _mc_samples(mode: str) -> int | None:
    """Sample count of a sign mode: None for 'exact', k for 'mc:<k>' with
    1 <= k <= MC_SAMPLE_LIMIT."""
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
    if samples > MC_SAMPLE_LIMIT:
        raise ValueError(
            f"Rademacher sign mode {mode!r} asks for {samples} samples, more than "
            f"the limit of {MC_SAMPLE_LIMIT}"
        )
    return samples


def _sign_chunks(count, mode, seed, row_values, reduce, rows=_SIGN_CHUNK):
    """Per-chunk results over the sign vectors of `mode`, and the row count.

    The sign rows (the full hypercube or one seeded sample) are cut into
    chunks of `rows` rows, a power of two; a sample is drawn one chunk at a
    time, which gives the rows of one draw of the whole sample, in order, and
    holds one chunk of draws at a time.  `row_values(block, spare=0)` maps a
    block of K sign rows, a (K, count) array of drawn signs or the range of
    K exact row indices, to an array whose first K entries along the
    leading axis are the rows' results, followed by `spare` entries for the
    caller to fill.  `reduce` maps the row results of one whole chunk, in
    row order, to that chunk's entry of the returned list.

    Exact mode evaluates only half of the 2**count rows.  Row 2**count-1-k
    is the negation of row k, and `row_values` must give a row and its
    negation bitwise-equal results, so chunk C-1-c is chunk c reversed, and
    a lone chunk asks for its first half with room for the second, which
    it fills with the first half reversed.  Every exact block is a power of
    two of rows starting at a multiple of its length; the sign matrix is
    never built.
    """
    samples = _mc_samples(mode)
    if samples is not None:
        rng = np.random.default_rng(seed)
        partials = []
        for start in range(0, samples, rows):
            draws = rng.integers(0, 2, size=(min(rows, samples - start), count))
            partials.append(reduce(row_values(1.0 - 2.0 * draws.astype(float))))
        return partials, samples
    if count > EXACT_SIGN_LIMIT:
        raise ValueError(
            f"exact signs support a component count of at most "
            f"{EXACT_SIGN_LIMIT}, got {count}; use an mc:<samples> mode"
        )
    total = 1 << count
    if total <= rows:
        half = total // 2
        vals = row_values(range(half), half)
        vals[half:] = vals[half - 1 :: -1]
        return [reduce(vals)], total
    chunks = total // rows
    partials = [None] * chunks
    for c in range(chunks // 2):
        vals = row_values(range(c * rows, (c + 1) * rows))
        partials[c] = reduce(vals)
        partials[chunks - 1 - c] = reduce(vals[::-1])
    return partials, total


def _stacked(components: Sequence[LatticeFunction]) -> np.ndarray:
    if not components:
        raise ValueError("need at least one component")
    first = components[0]
    if not first.q >= 1:  # before the comparison below: nan != nan
        raise ValueError(f"lattice exponent must be >= 1, got {first.q}")
    for g in components[1:]:
        first._check_compatible(g)
        if g.q != first.q:
            raise ValueError("components carry different lattice exponents")
    return np.stack([g.values for g in components])  # (S, cells, d)


def rad_norm_stack(stacked: np.ndarray, q: float, p: float, mode: str, seed) -> np.ndarray:
    """Per-cell L^p Rademacher-average l^q norms of an (S, cells, d) stack of
    components, in any memory layout; the kernel of `rad_norm_values`.

    Sign enumeration is chunked so exact mode stays memory-safe up to the
    component limit.  A block of sign rows is summed into a coordinate-major
    (d, rows, cells) buffer, by doubling for exact rows (`_exact_sign_sums`)
    and by `einsum` for drawn rows and for components of a single float,
    where `einsum` sums in another order.  The buffer's absolute values are
    raised to q in place and its coordinates folded in numpy's order
    (`_fold`), into the block's rows of one (rows, cells) buffer of norms.
    Once a block's sums would exceed `_SIGN_SUM_BUDGET` floats it is cut
    into power-of-two blocks of rows, and below one row into blocks of
    cells; a norm depends on no other row or cell, so the bits stay.  The
    p-th powers add up one chunk at a time, in row order.
    A cell whose mean of powers overflows, or falls below the smallest normal
    float while its components are not all zero, is redone over the same sign
    rows as M * mean((norm / M) ** p) ** (1/p), with M its largest norm; every
    other cell keeps its bits.  `q` and `p` are taken as checked.
    """
    if seed is None and _mc_samples(mode) is not None:
        seed = np.random.SeedSequence().entropy  # one sample for every pass

    def over_signs(part, finish, reduce):
        """`_sign_chunks` of the norms at the cells of a component stack, after
        `finish` has worked on them in place."""
        count, cells, dim = part.shape
        coords = np.ascontiguousarray(part.transpose(0, 2, 1))  # (S, d, cells)
        width = min(cells, max(1, _SIGN_SUM_BUDGET // dim))
        fit = max(1, _SIGN_SUM_BUDGET // (dim * width))
        step = 1 << (fit.bit_length() - 1)  # keeps exact blocks aligned

        def signed_sums(rows, cols, out=None):  # (d, K, width) sums of a block of rows
            if isinstance(rows, range) and cells * dim > 1:
                return _exact_sign_sums(coords[:, :, cols], rows, out)
            if isinstance(rows, range):
                rows = _exact_sign_block(count, rows.start, rows.stop)
            return np.einsum("ks,sdc->dkc", rows, coords[:, :, cols])

        def row_values(block, spare=0):
            norms = np.empty((len(block) + spare, cells))
            for lo in range(0, len(block), step):
                for c in range(0, cells, width):
                    rows, cols = block[lo : lo + step], slice(c, c + width)
                    target = norms[lo : lo + len(rows), cols]
                    # at d = 1 exact sums are made in place of their norms
                    size = signed_sums(rows, cols, target[None] if dim == 1 else None)
                    np.abs(size, out=size)
                    _fold_norms(size, q, target, lambda: signed_sums(rows, cols))
            finish(norms[: len(block)])
            return norms

        return _sign_chunks(count, mode, seed, row_values, reduce)

    def mean_powers(part, scale=None):
        def powers(norms):
            if scale is not None:
                norms /= scale
            norms **= p

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
        partials, _ = over_signs(part, lambda norms: None, lambda vals: vals.max(axis=0))
        top = np.maximum.reduce(partials)
        keep = (0 < top) & (top < np.inf)  # a Monte Carlo sample can cancel every sum
        out[redo[keep]] = top[keep] * mean_powers(part[:, keep], top[keep]) ** (1.0 / p)
    return out


def rad_norm_values(
    components: Sequence[LatticeFunction],
    p: float,
    mode: str = "exact",
    seed=None,
) -> np.ndarray:
    """Per-cell L^p Rademacher-average norms of a component family: `p` and
    the components are checked, then stacked for `rad_norm_stack`.

    The per-trial reference of `rad_norm_stack`: tests/test_signs.py
    (`assert_kernel_on_views`, e.g. in
    test_rad_norm_values_fold_coordinates_and_redo_cells) pins the kernel
    bitwise against it on the strided views of chunk stacks that `vector`
    and `weak11` pass it.
    """
    if not (np.isfinite(p) and p >= 1):
        raise ValueError(f"exponent p must be finite and >= 1, got {p}")
    return rad_norm_stack(_stacked(components), components[0].q, p, mode, seed)


def _pairings(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Integral over [0,1) of the coordinatewise dot product of f and g, for
    (..., cells, d) stacks.  The product is laid out in C order, so both
    reductions run along contiguous rows and every leading entry gets the
    bits of its own pair alone, whatever the layout of f and g."""
    return np.multiply(f, g, order="C").sum(axis=-1).mean(axis=-1)


def _sign_averaged_pairings(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Average over all exact signs e of the pairing of sum_s e_s left_s with
    sum_s e_s right_s, for each trial of two (S, T, cells, d) stacks.

    Each trial folds its sign rows' pairings in row order.
    """
    count, trials = left.shape[:2]

    def pairings(rows, spare=0):  # (rows, T) pairings of a block of exact sign rows
        out = np.empty((len(rows) + spare, trials))
        lsum = _exact_sign_sums(left, rows)  # (T, rows, cells, d)
        rsum = _exact_sign_sums(right, rows)
        out[: len(rows)] = _pairings(lsum, rsum).T
        return out

    # the largest power of two of rows whose (rows, T, cells, d) arrays fit the budget
    fit = min(_SIGN_CHUNK, max(1, _PAIRING_BUDGET // left[0].size))
    rows = 1 << (fit.bit_length() - 1)
    partials, total = _sign_chunks(count, "exact", None, pairings, lambda vals: vals, rows)
    acc = np.zeros(trials)
    for part in partials:
        for values in part:
            acc += values
    return acc / total


def duality_pairing(f: LatticeFunction, g: LatticeFunction) -> float:
    """Integral over [0,1) of the coordinatewise dot product.

    The per-trial reference of `_pairings`, which `adjoint` runs on its
    chunk stacks: tests/test_batched.py::test_adjoint_matches_per_trial
    takes each trial's pairing from this function, and the reports must
    agree byte for byte.
    """
    f._check_compatible(g)
    return float(_pairings(f.values, g.values))


def _segment_columns(values: np.ndarray, anchors, masks, owners) -> np.ndarray:
    """Forward transform of a (cells, T, ...) stack of T trials: (cells, S,
    ...), column s transforming trial owners[s] with anchor anchors[s] over
    level 0 and the left levels set in masks[s] (int arrays)."""
    out = np.empty((values.shape[0], len(anchors), *values.shape[2:]))
    for sl, comps in _block_sum_chunks(values, anchors, masks | 1, owners):
        out[:, sl] = comps
    return out


def segment_transform(
    f: LatticeFunction, decomps: Sequence[Decomposition]
) -> list[LatticeFunction]:
    """Forward transform: one component per interval.

    Component s collects the martingale differences of w_{a_s} * f over the
    anchor level 0 and the left-piece levels; multiplied back by w_{a_s} it
    is the spectral projection of f onto the segment {a_s} u (left pieces).
    The per-trial reference of `_segment_columns`, which
    tests/test_batched.py::test_segment_fronts_match_per_interval_reference
    pins against it bitwise on a stack of several trials.
    """
    anchors, masks = _family_arrays(decomps, f.resolution)
    comps = _segment_columns(f.values[:, None], anchors, masks, np.zeros_like(anchors))
    return [LatticeFunction(f.resolution, comps[:, s], f.q) for s in range(len(decomps))]


def _adjoint_of_stack(stacked: np.ndarray, anchors, masks, owners) -> np.ndarray:
    """Adjoint transform of a (cells, S, ...) component stack; returns the
    (cells, T, ...) stack of the trials' own sums.

    Column s belongs to trial owners[s] (non-decreasing) and has anchor
    anchors[s] and left levels masks[s] (int arrays); each trial's terms add
    up in component order.  Trailing axes are transformed independently, so
    several families can be recombined in one pass.
    """
    return _block_sums_adjoint(stacked, anchors, masks | 1, owners)


def segment_transform_adjoint(
    components: Sequence[LatticeFunction], decomps: Sequence[Decomposition]
) -> LatticeFunction:
    """Adjoint transform: recombine one component per interval.

    Sums w_{a_s} times the same block-restricted martingale differences of
    component s.  Exact adjoint of `segment_transform` for the sign-averaged
    coordinatewise pairing.  The per-trial reference of `_adjoint_of_stack`,
    which tests/test_batched.py::test_segment_fronts_match_per_interval_reference
    pins against it bitwise on a stack of several trials.
    """
    if len(components) != len(decomps):
        raise ValueError(
            f"{len(components)} components for {len(decomps)} decompositions"
        )
    stacked = np.moveaxis(_stacked(components), 0, 1)  # (cells, S, d)
    first = components[0]
    anchors, masks = _family_arrays(decomps, first.resolution)
    acc = _adjoint_of_stack(stacked, anchors, masks, np.zeros_like(anchors))
    return LatticeFunction(first.resolution, acc[:, 0], first.q)


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


def _stopping_masks(leaf_norms: np.ndarray, lams) -> tuple[list[np.ndarray], np.ndarray]:
    """Stopping cells of every height at once, from one cell-sum pyramid.

    `leaf_norms` is a (cells, ...) stack and `lams` a (..., H) array of
    heights, the leading axes matching the trailing axes of the stack.  Top
    down, a cell is selected at a height iff its average is strictly above
    it and no ancestor was selected.  Returns per level m = 0..N the
    (2**m, ..., H) mask of the selected level-m cells, and the (cells, ...,
    H) mask of their union.
    """
    lams = np.asarray(lams, dtype=float)
    bad = ~(lams > 0)
    if bad.any():
        raise ValueError(f"threshold must be positive, got {lams[bad][0]}")
    sums = list(cell_sums(leaf_norms))[::-1]  # sums[m] holds the level-m cell sums
    resolution = len(sums) - 1
    masks = []
    covered = np.zeros((1, *lams.shape), dtype=bool)
    for m in range(resolution + 1):
        count = 1 << (resolution - m)
        selected = (sums[m][..., None] / count > lams) & ~covered
        masks.append(selected)
        covered = covered | selected
        if m < resolution:
            covered = np.repeat(covered, 2, axis=0)
    return masks, covered


def stopping_cells(leaf_norms: np.ndarray, lam: float) -> list[DyadicCell]:
    """Maximal dyadic cells whose average of `leaf_norms` exceeds lam (`_stopping_masks`)."""
    return [
        DyadicCell(m, int(pos))
        for m, selected in enumerate(_stopping_masks(leaf_norms, [lam])[0])
        for pos in np.flatnonzero(selected)
    ]


def _good_parts(values: np.ndarray, masks: Sequence[np.ndarray]) -> np.ndarray:
    """Good parts of T component families at H heights: (cells, T, S, H, d).

    `values` is a (cells, T, S, d) stack and masks[m] the (2**m, T, H) mask
    of the level-m stopping cells (`_stopping_masks`).  On a stopping cell
    the family is frozen to its mean over the cell; each mean reduces the
    cell's (k, S, d) block of rows as `values[cell].mean(axis=0)` does for
    one C-ordered family: one row at a time, or pairwise when S * d = 1.
    """
    n, trials, comps, dim = values.shape
    heights = masks[0].shape[-1]
    good = np.empty((n, trials, comps, heights, dim))
    good[...] = values[:, :, :, None]
    for m, selected in enumerate(masks):
        cells, ts = np.nonzero(selected.any(axis=-1))  # stopped at some height
        if not cells.size:
            continue
        width = n >> m
        blocks = values.reshape(1 << m, width, trials, comps, dim)[cells, :, ts]
        means = np.ascontiguousarray(blocks).mean(axis=1)  # (pairs, S, d)
        pairs, hs = np.nonzero(selected[cells, ts])
        view = good.reshape(1 << m, width, trials, comps, heights, dim)
        view[cells[pairs], :, ts[pairs], :, hs] = means[pairs, None]
    return good


def split_at_cells(
    values: np.ndarray, cells: Sequence[DyadicCell], resolution: int
):
    """Good/bad split of raw cell values over the given stopping cells."""
    masks = [np.zeros((1 << m, 1, 1), dtype=bool) for m in range(resolution + 1)]
    for cell in cells:
        cell.grid_slice(resolution)  # refuses a cell finer than the grid
        masks[cell.level][cell.position] = True
    good = _good_parts(values.reshape(values.shape[0], 1, -1, 1), masks)
    good = good.reshape(values.shape)
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
