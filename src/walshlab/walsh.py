"""Discrete Walsh analysis on the dyadic grid of [0, 1).

Functions live on the 2**N half-open cells [j/2**N, (j+1)/2**N) of a fixed
generation N and are exactly representable iff their spectrum sits below
2**N.  Coefficients are stored in Paley order: coefficient n pairs with the
Walsh function w_n, the product of Rademacher functions selected by the
binary digits of n.  With that ordering the index blocks of `dyadic.delta_block`
are exactly the spectral supports of the martingale differences of the
canonical dyadic filtration.

Conventions baked in here:

* ``analyze_values`` includes the 1/2**N factor, so coefficients are true
  integrals (f, w_n) and Parseval reads  sum_n coeff[n]**2 == integral of f**2.
* ``synthesize_values`` carries no factor; it is the plain expansion sum
  sum_n coeff[n] * w_n, so it inverts ``analyze_values``.
* The fast transform, O(N * 2**N), is one in-place radix-4 butterfly, two
  radix-2 stages fused per pass, run in ascending order (h = 1 .. 2**(N-1))
  and ending with one radix-2 stage for an odd N.  ``fwht`` runs it on a
  copy in natural order.  ``analyze_values`` gathers the input in
  bit-reversed index order and runs it on that copy; ``synthesize_values``
  is ``fwht`` followed by a gather of its output in bit-reversed order.
* Every batched synthesis runs one private helper on a buffer its caller
  owns, pruned to the hull [lo, hi) of the kept coefficients: a block of
  4h rows that misses the hull is +0.0 and stays +0.0, so each fused pass
  skips it, bitwise, and the result is that of ``fwht``.  The helper
  leaves the cells in bit-reversed order, and each caller gathers once,
  after its last pointwise step: the forward block sums at once, a fold of
  many syntheses (the square fold, the block-sum adjoint) after it has
  added them.
* All operations require operands on a common grid and reject mismatches
  (ResolutionError) rather than resampling silently.
* Many functions are transformed at once by stacking them along trailing
  axes (axis 0 = cells).  `column_chunks` caps such a stack at
  COLUMN_BUDGET cells and `project_columns` runs analyze -> keep index
  ranges -> synthesize over the hull of the kept ranges on it, yielding
  cells in bit-reversed order; the ranges arrive as (column, lo, hi) int
  arrays, and every column comes out bitwise as if transformed alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .dyadic import IntInterval, check_index


class ResolutionError(ValueError):
    """An index or level exceeds what the grid resolves, or grids mismatch."""


# Cells per batched transform: 128 KiB of float64.  That is 64 columns at
# N = 8 and 256 at N = 6, enough to amortize the per-call overhead, small
# enough that a campaign's working set stays in cache and its peak memory
# does not grow, and a single column from N = 14 up, so large grids keep
# streaming one function at a time.
COLUMN_BUDGET = 1 << 14


@dataclass(frozen=True, eq=False)
class DyadicFunction:
    """Real function on [0, 1), constant on the 2**N cells of generation N."""

    resolution: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.resolution < 0:
            raise ValueError("resolution must be nonnegative")
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1 or arr.shape[0] != (1 << self.resolution):
            raise ValueError(
                f"expected {1 << self.resolution} cell values for resolution "
                f"{self.resolution}, got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def constant(cls, c: float, resolution: int) -> "DyadicFunction":
        return cls(resolution, np.full(1 << resolution, float(c)))

    @property
    def size(self) -> int:
        return 1 << self.resolution

    def integral(self) -> float:
        return float(self.values.mean())

    def _check_same_grid(self, other: "DyadicFunction") -> None:
        if self.resolution != other.resolution:
            raise ResolutionError(
                f"resolution mismatch: {self.resolution} vs {other.resolution}"
            )

    def __sub__(self, other: "DyadicFunction") -> "DyadicFunction":
        self._check_same_grid(other)
        return DyadicFunction(self.resolution, self.values - other.values)

    def __mul__(self, other):
        if isinstance(other, DyadicFunction):
            self._check_same_grid(other)
            return DyadicFunction(self.resolution, self.values * other.values)
        return DyadicFunction(self.resolution, self.values * float(other))

    __rmul__ = __mul__


@dataclass(frozen=True)
class DyadicCell:
    """Dyadic cell [position/2**level, (position+1)/2**level) of [0, 1)."""

    level: int
    position: int

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if not 0 <= self.position < (1 << self.level):
            raise ValueError(f"position {self.position} out of range at level {self.level}")

    def grid_slice(self, resolution: int) -> slice:
        """Indices of the generation-`resolution` cells inside this cell."""
        if self.level > resolution:
            raise ResolutionError(
                f"cell level {self.level} finer than resolution {resolution}"
            )
        width = 1 << (resolution - self.level)
        return slice(self.position * width, (self.position + 1) * width)


@lru_cache(maxsize=None)
def bit_reversal(n_bits: int) -> np.ndarray:
    """Permutation reversing the lowest n_bits bits of 0 .. 2**n_bits - 1."""
    idx = np.arange(1 << n_bits, dtype=np.int64)
    rev = np.zeros_like(idx)
    for b in range(n_bits):
        rev |= ((idx >> b) & 1) << (n_bits - 1 - b)
    rev.setflags(write=False)
    return rev


def _check_length(n: int) -> None:
    if n < 1 or n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")


def _butterfly(a: np.ndarray, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Walsh-Hadamard butterfly along axis 0 of a C-contiguous float array, in place.

    Radix-2 stage h maps each pair (lo, hi) = (a[j], a[j + h]) to
    (lo + hi, lo - hi).  Stages h and 2h are fused: the quarters x0..x3 of
    each block of 4h cells go through y = (x0+x1, x0-x1, x2+x3, x2-x3) into
    a scratch buffer and come back as (y0+y2, y1+y3, y0-y2, y1-y3), the same
    sums in the same order as the two radix-2 stages.  Stages run
    h = 1, 2, .. n/2; an odd N ends with one radix-2 stage at h = n/2.

    Rows outside [start, stop) must be +0.0.  A block of 4h rows that misses
    those rows is still +0.0 after its pass (0 + 0 = 0 - 0 = +0.0), so each
    fused pass runs only on the blocks that meet [start, stop); the result
    is bitwise that of the whole pass.
    """
    n = a.shape[0]
    trailing = a.shape[1:]
    stop = n if stop is None else stop
    scratch = np.empty(a.size)
    stages = n.bit_length() - 1
    for h in (1 << 2 * k for k in range(stages // 2)):
        width = 4 * h
        x = a[start // width * width : -(-stop // width) * width].reshape(-1, 4, h, *trailing)
        x0, x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
        y0, y1, y2, y3 = scratch[: x.size].reshape(4, *x0.shape)
        np.add(x0, x1, out=y0)
        np.subtract(x0, x1, out=y1)
        np.add(x2, x3, out=y2)
        np.subtract(x2, x3, out=y3)
        np.add(y0, y2, out=x0)
        np.add(y1, y3, out=x1)
        np.subtract(y0, y2, out=x2)
        np.subtract(y1, y3, out=x3)
    if stages % 2:
        lo, hi = a.reshape(2, n // 2, *trailing)
        top = scratch[: lo.size].reshape(lo.shape)
        np.copyto(top, lo)
        lo += hi
        np.subtract(top, hi, out=hi)
    return a


def fwht(values: np.ndarray) -> np.ndarray:
    """Natural-order fast Walsh-Hadamard butterfly along axis 0.

    out[n] = sum_j values[j] * (-1)**popcount(j & n).  Self-inverse up to the
    factor 2**N.  Accepts trailing axes and transforms each column; `values`
    is copied, never modified.  `synthesize_values` gathers its output in
    bit-reversed order.  It is also the unpruned reference of the pruned
    synthesis kernel `_synthesize_owned`, which
    tests/test_spectral_gather.py::test_pruned_synthesis_is_bitwise_full_synthesis
    pins against it bitwise.
    """
    a = np.array(values, dtype=float, order="C")
    _check_length(a.shape[0])
    return _butterfly(a)


def _check_resolved(indices, resolution: int, what: str) -> None:
    """Refuse an index that is negative or not below 2**resolution."""
    for n in indices:
        check_index(n, what)
        if n >= (1 << resolution):
            raise ResolutionError(
                f"index {n} is not resolved on a generation-{resolution} grid"
            )


def _walsh_columns(indices, resolution: int) -> np.ndarray:
    """(cells, len(indices)) samples of the Walsh functions w_n, n in `indices`.

    The value of w_n on cell j is the product over the set binary digits k
    of n of the (k+1)-th Rademacher function, which on cell j equals (-1)
    raised to the (k+1)-th leading binary digit of j: -1 where the bits
    shared by n and the bit reversal of j have odd parity, +1 elsewhere.
    Requires every n < 2**resolution, otherwise w_n is not constant on
    cells.  The only temporary as large as the result is the (cells, s)
    table of shared bits.
    """
    _check_resolved(indices, resolution, "n")
    shared = bit_reversal(resolution)[:, None] & np.array(indices)
    parity = np.bitwise_count(shared)
    del shared
    parity &= 1
    return np.where(parity, -1.0, 1.0)


def walsh_eval(n: int, resolution: int) -> DyadicFunction:
    """Sample the n-th Walsh function on the generation-`resolution` grid.

    Requires n < 2**resolution (see `_walsh_columns`).
    """
    return DyadicFunction(resolution, _walsh_columns([n], resolution)[:, 0])


def analyze_values(values: np.ndarray) -> np.ndarray:
    """Paley-ordered Walsh coefficients (f, w_n) of raw cell values (axis 0)."""
    n = values.shape[0]
    _check_length(n)
    rev = bit_reversal(n.bit_length() - 1)
    a = _butterfly(np.ascontiguousarray(np.asarray(values, dtype=float)[rev]))
    a /= n
    return a


def _synthesize_owned(kept: np.ndarray, start: int, stop: int) -> np.ndarray:
    """`synthesize_values` of a C-contiguous float buffer that is +0.0 outside
    rows [start, stop), in bit-reversed cell order: row j holds cell
    bit_reversal(N)[j].  The buffer is overwritten and returned."""
    return _butterfly(kept, start, stop)


def synthesize_values(coeffs: np.ndarray) -> np.ndarray:
    """Cell values sum_n coeffs[n] * w_n of Paley-ordered coefficients (axis 0):
    `fwht(coeffs)` gathered in bit-reversed order."""
    a = fwht(coeffs)
    return a[bit_reversal(a.shape[0].bit_length() - 1)]


def _index_mask(indices, resolution: int) -> np.ndarray:
    size = 1 << resolution
    mask = np.zeros(size, dtype=bool)
    if isinstance(indices, IntInterval):
        if indices.hi > size:
            raise ResolutionError(
                f"index {indices.hi - 1} is not resolved on a generation-{resolution} grid"
            )
        mask[indices.lo : indices.hi] = True
        return mask
    indices = list(indices)
    _check_resolved(indices, resolution, "projection index")
    for n in indices:
        mask[n] = True
    return mask


def column_chunks(total: int, column_cells: int) -> list[slice]:
    """Consecutive slices of range(total) sized to the transform budget.

    Each slice holds max(1, COLUMN_BUDGET // column_cells) columns, where
    `column_cells` is the number of cells one column carries.
    """
    step = max(1, COLUMN_BUDGET // column_cells)
    return [slice(lo, min(lo + step, total)) for lo in range(0, total, step)]


def project_columns(
    values: np.ndarray, columns: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> Iterator[np.ndarray]:
    """Spectral projections of a stack of grid functions onto index ranges.

    `values` is a (cells, columns, ...) stack, one function per column along
    axis 1 (further axes ride along), and is analyzed once.  `columns`, `lo`
    and `hi` are (P, R) int arrays: projection p keeps the coefficients
    lo[p, r] .. hi[p, r] - 1 of column columns[p, r] for every r, zeroes the
    others, and is synthesized over the hull of its nonempty ranges and
    yielded, in order, so callers can reduce the projections one at a time.
    An empty range lo == hi keeps nothing.  Keep `values` within the
    `column_chunks` budget.

    Each projection comes out with its cells in bit-reversed order (row j
    holds cell bit_reversal(N)[j]), as the butterfly leaves them.  Pointwise
    steps commute with that permutation, so a caller folds projections in
    this order and gathers the result once with `bit_reversal(N)`.
    """
    coeffs = analyze_values(values)
    n = coeffs.shape[0]
    nonempty = lo < hi
    firsts = np.where(nonempty, lo, n).min(axis=1, initial=n).tolist()
    lasts = np.where(nonempty, hi, 0).max(axis=1, initial=0).tolist()
    rows = zip(columns.tolist(), lo.tolist(), hi.tolist(), firsts, lasts)
    for cols, starts, stops, first, last in rows:
        kept = np.zeros_like(coeffs)
        # slice copies: a fancy-index fill is faster on small grids, but about
        # 20 times slower on a range of 10**5 rows
        for t, a, b in zip(cols, starts, stops):
            kept[a:b, t] = coeffs[a:b, t]
        yield _synthesize_owned(kept, first, last)


def project(indices, f: DyadicFunction) -> DyadicFunction:
    """Spectral projection: keep the Walsh coefficients with index in `indices`.

    Idempotent and self-adjoint for the L^2 pairing.  `indices` may be any
    iterable of indices or an IntInterval.
    """
    mask = _index_mask(indices, f.resolution)
    coeffs = analyze_values(f.values)
    coeffs[~mask] = 0.0
    return DyadicFunction(f.resolution, synthesize_values(coeffs))


def _check_level(k: int, resolution: int) -> None:
    if k < 0:
        raise ValueError(f"level must be nonnegative, got {k}")
    if k > resolution:
        raise ResolutionError(f"level {k} exceeds resolution {resolution}")


def cell_sums(values: np.ndarray) -> Iterator[np.ndarray]:
    """Per-level dyadic cell sums along axis 0, from the leaves up to the root.

    Yields `values` itself (level N), then the pairwise sums of each level's
    neighbouring cells (levels N-1 .. 0); trailing axes ride along.  A
    generator, so a fold keeps one level alive at a time.
    """
    cur = values
    yield cur
    while cur.shape[0] > 1:
        cur = cur[0::2] + cur[1::2]
        yield cur


def expectation(k: int, f: DyadicFunction) -> DyadicFunction:
    """Conditional expectation onto generation k: cell averages at level k.

    Spectrally this keeps exactly the coefficients below 2**k.
    """
    _check_level(k, f.resolution)
    width = 1 << (f.resolution - k)
    means = f.values.reshape(1 << k, width).mean(axis=1)
    return DyadicFunction(f.resolution, np.repeat(means, width))


def mart_diff(k: int, f: DyadicFunction) -> DyadicFunction:
    """Martingale difference at level k.

    For k >= 1 this is the drop between consecutive conditional expectations,
    equivalently the spectral projection onto delta_block(k); for k = 0 it is
    the constant mean.  The differences over k = 0..N telescope back to f.
    """
    _check_level(k, f.resolution)
    if k == 0:
        return DyadicFunction.constant(f.integral(), f.resolution)
    return expectation(k, f) - expectation(k - 1, f)


def restrict_rescale(f: DyadicFunction, cell: DyadicCell) -> DyadicFunction:
    """Restrict f to a dyadic cell and rescale the cell onto [0, 1).

    The result lives at resolution N - level and represents f under the
    normalized measure of the cell.  Restricting a Walsh function w_a gives
    (plus or minus) the Walsh function whose index drops the lowest `level`
    digits of a, the sign being the constant value on the cell of the
    dropped Rademacher factors.
    """
    sl = f.values[cell.grid_slice(f.resolution)]
    return DyadicFunction(f.resolution - cell.level, sl)
