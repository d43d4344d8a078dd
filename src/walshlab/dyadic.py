"""Bit arithmetic on Walsh indices, integer intervals, and index blocks.

Walsh indices are plain nonnegative Python ints below 2**32; the dyadic
(digitwise mod-2) sum of two indices, "translation", is plain xor.
Everything in this module is exact integer combinatorics; it is the
substrate shared by the transform, decomposition, and operator layers.

`IntInterval(lo, hi)` is the one public constructor, and it validates its
bounds.  `_interval(lo, hi)` is the one unchecked path: it builds the same
slotted instance without any check, for callers that have already proved
0 <= lo < hi <= 2**32.  It has three callers: `translate_block` (after
`check_index(a)` and `delta_block(k)`), and in `intervals` each
`_prefix_pieces` piece and the `interval` of `decompose` (after both ends
are checked and a < b).
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_INDEX_BITS = 32
MAX_INDEX = 1 << MAX_INDEX_BITS


def check_index(n: int, what: str = "index") -> int:
    if n < 0:
        raise ValueError(f"{what} must be nonnegative, got {n}")
    if n >= MAX_INDEX:
        raise ValueError(f"{what} {n} exceeds the {MAX_INDEX_BITS}-bit limit")
    return n


@dataclass(frozen=True, slots=True)
class IntInterval:
    """Half-open integer interval [lo, hi) in Z+."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        check_index(self.lo, "lo")
        if self.hi > MAX_INDEX:
            raise ValueError(f"hi {self.hi} exceeds the {MAX_INDEX_BITS}-bit limit")
        if self.lo >= self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi})")

    @property
    def size(self) -> int:
        return self.hi - self.lo

    def to_set(self) -> set[int]:
        return set(range(self.lo, self.hi))

    def overlaps(self, other: "IntInterval") -> bool:
        return self.lo < other.hi and other.lo < self.hi


_new = object.__new__
_set_lo = IntInterval.lo.__set__
_set_hi = IntInterval.hi.__set__


def _interval(lo: int, hi: int) -> IntInterval:
    """[lo, hi) without validation; the caller has proved 0 <= lo < hi <= 2**32."""
    iv = _new(IntInterval)
    _set_lo(iv, lo)
    _set_hi(iv, hi)
    return iv


_BLOCKS = (IntInterval(0, 1),) + tuple(
    IntInterval(1 << (k - 1), 1 << k) for k in range(1, MAX_INDEX_BITS)
)


def delta_block(k: int) -> IntInterval:
    """Index block of generation k: {0} for k = 0, [2**(k-1), 2**k) for k >= 1.

    Distinct blocks are disjoint and the blocks of generations 0..K tile
    [0, 2**K).  Block k is the spectral support of the k-th martingale
    difference.  The blocks are built once; an `IntInterval` is frozen, so
    every caller can share them.
    """
    if k < 0:
        raise ValueError(f"block level must be nonnegative, got {k}")
    if k >= MAX_INDEX_BITS:
        raise ValueError(f"block level {k} exceeds the {MAX_INDEX_BITS}-bit limit")
    return _BLOCKS[k]


def translate_block(a: int, k: int) -> IntInterval:
    """The image of delta_block(k) under translation by a, as an interval.

    For k >= 1 every element of block k has digit k-1 set and digits above
    k-1 zero, so xor with a flips digit k-1 of a and frees the digits below
    it.  The image is therefore again a contiguous interval of length
    2**(k-1).  For k = 0 it is the singleton {a}.
    """
    check_index(a, "a")
    blk = delta_block(k)
    if k == 0:
        base = a
    else:
        base = (a ^ (1 << (k - 1))) & ~((1 << (k - 1)) - 1)
    return _interval(base, base + blk.hi - blk.lo)
