"""Bit arithmetic on Walsh indices, integer intervals, and index blocks.

Walsh indices are plain nonnegative Python ints below 2**32.  Everything in
this module is exact integer combinatorics; it is the substrate shared by the
transform, decomposition, and operator layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

MAX_INDEX_BITS = 32
MAX_INDEX = 1 << MAX_INDEX_BITS


def check_index(n: int, what: str = "index") -> int:
    if n < 0:
        raise ValueError(f"{what} must be nonnegative, got {n}")
    if n >= MAX_INDEX:
        raise ValueError(f"{what} {n} exceeds the {MAX_INDEX_BITS}-bit limit")
    return n


def dyadic_add(n1: int, n2: int) -> int:
    """Digitwise mod-2 sum of two indices, i.e. bitwise xor.

    Commutative and self-inverse: dyadic_add(n, n) == 0, and translating by a
    fixed index is a bijection of Z+ onto itself.
    """
    check_index(n1, "n1")
    check_index(n2, "n2")
    return n1 ^ n2


@dataclass(frozen=True)
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

    def __contains__(self, n: int) -> bool:
        return self.lo <= n < self.hi

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi))

    def to_set(self) -> set[int]:
        return set(range(self.lo, self.hi))

    def overlaps(self, other: "IntInterval") -> bool:
        return self.lo < other.hi and other.lo < self.hi


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


def block_level(n: int) -> int:
    """The unique k with n in delta_block(k).  Equals the bit length of n."""
    check_index(n)
    return n.bit_length()


def translate_set(a: int, indices: Iterable[int]) -> set[int]:
    """{dyadic_add(a, s) for s in indices}; preserves cardinality."""
    check_index(a, "a")
    return {dyadic_add(a, s) for s in indices}


def translate_block(a: int, k: int) -> IntInterval:
    """The image of delta_block(k) under translation by a, as an interval.

    For k >= 1 every element of block k has digit k-1 set and digits above
    k-1 zero, so xor with a flips digit k-1 of a and frees the digits below
    it.  The image is therefore again a contiguous interval of length
    2**(k-1).  For k = 0 it is the singleton {a}.
    """
    check_index(a, "a")
    if k == 0:
        return IntInterval(a, a + 1)
    blk = delta_block(k)
    base = (a ^ (1 << (k - 1))) & ~((1 << (k - 1)) - 1)
    return IntInterval(base, base + blk.size)
