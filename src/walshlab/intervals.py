"""Anchored xor-block decomposition of integer intervals.

Any interval [a, b) in Z+ splits into the anchor singleton {a}, a run of
"left" pieces that the translation x -> dyadic_add(a, x) maps onto whole
index blocks, and a run of "right" pieces that translation by b maps onto
whole index blocks:

    [a, b) = {a}  u  U_j J_j  u  U_i K_i,
    dyadic_add(a, J_j) = delta_block(j),   dyadic_add(b, K_i) = delta_block(i).

Construction.  Write the set binary digits of b as k_1 > ... > k_l.  The
prefix interval [0, b) splits into consecutive pieces, the i-th of length
2**k_i, and translation by b sends the i-th piece onto block k_i + 1
(`decompose_prefix`).  Exactly one of these pieces contains a: the piece of
k_m, the highest digit where a and b differ (b has a one there, a a zero,
and above it they agree).  The pieces to its right, one per set digit of b
below k_m, survive unchanged as the right pieces of [a, b); only they are
built.  The remaining gap between a and the end of a's piece is filled left
to right by the images of blocks under translation by a: each zero digit of
a strictly below k_m contributes one piece `translate_block(a, kappa+1)`,
and emitting them in increasing digit order makes anchor plus left pieces a
contiguous segment of Z+.

The pieces are constructed from the defining translation relations, not from
closed-form endpoints, and `verify_decomposition` checks those relations
element by element with raw xor enumeration, so construction and
verification are independent routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .dyadic import IntInterval, check_index, delta_block, translate_block

Piece = tuple[int, IntInterval]


@dataclass(frozen=True)
class Decomposition:
    """Anchored xor-block decomposition of the interval [anchor, interval.hi)."""

    anchor: int
    left: tuple[Piece, ...]
    right: tuple[Piece, ...]
    interval: IntInterval

    @property
    def left_levels(self) -> tuple[int, ...]:
        return tuple(j for j, _ in self.left)

    @property
    def right_levels(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.right)

    def left_union(self) -> set[int]:
        out: set[int] = set()
        for _, piece in self.left:
            out |= piece.to_set()
        return out

    def right_union(self) -> set[int]:
        out: set[int] = set()
        for _, piece in self.right:
            out |= piece.to_set()
        return out


def _prefix_pieces(b: int, top: int) -> list[Piece]:
    """The pieces of `decompose_prefix(b)` for the set digits of b below `top`.

    Digit k contributes the next 2**k integers and lands on block k + 1; the
    first piece starts at b with its digits below `top` cleared.
    """
    pieces: list[Piece] = []
    left_end = b >> top << top
    for k in range(top - 1, -1, -1):
        if (b >> k) & 1:
            pieces.append((k + 1, IntInterval(left_end, left_end + (1 << k))))
            left_end += 1 << k
    return pieces


def decompose_prefix(b: int) -> list[Piece]:
    """Split [0, b) into pieces carried onto whole blocks by translation by b.

    One piece per set binary digit of b, scanned from the highest digit down:
    digit k contributes the next 2**k integers and lands on block k + 1.
    """
    check_index(b, "b")
    if b < 1:
        raise ValueError("cannot decompose the empty interval [0, 0)")
    return _prefix_pieces(b, b.bit_length())


def decompose(a: int, b: int) -> Decomposition:
    """Anchored decomposition of [a, b); requires a < b."""
    check_index(a, "a")
    check_index(b, "b")
    if a >= b:
        raise ValueError(f"empty interval [{a}, {b})")
    k_m = (a ^ b).bit_length() - 1
    right = tuple(_prefix_pieces(b, k_m))
    left = tuple(
        (kappa + 1, translate_block(a, kappa + 1))
        for kappa in range(k_m)
        if not (a >> kappa) & 1
    )
    return Decomposition(anchor=a, left=left, right=right, interval=IntInterval(a, b))


@dataclass(frozen=True)
class DecompositionCheck:
    """Outcome of the elementwise verification of one decomposition."""

    passed: bool
    failures: tuple[str, ...]
    witness: int | None

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "failures": list(self.failures),
            "witness": self.witness,
        }


def _first_escape(base: int, blk: IntInterval, piece: IntInterval) -> int | None:
    """First element of `piece` that translation by `base` throws out of `blk`."""
    lo, hi = blk.lo, blk.hi
    for x in range(piece.lo, piece.hi):
        if not lo <= x ^ base < hi:
            return x
    return None


def verify_decomposition(dec: Decomposition, a: int, b: int) -> DecompositionCheck:
    """Exhaustive elementwise check of a decomposition of [a, b).

    Verifies disjointness, coverage of [a, b), and that translation by a
    (resp. b) maps every left (resp. right) piece onto exactly its block.
    Failures are reported, not raised; the witness is the first element
    whose translate leaves its block, when one exists.

    Coverage is decided from the sorted (lo, hi) spans of the anchor and the
    pieces: they cover [a, b) exactly when their lengths add up to b - a,
    the first starts at a and each starts where the previous one ends.
    Some spans overlap exactly when some consecutive sorted pair does.
    """
    failures: list[str] = []
    witness: int | None = None

    if dec.anchor != a:
        failures.append(f"anchor {dec.anchor} != {a}")

    spans = sorted(
        [(dec.anchor, dec.anchor + 1)]
        + [(p.lo, p.hi) for _, p in dec.left + dec.right]
    )
    end = spans[0][0]
    contiguous = end == a
    overlap = False
    covered = 0
    for lo, hi in spans:
        covered += hi - lo
        if lo != end:
            contiguous = False
            overlap = overlap or lo < end
        end = hi
    expected = max(b - a, 0)
    if covered != expected:
        failures.append(f"covers {covered} elements, interval has {expected}")
        if overlap:
            failures.append("pieces overlap")
    elif not contiguous:
        failures.append("union of anchor and pieces is not [a, b)")

    for side, base, pieces in (("left", a, dec.left), ("right", b, dec.right)):
        for level, piece in pieces:
            blk = delta_block(level)
            w = _first_escape(base, blk, piece)
            if w is not None:
                failures.append(
                    f"{side} piece level {level}: element {w} leaves its block"
                )
                if witness is None:
                    witness = w
            if piece.size != blk.size:
                failures.append(
                    f"{side} piece level {level}: size {piece.size} != block size"
                )

    return DecompositionCheck(not failures, tuple(failures), witness)


def family_decompose(intervals: Sequence[IntInterval]) -> list[Decomposition]:
    """Decompose a family of pairwise disjoint intervals.

    Also re-checks that the left pieces are pairwise disjoint across the whole
    family (they are contained in their source intervals, so this must hold);
    a violation indicates a construction bug and raises.
    """
    ordered = sorted(intervals, key=lambda iv: iv.lo)
    for prev, cur in zip(ordered, ordered[1:]):
        if prev.overlaps(cur):
            raise ValueError(f"intervals overlap: {prev} and {cur}")
    decs = [decompose(iv.lo, iv.hi) for iv in intervals]

    pieces = sorted(
        (piece for dec in decs for _, piece in dec.left), key=lambda p: p.lo
    )
    for prev, cur in zip(pieces, pieces[1:]):
        if prev.overlaps(cur):
            raise RuntimeError(
                f"left pieces overlap across the family: {prev} and {cur}"
            )
    return decs
