import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshlab.dyadic import IntInterval, delta_block, dyadic_add, translate_block
from walshlab.intervals import (
    Decomposition,
    decompose,
    decompose_prefix,
    family_decompose,
    verify_decomposition,
)


def brute_check(dec, a, b):
    """Set-level oracle, independent of `verify_decomposition`."""
    covered = {dec.anchor}
    for j, piece in dec.left:
        img = {dyadic_add(a, x) for x in piece}
        assert img == delta_block(j).to_set(), (a, b, j, piece)
        assert not covered & piece.to_set()
        covered |= piece.to_set()
    for i, piece in dec.right:
        img = {dyadic_add(b, x) for x in piece}
        assert img == delta_block(i).to_set(), (a, b, i, piece)
        assert not covered & piece.to_set()
        covered |= piece.to_set()
    assert covered == set(range(a, b))


def test_prefix_examples():
    assert decompose_prefix(6) == [(3, IntInterval(0, 4)), (2, IntInterval(4, 6))]
    assert decompose_prefix(1) == [(1, IntInterval(0, 1))]
    assert decompose_prefix(16) == [(5, IntInterval(0, 16))]


def test_prefix_rejects_zero():
    with pytest.raises(ValueError):
        decompose_prefix(0)


@given(st.integers(1, 1 << 12))
def test_prefix_pieces_tile_and_translate(b):
    pieces = decompose_prefix(b)
    end = 0
    for i, piece in pieces:
        assert piece.lo == end
        end = piece.hi
        assert {dyadic_add(b, x) for x in piece} == delta_block(i).to_set()
    assert end == b


def test_decompose_worked_examples():
    d = decompose(1, 6)
    assert d.anchor == 1
    assert d.left == ((2, IntInterval(2, 4)),)
    assert d.right == ((2, IntInterval(4, 6)),)

    d = decompose(0, 6)
    assert d.anchor == 0
    assert d.left == ((1, IntInterval(1, 2)), (2, IntInterval(2, 4)))
    assert d.right == ((2, IntInterval(4, 6)),)

    d = decompose(9, 10)
    assert d.left == () and d.right == ()


def test_decompose_rejects_empty():
    with pytest.raises(ValueError):
        decompose(4, 4)
    with pytest.raises(ValueError):
        decompose(5, 4)


@settings(max_examples=300)
@given(st.integers(0, (1 << 12) - 1), st.integers(1, 1 << 12))
def test_decompose_random_pairs(a, b):
    if a >= b:
        a, b = b - 1, a + 1
    dec = decompose(a, b)
    chk = verify_decomposition(dec, a, b)
    assert chk.passed, chk
    brute_check(dec, a, b)


def test_decompose_exhaustive_small():
    for b in range(1, 129):
        for a in range(b):
            dec = decompose(a, b)
            assert verify_decomposition(dec, a, b).passed
            brute_check(dec, a, b)


@settings(max_examples=200)
@given(st.integers(0, (1 << 10) - 1), st.integers(1, 1 << 10))
def test_piece_counts_and_contiguity(a, b):
    if a >= b:
        return
    dec = decompose(a, b)
    bits_b = b.bit_length()
    zeros_a = sum(1 for k in range(bits_b) if not (a >> k) & 1)
    ones_b = bin(b).count("1")
    assert len(dec.left) <= zeros_a
    assert len(dec.right) <= ones_b
    # anchor plus left pieces form one contiguous segment
    segment = sorted({dec.anchor} | dec.left_union())
    assert segment == list(range(segment[0], segment[-1] + 1))
    assert segment[0] == a


def test_verifier_flags_tampering():
    dec = decompose(1, 6)
    bad = Decomposition(
        anchor=1,
        left=((2, IntInterval(2, 5)),),
        right=dec.right,
        interval=dec.interval,
    )
    chk = verify_decomposition(bad, 1, 6)
    assert not chk.passed
    assert chk.witness == 4  # 1 xor 4 = 5, outside block 2
    assert any("leaves its block" in msg for msg in chk.failures)


def test_verifier_passes_singleton():
    dec = decompose(5, 6)
    chk = verify_decomposition(dec, 5, 6)
    assert chk.passed and chk.failures == ()


def test_family_examples():
    decs = family_decompose([IntInterval(1, 6), IntInterval(8, 16)])
    assert len(decs) == 2
    pieces = [p for d in decs for _, p in d.left + d.right]
    for i, p1 in enumerate(pieces):
        for p2 in pieces[i + 1 :]:
            assert not p1.overlaps(p2)

    full = family_decompose([IntInterval(0, 64)])[0]
    assert [j for j, _ in full.left] == [1, 2, 3, 4, 5, 6]
    assert [piece for _, piece in full.left] == [
        delta_block(k) for k in range(1, 7)
    ]

    assert family_decompose([]) == []


def test_family_rejects_overlap():
    with pytest.raises(ValueError):
        family_decompose([IntInterval(0, 5), IntInterval(4, 9)])


# Reference copies of the decomposition layer as it stood before the digit
# search and the span-based verifier: decompose builds every prefix piece and
# searches them for a; verify enumerates each piece with numpy.


def ref_decompose(a, b):
    prefix = []
    left_end = 0
    for k in range(b.bit_length() - 1, -1, -1):
        if (b >> k) & 1:
            prefix.append((k + 1, IntInterval(left_end, left_end + (1 << k))))
            left_end += 1 << k
    m = next(i for i, (_, piece) in enumerate(prefix) if a in piece)
    k_m = prefix[m][0] - 1
    left = tuple(
        (kappa + 1, translate_block(a, kappa + 1))
        for kappa in range(k_m)
        if not (a >> kappa) & 1
    )
    return Decomposition(
        anchor=a, left=left, right=tuple(prefix[m + 1 :]), interval=IntInterval(a, b)
    )


def ref_verify(dec, a, b):
    failures = []
    witness = None
    if dec.anchor != a:
        failures.append(f"anchor {dec.anchor} != {a}")
    covered = np.concatenate(
        [np.array([dec.anchor], dtype=np.int64)]
        + [np.arange(p.lo, p.hi, dtype=np.int64) for _, p in dec.left + dec.right]
    )
    covered_sorted = np.sort(covered)
    expected = np.arange(a, b, dtype=np.int64)
    if covered_sorted.shape != expected.shape:
        failures.append(
            f"covers {covered_sorted.shape[0]} elements, interval has {expected.shape[0]}"
        )
        if np.unique(covered).shape[0] != covered.shape[0]:
            failures.append("pieces overlap")
    elif not np.array_equal(covered_sorted, expected):
        failures.append("union of anchor and pieces is not [a, b)")
    for side, base, pieces in (("left", a, dec.left), ("right", b, dec.right)):
        for level, piece in pieces:
            blk = delta_block(level)
            elements = np.arange(piece.lo, piece.hi, dtype=np.int64)
            images = elements ^ base
            bad = (images < blk.lo) | (images >= blk.hi)
            w = int(elements[bad][0]) if bad.any() else None
            if w is not None:
                failures.append(f"{side} piece level {level}: element {w} leaves its block")
                if witness is None:
                    witness = w
            if piece.size != blk.size:
                failures.append(
                    f"{side} piece level {level}: size {piece.size} != block size"
                )
    return (not failures, tuple(failures), witness)


def spans(pieces):
    return [(level, p.lo, p.hi) for level, p in pieces]


def outcome(chk):
    return (chk.passed, chk.failures, chk.witness)


def test_decomposition_layer_matches_reference_exhaustively():
    for b in range(1, (1 << 8) + 1):
        for a in range(b):
            dec, ref = decompose(a, b), ref_decompose(a, b)
            assert dec.anchor == ref.anchor and dec.interval == ref.interval
            assert spans(dec.left) == spans(ref.left), (a, b)
            assert spans(dec.right) == spans(ref.right), (a, b)
            assert outcome(verify_decomposition(dec, a, b)) == ref_verify(ref, a, b)


def tampered(a, b, anchor=None, left=None, right=None):
    dec = decompose(a, b)
    return Decomposition(
        anchor=dec.anchor if anchor is None else anchor,
        left=dec.left if left is None else left,
        right=dec.right if right is None else right,
        interval=dec.interval,
    )


@pytest.mark.parametrize(
    "dec, a, b, expected",
    [
        # anchor mismatch
        (tampered(5, 12, anchor=4), 5, 12, ["anchor 4 != 5", "not [a, b)"]),
        # wrong element count plus overlap: a piece repeated
        (
            tampered(0, 6, left=((1, IntInterval(1, 2)),) * 2 + ((2, IntInterval(2, 4)),)),
            0, 6, ["covers 7 elements, interval has 6", "pieces overlap"],
        ),
        # right count, but the union is not [a, b)
        (
            tampered(1, 6, right=((2, IntInterval(5, 7)),)),
            1, 6, ["not [a, b)", "element 6 leaves its block"],
        ),
        # contiguous spans of the right length that start below a
        (
            tampered(
                1, 6, anchor=0,
                left=((2, IntInterval(1, 3)),), right=((2, IntInterval(3, 5)),),
            ),
            1, 6,
            ["anchor 0 != 1", "not [a, b)", "element 1 leaves", "element 3 leaves"],
        ),
        # an element leaves its block (the piece runs one too far)
        (
            tampered(1, 6, left=((2, IntInterval(2, 5)),)),
            1, 6, ["covers 6 elements", "overlap", "element 4 leaves", "size 3"],
        ),
        # a size mismatch with every element inside its block
        (
            tampered(1, 6, left=((2, IntInterval(2, 3)), (2, IntInterval(3, 4)))),
            1, 6, ["size 1 != block size", "size 1 != block size"],
        ),
    ],
)
def test_tampered_decompositions_match_reference(dec, a, b, expected):
    got = outcome(verify_decomposition(dec, a, b))
    assert got == ref_verify(dec, a, b)
    assert not got[0]
    assert len(got[1]) == len(expected)
    for msg, part in zip(got[1], expected):
        assert part in msg, got


def single_tampers(dec):
    """Every decomposition one shift, level change, drop or anchor move away."""
    sides = {"left": dec.left, "right": dec.right}
    for side, pieces in sides.items():
        for i, (level, piece) in enumerate(pieces):
            variants = [pieces[:i] + pieces[i + 1 :]]
            for d in (-1, 1):
                if piece.lo + d >= 0:
                    moved = IntInterval(piece.lo + d, piece.hi + d)
                    variants.append(pieces[:i] + ((level, moved),) + pieces[i + 1 :])
                if 0 <= level + d < 32:
                    variants.append(pieces[:i] + ((level + d, piece),) + pieces[i + 1 :])
            for variant in variants:
                yield Decomposition(
                    dec.anchor,
                    variant if side == "left" else dec.left,
                    variant if side == "right" else dec.right,
                    dec.interval,
                )
    for d in (-1, 1):
        yield Decomposition(dec.anchor + d, dec.left, dec.right, dec.interval)


def test_every_single_tamper_fails_verification():
    tampers = 0
    for b in range(1, (1 << 6) + 1):
        for a in range(b):
            for bad in single_tampers(decompose(a, b)):
                assert not verify_decomposition(bad, a, b).passed, (a, b, bad)
                tampers += 1
    assert tampers > 10_000


def test_delta_block_cache_matches_definition():
    assert delta_block(0) == IntInterval(0, 1)
    for k in range(1, 32):
        assert delta_block(k) == IntInterval(1 << (k - 1), 1 << k)
    for k in (-1, 32):
        with pytest.raises(ValueError):
            delta_block(k)
