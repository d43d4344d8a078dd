"""Bitwise checks of the two shortcuts in the analyze -> keep -> synthesize path.

* Modulation is a coefficient permutation: the Paley coefficients of
  w_a * f are those of f at m ^ a, in every byte, signed zeros included,
  for every campaign draw.  Only a -0.0 in the first cell, which no draw
  has, can flip the sign of a zero coefficient.
  The forward block-sum engine gathers instead of modulating, so it is
  pinned against a reference that modulates.
* Pruned synthesis: a buffer that is +0.0 outside the hull [lo, hi) of its
  kept rows synthesizes to the same bytes when the butterfly skips the
  blocks that miss the hull.
* Bit-reversed cells: the private synthesis leaves cells in bit-reversed
  order, and the folds over many projections gather once at the end.  The
  square fold and the block-sum adjoint are pinned against references that
  gather every projection first.
* Moved gather: the adjoint gathers each column's coefficients at r ^ a
  into the images of its level blocks under xor a, which is w_a times the
  projection in value; an exact zero may flip sign, and the adjoint is
  bitwise only after its +0.0 accumulator has absorbed those signs.

Bytes are compared with `tobytes()`, because `np.array_equal` treats -0.0
and +0.0 as equal.
"""

import numpy as np
import pytest

from walshlab import walsh
from walshlab.dyadic import IntInterval, delta_block
from walshlab.experiments import (
    _family_capacity,
    _sq_sum_of_projections,
    random_function,
    random_interval_family,
    random_lattice_function,
)
from walshlab.intervals import family_decompose
from walshlab.operators import (
    _block_sum_chunks,
    _block_sums_adjoint,
    _gather_synthesis,
    _mask_ranges,
)
from walshlab.walsh import (
    _synthesize_owned,
    _walsh_columns,
    analyze_values,
    bit_reversal,
    column_chunks,
    fwht,
    project_columns,
    synthesize_values,
    walsh_eval,
)

POLICIES = ("gaussian-cells", "rademacher-cells", "sparse-spectrum:3")
RESOLUTIONS = (0, 1, 2, 3, 8, 11)


def draw(resolution, dim, policy, key):
    """One scalar (cells,) or lattice (cells, dim) draw."""
    if dim is None:
        return random_function(key, resolution, policy).values
    return random_lattice_function(key, resolution, dim, 3.0, policy).values


def anchors_of(resolution):
    """Every anchor up to N = 8, a spread of 64 of them above."""
    n = 1 << resolution
    if n <= 256:
        return range(n)
    return sorted({0, 1, n - 1, *np.random.default_rng(resolution).choice(n, 61).tolist()})


@pytest.mark.parametrize("dim", [None, 3])
@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("policy", POLICIES)
def test_modulation_permutes_coefficients(policy, resolution, dim):
    values = draw(resolution, dim, policy, [5, resolution])
    coeffs = analyze_values(values)
    m = np.arange(1 << resolution)
    for a in anchors_of(resolution):
        w = walsh_eval(a, resolution).values
        modulated = (w if dim is None else w[:, None]) * values
        assert analyze_values(modulated).tobytes() == coeffs[m ^ a].tobytes(), a


@pytest.mark.parametrize("resolution", [1, 2, 3, 4])
def test_signed_zeros_permute_bitwise_unless_the_first_cell_is_minus_zero(resolution):
    rng = np.random.default_rng(resolution)
    m = np.arange(1 << resolution)
    for _ in range(200):
        f = rng.choice(np.array([-0.0, 0.0, 1.0, -1.0, 2.0]), size=1 << resolution)
        for first in (0.0, -0.0):
            f[0] = first
            coeffs = analyze_values(f)
            for a in m.tolist():
                permuted = analyze_values(walsh_eval(a, resolution).values * f)
                if not np.signbit(first):
                    assert permuted.tobytes() == coeffs[m ^ a].tobytes(), (f, a)
                else:
                    assert np.array_equal(permuted, coeffs[m ^ a]), (f, a)


def _masks(levels):
    """The bitmask of each column's levels, bit j for level j."""
    return np.array([sum(1 << j for j in lv) for lv in levels], dtype=np.intp)


def _selection_arrays(selections):
    """(P, R) column, lo, hi arrays for `project_columns`, one row per
    selection of per-column (lo, hi) lists, padded with empty ranges."""
    rows = [
        [(t, lo, hi) for t, column in enumerate(sel) for lo, hi in column] for sel in selections
    ]
    width = max(map(len, rows), default=0)
    table = np.zeros((len(rows), width, 3), dtype=np.intp)
    for p, row in enumerate(rows):
        table[p, : len(row)] = np.reshape(row, (-1, 3))
    return table[..., 0], table[..., 1], table[..., 2]


def _level_ranges(levels):
    """One selection keeping each column's level blocks, as `project_columns` arrays."""
    return _selection_arrays(
        [[[(delta_block(j).lo, delta_block(j).hi) for j in lv] for lv in levels]]
    )


def _stack_and_families(resolution, dim, policy, trials):
    values = np.stack(
        [draw(resolution, dim, policy, [9, resolution, t]) for t in range(trials)], axis=1
    )
    rng = np.random.default_rng([resolution, trials])
    count = max(1, min(4, (1 << resolution) // 2))
    decs, owners = [], []
    for t in range(trials):
        family = family_decompose(random_interval_family(rng, resolution, count, "random"))
        decs += family
        owners += [t] * len(family)
    return values, decs, np.array(owners)


@pytest.mark.parametrize("segment", [False, True])
@pytest.mark.parametrize("dim", [None, 3])
@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("policy", POLICIES)
def test_forward_engine_matches_modulating_reference(
    monkeypatch, policy, resolution, dim, segment
):
    # three columns a chunk, so chunks with and without a shared hull occur
    column_cells = (1 << resolution) * (dim or 1)
    monkeypatch.setattr(walsh, "COLUMN_BUDGET", 3 * column_cells)
    values, decs, owners = _stack_and_families(resolution, dim, policy, trials=3)
    anchors = [d.anchor for d in decs]
    levels = [((0,) if segment else ()) + d.left_levels for d in decs]
    seen = 0
    for sl, sums in _block_sum_chunks(values, np.array(anchors), _masks(levels), owners):
        w = _walsh_columns(anchors[sl], resolution)
        w = w.reshape(w.shape + (1,) * (values.ndim - 2))
        (reference,) = project_columns(w * values[:, owners[sl]], *_level_ranges(levels[sl]))
        # project_columns leaves cells bit-reversed; the forward engine gathers them
        reference = reference[bit_reversal(resolution)]
        assert sums.shape == reference.shape
        assert sums.tobytes() == reference.tobytes(), sl
        seen += sl.stop - sl.start
    assert seen == len(decs)


def _hulls(n):
    """Empty, first row, last row, across a 4h boundary, and full hulls."""
    hulls = [(0, 0), (n, 0), (0, 1), (n - 1, n), (0, n)]
    if n >= 8:
        hulls += [(3, 5), (n // 4 - 1, n // 4 + 2), (n // 2 - 3, n // 2 + 1), (1, n - 1)]
    return hulls


@pytest.mark.parametrize("trailing", [(), (2, 3)])
@pytest.mark.parametrize("resolution", [0, 1, 2, 3, 4, 5, 8, 9])
def test_pruned_synthesis_is_bitwise_full_synthesis(resolution, trailing):
    n = 1 << resolution
    rng = np.random.default_rng([resolution, len(trailing)])
    for lo, hi in _hulls(n):
        kept = np.zeros((n, *trailing))
        if hi > lo:
            kept[lo:hi] = rng.standard_normal((hi - lo, *trailing))
            kept[lo] = -0.0  # signed zeros inside the hull must survive
        full = fwht(kept)  # cells in bit-reversed order, as the helper leaves them
        pruned = _synthesize_owned(kept.copy(), lo, hi)
        assert pruned.tobytes() == full.tobytes(), (lo, hi)
        assert synthesize_values(kept).tobytes() == full[bit_reversal(resolution)].tobytes()
    # an empty hull gives the all-(+0.0) synthesis
    empty = _synthesize_owned(np.zeros((n, *trailing)), n, 0)
    assert empty.tobytes() == np.zeros((n, *trailing)).tobytes()


@pytest.mark.parametrize("resolution", [0, 1, 3, 8])
def test_project_columns_is_bitwise_unpruned(resolution):
    n = 1 << resolution
    draws = [draw(resolution, None, "gaussian-cells", [1, resolution, t]) for t in range(2)]
    values = np.stack(draws, axis=1)
    coeffs = analyze_values(values)
    selections = [[[], []], [[(0, 1)], []], [[(n - 1, n)], [(0, n)]]]
    if n >= 8:
        selections += [[[(3, 5)], [(7, 8), (1, 2)]], [[(n // 2 - 1, n // 2 + 3)], [(5, n - 1)]]]
    projections = project_columns(values, *_selection_arrays(selections))
    for selection, projection in zip(selections, projections):
        kept = np.zeros_like(coeffs)
        for t, column in enumerate(selection):
            for lo, hi in column:
                kept[lo:hi, t] = coeffs[lo:hi, t]
        assert projection.tobytes() == fwht(kept).tobytes(), selection
    # an empty selection gives the all-(+0.0) projection
    (empty,) = project_columns(values, *_selection_arrays([[[], []]]))
    assert empty.tobytes() == np.zeros_like(values).tobytes()


def _natural_sq_sum(values, families):
    """Sum over s of synthesize_values(kept_s) ** 2, kept_s holding each
    column's s-th interval: the fold with every projection gathered."""
    coeffs = analyze_values(values)
    acc = np.zeros(values.shape)
    for s in range(max(map(len, families), default=0)):
        kept = np.zeros_like(coeffs)
        for t, family in enumerate(families):
            if s < len(family):
                lo, hi = family[s].lo, family[s].hi
                kept[lo:hi, t] = coeffs[lo:hi, t]
        acc += synthesize_values(kept) ** 2
    return acc


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("resolution", [0, 1, 2, 3, 8, 9])
def test_sq_sum_of_projections_is_bitwise_natural_order_fold(resolution, trials):
    n = 1 << resolution
    rng = np.random.default_rng([resolution, trials])
    count = min(3, (n + 1) // 2)
    values = np.stack(
        [draw(resolution, None, "gaussian-cells", [3, resolution, t]) for t in range(trials)],
        axis=1,
    )
    families = [random_interval_family(rng, resolution, count, "random")]
    if trials == 3:
        # an all -0.0 column has coefficient 0 equal to -0.0, kept inside the
        # hull of its one interval; the third column keeps nothing
        values[:, 1] = -0.0
        families += [[IntInterval(0, max(1, n // 2))], []]
        assert np.signbit(analyze_values(values)[0, 1])
    # (T, S, 2) endpoint rows, a shorter family padded with empty rows
    ends = np.zeros((trials, count, 2), dtype=np.int64)
    for t, family in enumerate(families):
        for s, iv in enumerate(family):
            ends[t, s] = iv.lo, iv.hi
    got = _sq_sum_of_projections(values, ends)
    assert got.tobytes() == _natural_sq_sum(values, families).tobytes()
    # one function on its own runs the same fold
    single = _sq_sum_of_projections(values[:, 0], ends[0])
    assert single.tobytes() == _natural_sq_sum(values[:, :1], families[:1])[:, 0].tobytes()


def _adjoint_reference(stacked, anchors, levels, owners):
    """The block-sum adjoint with every projection gathered to cell order
    first, then multiplied by the anchors' Walsh columns."""
    resolution = stacked.shape[0].bit_length() - 1
    trials = int(owners[-1]) + 1
    acc = np.zeros((stacked.shape[0], trials, *stacked.shape[2:]))
    ranks = np.arange(owners.size) - np.searchsorted(owners, owners)
    for sl in column_chunks(len(anchors), stacked[:, 0].size):
        w = _walsh_columns(anchors[sl], resolution)
        (blocks,) = project_columns(stacked[:, sl], *_level_ranges(levels[sl]))
        blocks = blocks[bit_reversal(resolution)]
        blocks *= w.reshape(w.shape + (1,) * (stacked.ndim - 2))
        for rank in np.unique(ranks[sl]).tolist():
            cols = np.flatnonzero(ranks[sl] == rank)
            acc[:, owners[sl][cols]] += blocks[:, cols]
    return acc


@pytest.mark.parametrize("segment", [False, True])
@pytest.mark.parametrize("dim", [None, 3])
@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("policy", POLICIES)
def test_adjoint_engine_matches_gathered_reference(
    monkeypatch, policy, resolution, dim, segment
):
    column_cells = (1 << resolution) * (dim or 1)
    monkeypatch.setattr(walsh, "COLUMN_BUDGET", 3 * column_cells)
    _, decs, owners = _stack_and_families(resolution, dim, policy, trials=3)
    stacked = np.stack(
        [draw(resolution, dim, policy, [11, resolution, c]) for c in range(len(decs))], axis=1
    )
    stacked[0, 0] = -0.0
    anchors = [d.anchor for d in decs]
    levels = [((0,) if segment else ()) + d.left_levels for d in decs]
    got = _block_sums_adjoint(stacked, np.array(anchors), _masks(levels), owners)
    reference = _adjoint_reference(stacked, anchors, levels, owners)
    assert got.shape == reference.shape
    assert got.tobytes() == reference.tobytes()


@pytest.mark.parametrize("segment", [False, True])
@pytest.mark.parametrize("dim", [None, 3])
@pytest.mark.parametrize("resolution", [1, 2, 3, 5])
@pytest.mark.parametrize("family", ["dyadic", "singletons"])
def test_adjoint_signed_zeros_match_the_multiply_reference(family, resolution, dim, segment):
    # Rademacher cells project to many exact zeros.  Trials 0-2 draw their
    # families; trial 3 has two columns with one anchor, the second the
    # negative of the first, so they cancel to zeros; column 1 is all -0.0
    rng = np.random.default_rng([resolution, len(family)])
    count = min(3, _family_capacity(resolution, family))
    decs, owners = [], []
    for t in range(3):
        drawn = family_decompose(random_interval_family(rng, resolution, count, family))
        decs += drawn
        owners += [t] * len(drawn)
    anchors = [d.anchor for d in decs] + [decs[0].anchor] * 2
    levels = [((0,) if segment else ()) + d.left_levels for d in decs]
    levels += [levels[0]] * 2
    owners = np.array(owners + [3, 3])
    keys = [[13, resolution, c] for c in range(owners.size)]
    stacked = np.stack([draw(resolution, dim, "rademacher-cells", key) for key in keys], axis=1)
    stacked[:, -1] = -stacked[:, -2]
    stacked[:, 1] = -0.0
    got = _block_sums_adjoint(stacked, np.array(anchors), _masks(levels), owners)
    reference = _adjoint_reference(stacked, anchors, levels, owners)
    assert got.tobytes() == reference.tobytes()
    assert not np.signbit(got[got == 0]).any()


@pytest.mark.parametrize("resolution", [1, 2, 3, 4])
def test_moved_synthesis_is_the_anchor_times_the_projection_in_value(resolution):
    # one column's moved synthesis equals w_a * P(h) in value, but an exact
    # zero can come out with the other sign: the adjoint is bitwise only
    # after its +0.0 accumulator has absorbed the signs of its zeros
    n = 1 << resolution
    rev = bit_reversal(resolution)
    h = draw(resolution, None, "rademacher-cells", [17, resolution])[:, None]
    coeffs = analyze_values(h)
    signs_differ = 0
    for a in range(n):
        w = _walsh_columns([a], resolution)
        for mask in range(1, 2 << resolution):
            column, lo, hi = _mask_ranges(np.array([mask]), resolution)
            base = (a ^ lo) & ~(hi - lo - 1)
            ranges = (column, base, base + hi - lo)
            moved = _gather_synthesis(coeffs, np.array([a]), np.array([0]), *ranges)
            (projection,) = project_columns(h, column[None], lo[None], hi[None])
            assert np.array_equal(moved[rev], w * projection[rev]), (a, mask)
            signs_differ += moved[rev].tobytes() != (w * projection[rev]).tobytes()
    assert signs_differ
