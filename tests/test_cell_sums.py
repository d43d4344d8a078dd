"""The dyadic pyramid `cell_sums` and the operators folded over it.

The reference functions below are test-local copies of the hand-rolled
level sweeps that `cell_sums` replaced.  Every fold must agree with them
bitwise, including at 8 and more components, where numpy sums a contiguous
axis pairwise: a component sum over a (cells, S) array whose component axis
is contiguous rounds differently and fails here, although S = 4 inputs
would not notice.
"""

import numpy as np
import pytest

from walshlab.lattice import (
    CZResult,
    LatticeFunction,
    cells_mask,
    cz_decompose,
    split_at_cells,
    stopping_cells,
    verify_cz,
)
from walshlab.operators import (
    SeqFunction,
    maximal_function_stack,
    rms_maximal,
    rms_maximal_stack,
    sharp_maximal,
    sharp_maximal_stack,
    square_function,
    square_function_stack,
)
from walshlab.walsh import DyadicCell, DyadicFunction, cell_sums

COMPONENTS = (1, 3, 8, 12)
RESOLUTIONS = (0, 1, 5, 9)


# ---------------------------------------------------------------------------
# Reference copies of the replaced sweeps
# ---------------------------------------------------------------------------


def _ref_level_stats(values, resolution):
    cur = values
    yield resolution, cur
    for level in range(resolution - 1, -1, -1):
        cur = cur[..., 0::2] + cur[..., 1::2]
        yield level, cur


def ref_sharp_maximal(g):
    n = 1 << g.resolution
    sq_levels = _ref_level_stats((g.values**2).sum(axis=0), g.resolution)
    comp_levels = _ref_level_stats(g.values, g.resolution)
    best = np.zeros(n)
    for (level, sq), (_, comp) in zip(sq_levels, comp_levels):
        count = 1 << (g.resolution - level)
        osc2 = sq / count - ((comp / count) ** 2).sum(axis=0)
        best = np.maximum(best, np.repeat(np.maximum(osc2, 0.0), count))
    return np.sqrt(best)


def ref_maximal_function(f):
    best = np.zeros(f.size)
    for level, sums in _ref_level_stats(np.abs(f.values), f.resolution):
        count = 1 << (f.resolution - level)
        best = np.maximum(best, np.repeat(sums / count, count))
    return best


def ref_rms_maximal(f):
    return np.sqrt(ref_maximal_function(DyadicFunction(f.resolution, f.values**2)))


def ref_square_function(g):
    res = g.resolution
    n = 1 << res
    means = [g.values]
    for _ in range(res):
        prev = means[-1]
        means.append(0.5 * (prev[:, 0::2] + prev[:, 1::2]))
    means.reverse()
    acc = np.zeros(n)
    for k in range(1, res + 1):
        diff = means[k] - np.repeat(means[k - 1], 2, axis=1)
        acc += np.repeat((diff**2).sum(axis=0), n >> k)
    return np.sqrt(acc)


def ref_stopping_cells(leaf_norms, lam):
    n = leaf_norms.shape[0]
    resolution = int(n).bit_length() - 1
    sums = [leaf_norms]
    for _ in range(resolution):
        prev = sums[-1]
        sums.append(prev[0::2] + prev[1::2])
    sums.reverse()
    cells = []
    covered = np.zeros(1, dtype=bool)
    for m in range(resolution + 1):
        count = 1 << (resolution - m)
        selected = (sums[m] / count > lam) & ~covered
        cells.extend(DyadicCell(m, int(pos)) for pos in np.flatnonzero(selected))
        covered |= selected
        if m < resolution:
            covered = np.repeat(covered, 2)
    return cells


def ref_split_at_cells(values, cells, resolution):
    good = values.copy()
    for cell in cells:
        sl = cell.grid_slice(resolution)
        good[sl] = values[sl].mean(axis=0)
    return values - good, good


def _ref_bad_set_mask(result, max_level=None):
    resolution = result.b.resolution
    mask = np.zeros(1 << resolution, dtype=bool)
    for cell in result.cells:
        if max_level is None or cell.level <= max_level:
            mask[cell.grid_slice(resolution)] = True
    return mask


def ref_verify_cz(result, g, tol=1e-10):
    n = 1 << g.resolution
    norms = g.norm_values()
    l1 = float(norms.mean())
    root_selected = any(c.level == 0 for c in result.cells)
    h_bound = l1 + tol if root_selected else 2.0 * result.lam + tol
    checks = {}
    checks["sum"] = float(np.abs(result.b.values + result.h.values - g.values).max()) <= tol
    checks["h_inf"] = float(result.h.norm_values().max()) <= h_bound
    checks["h_l1"] = float(result.h.norm_values().mean()) <= l1 + tol
    checks["b_mean_zero"] = float(np.abs(result.b.values.mean(axis=0)).max()) <= tol
    support_ok = True
    for level in range(1, g.resolution + 1):
        diff = np.repeat(
            result.b.values.reshape(1 << level, -1, g.dim).mean(axis=1), n >> level, axis=0
        )
        if level > 1:
            coarse = np.repeat(
                result.b.values.reshape(1 << (level - 1), -1, g.dim).mean(axis=1),
                n >> (level - 1),
                axis=0,
            )
            diff = diff - coarse
        else:
            diff = diff - result.b.values.mean(axis=0)
        off = ~_ref_bad_set_mask(result, max_level=level - 1)
        if off.any() and float(np.abs(diff[off]).max()) > tol:
            support_ok = False
            break
    checks["diff_support"] = support_ok
    measure = float(_ref_bad_set_mask(result).mean())
    checks["bad_set_measure"] = measure <= l1 / result.lam + tol
    disjoint = True
    cover = np.zeros(n, dtype=bool)
    for cell in result.cells:
        sl = cell.grid_slice(g.resolution)
        if cover[sl].any():
            disjoint = False
        cover[sl] = True
    checks["cells_disjoint"] = disjoint
    return {
        "passed": all(checks.values()),
        "checks": checks,
        "lam": result.lam,
        "l1_norm": l1,
        "root_selected": root_selected,
        "stopping_cells": len(result.cells),
        "bad_set_measure": measure,
    }


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _stack(components, resolution, seed=0):
    """(S, cells) values spanning several magnitudes, so rounding order shows."""
    rng = np.random.default_rng([components, resolution, seed])
    scale = 10.0 ** rng.integers(-3, 4, size=(components, 1))
    return rng.standard_normal((components, 1 << resolution)) * scale


def _heights(norms):
    """Heights from below every cell average (root selected) to above all."""
    return [
        float(norms.min()) / 2 if norms.min() > 0 else 1e-3,
        float(np.median(norms)),
        float(norms.mean()) * 1.5,
        float(np.quantile(norms, 0.9)),
        float(norms.max()) * 2,
    ]


# ---------------------------------------------------------------------------
# cell_sums and cells_mask
# ---------------------------------------------------------------------------


def test_cell_sums_levels_and_shapes():
    values = np.arange(16.0).reshape(8, 2)
    levels = cell_sums(values)
    assert iter(levels) is levels  # a generator: one level alive at a time
    levels = list(levels)
    assert [lv.shape for lv in levels] == [(8, 2), (4, 2), (2, 2), (1, 2)]
    assert levels[0] is values
    np.testing.assert_array_equal(levels[1], values[0::2] + values[1::2])
    np.testing.assert_array_equal(levels[-1][0], values.sum(axis=0))


def test_cell_sums_of_one_cell_is_the_root():
    values = np.array([3.0])
    assert [lv.tolist() for lv in cell_sums(values)] == [[3.0]]


def test_cells_mask_marks_the_union():
    cells = [DyadicCell(1, 0), DyadicCell(3, 6)]
    expected = np.zeros(8, dtype=bool)
    expected[0:4] = True
    expected[6] = True
    np.testing.assert_array_equal(cells_mask(cells, 3), expected)
    np.testing.assert_array_equal(cells_mask([], 3), np.zeros(8, dtype=bool))


# ---------------------------------------------------------------------------
# Folds over cell_sums against the replaced sweeps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("components", COMPONENTS)
def test_sequence_operators_match_reference(components, resolution):
    for seed in range(4):
        g = SeqFunction(resolution, _stack(components, resolution, seed))
        np.testing.assert_array_equal(sharp_maximal(g).values, ref_sharp_maximal(g))
        np.testing.assert_array_equal(square_function(g).values, ref_square_function(g))


@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("components", COMPONENTS)
def test_scalar_maximal_functions_match_reference(components, resolution):
    for row in _stack(components, resolution):
        f = DyadicFunction(resolution, row)
        np.testing.assert_array_equal(maximal_function_stack(f.values), ref_maximal_function(f))
        np.testing.assert_array_equal(rms_maximal(f).values, ref_rms_maximal(f))


@pytest.mark.parametrize("trials", (1, 3))
@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("components", COMPONENTS)
def test_stack_kernels_match_each_trial(components, resolution, trials):
    # trials ride along a trailing axis; each column must come out as its
    # trial alone, also over one cell, where numpy sums the components of a
    # lone trial pairwise, and whether the (cells, S, T) stack is contiguous
    # or a swapped view of an (S, cells, T) one
    rows = [_stack(components, resolution, seed) for seed in range(trials)]
    contiguous = np.stack([row.T for row in rows], -1)
    swapped = np.stack(rows, -1).swapaxes(0, 1)
    for stack in (contiguous, swapped):
        sharp, square = sharp_maximal_stack(stack), square_function_stack(stack)
        maximal, rms = maximal_function_stack(stack[:, 0]), rms_maximal_stack(stack[:, 0])
        for t in range(trials):
            g = SeqFunction(resolution, stack[:, :, t].T)
            f = DyadicFunction(resolution, stack[:, 0, t])
            np.testing.assert_array_equal(sharp[:, t], sharp_maximal(g).values)
            np.testing.assert_array_equal(square[:, t], square_function(g).values)
            np.testing.assert_array_equal(maximal[:, t], maximal_function_stack(f.values))
            np.testing.assert_array_equal(rms[:, t], rms_maximal(f).values)


@pytest.mark.parametrize("resolution", RESOLUTIONS)
@pytest.mark.parametrize("dim", COMPONENTS)
def test_cz_layer_matches_reference(dim, resolution):
    g = LatticeFunction(resolution, _stack(dim, resolution).T, 2.0)
    norms = g.norm_values()
    for lam in _heights(norms):
        cells = stopping_cells(norms, lam)
        assert cells == ref_stopping_cells(norms, lam)
        result = cz_decompose(g, lam)
        assert verify_cz(result, g) == ref_verify_cz(result, g)


# one family's trailing shape: a lone scalar or d = 1 component, whose cell
# means numpy sums pairwise, and families whose means it sums row by row
FAMILY_SHAPES = ((), (1,), (1, 1), (3,), (12, 1), (4, 3))


@pytest.mark.parametrize("resolution", (1, 5, 9))
@pytest.mark.parametrize("shape", FAMILY_SHAPES)
def test_split_at_cells_matches_reference(shape, resolution):
    n = 1 << resolution
    # C order, as a LatticeFunction holds them: an F-ordered family's cell
    # means would be pairwise sums over the contiguous cell axis
    values = np.ascontiguousarray(_stack(int(np.prod(shape)), resolution).T).reshape(n, *shape)
    norms = np.abs(values).reshape(n, -1).sum(axis=1)
    for lam in _heights(norms):
        cells = stopping_cells(norms, lam)
        split = split_at_cells(values, cells, resolution)
        for got, ref in zip(split, ref_split_at_cells(values, cells, resolution)):
            assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("resolution", (1, 5, 9))
def test_verify_cz_tampered_results_match_reference(resolution):
    g = LatticeFunction(resolution, _stack(3, resolution).T, 2.0)
    result = cz_decompose(g, float(np.median(g.norm_values())))
    overlapping = (DyadicCell(resolution, 0), DyadicCell(resolution - 1, 0))
    tampered = [
        # overlapping cells: a leaf and its own parent
        CZResult(result.b, result.h, result.cells + overlapping, result.lam),
        # a stopping cell dropped: the bad part leaks off the mask
        CZResult(result.b, result.h, result.cells[1:], result.lam),
        # good and bad parts swapped
        CZResult(result.h, result.b, result.cells, result.lam),
    ]
    for res in tampered:
        assert verify_cz(res, g) == ref_verify_cz(res, g)
    assert not verify_cz(tampered[0], g)["checks"]["cells_disjoint"]
