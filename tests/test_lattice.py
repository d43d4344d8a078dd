import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshlab.dyadic import IntInterval
from walshlab.intervals import family_decompose
from walshlab.lattice import (
    LatticeFunction,
    cz_decompose,
    duality_pairing,
    lattice_norm,
    rad_norm_values,
    root_means,
    segment_transform,
    segment_transform_adjoint,
    split_at_cells,
    stopping_cells,
    verify_cz,
)
from walshlab.operators import block_sum_family
from walshlab.walsh import DyadicFunction, walsh_eval


def random_lattice(resolution, dim, q=2.0, seed=0):
    rng = np.random.default_rng(seed)
    return LatticeFunction(resolution, rng.standard_normal((1 << resolution, dim)), q)


def random_family(resolution, count, seed=0):
    rng = np.random.default_rng(seed)
    pts = np.sort(rng.choice((1 << resolution) + 1, size=2 * count, replace=False))
    return [IntInterval(int(pts[2 * i]), int(pts[2 * i + 1])) for i in range(count)]


def rad_of_points(coords, p, mode="exact", seed=None):
    """L^p Rademacher norm of the points of l^2(d) in the rows of `coords`: the
    one cell of `rad_norm_values` over resolution-0 components."""
    comps = [LatticeFunction(0, [row], 2.0) for row in np.atleast_2d(coords)]
    return float(rad_norm_values(comps, p, mode, seed)[0])


def lp_x(f, p):
    """L^p norm in x of the pointwise lattice norm: `root_means` of the cell norms."""
    return float(root_means(f.norm_values()[None], p, p)[0])


def lp_radx(components, p):
    """L^p norm in x of the cellwise Rademacher norm of a family."""
    return float(root_means(rad_norm_values(components, p)[None], p, p)[0])


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_lattice_point_norms():
    assert lattice_norm(np.array([3.0, 4.0]), 2) == pytest.approx(5.0)
    assert lattice_norm(np.array([3.0, -4.0]), np.inf) == pytest.approx(4.0)
    assert lattice_norm(np.array([1.0, 1.0, 1.0]), 1) == pytest.approx(3.0)


@pytest.mark.parametrize("q", [3.0, 200.0])
def test_lattice_norms_redo_cells_out_of_float_range(q):
    rng = np.random.default_rng(5)
    coords = rng.standard_normal((4, 6, 3))
    plain = (np.abs(coords) ** q).sum(axis=2) ** (1.0 / q)
    coords[1, 2] *= 1e300  # the powers overflow
    coords[2, 4] *= 1e-300  # the powers underflow, the cell is not zero
    coords[3, 0] = 0.0
    coords[0, 5, 1] = np.nan
    norms = lattice_norm(coords, q, axis=2)
    for cell, scale in (((1, 2), 1e300), ((2, 4), 1e-300)):
        assert norms[cell] == pytest.approx(plain[cell] * scale, rel=1e-12)
    assert norms[3, 0] == 0.0 and np.isnan(norms[0, 5])
    others = np.ones(plain.shape, dtype=bool)
    others[1, 2] = others[2, 4] = others[3, 0] = others[0, 5] = False
    assert norms[others].tobytes() == plain[others].tobytes()
    # the same cells along another axis, and a single cell
    assert lattice_norm(coords.transpose(2, 0, 1), q, axis=0).tobytes() == norms.tobytes()
    assert lattice_norm(coords[1, 2], q) == norms[1, 2]


def test_lp_x_norm_examples():
    f = LatticeFunction(3, np.tile([3.0, 4.0], (8, 1)), 2)
    assert lp_x(f, 2) == pytest.approx(5.0)
    scalar = random_lattice(5, 1, seed=1)
    d1 = scalar.values[:, 0]
    for p in (1, 2, 4):
        expected = np.mean(np.abs(d1) ** p) ** (1.0 / p)
        assert lp_x(scalar, p) == pytest.approx(expected, abs=1e-12)


def test_lp_x_norm_monotone_in_p():
    f = random_lattice(6, 3, seed=2)
    norms = [lp_x(f, p) for p in (1, 2, 4, 8)]
    assert norms == sorted(norms)


def test_two_convexity_regimes():
    rng = np.random.default_rng(3)
    violations_high, violations_low = 0, 0
    for _ in range(50):
        for q, counter in ((2.0, "hi"), (3.0, "hi"), (1.2, "lo")):
            pts = rng.standard_normal((5, 4))
            # lattice norm of the coordinatewise l2 sum vs l2 sum of the norms
            lhs = lattice_norm(np.sqrt((pts**2).sum(axis=0)), q)
            rhs = np.sqrt((lattice_norm(pts, q, axis=1) ** 2).sum())
            if lhs > rhs + 1e-12:
                if q >= 2:
                    violations_high += 1
                else:
                    violations_low += 1
    assert violations_high == 0  # 2-convex regime
    assert violations_low > 0  # expected failures below q = 2, recorded only


def test_rad_norm_examples():
    for p in (1, 2, 4):
        assert rad_of_points([3.0, -4.0], p) == pytest.approx(5.0)
    assert rad_of_points([[3.0], [4.0]], 2) == pytest.approx(5.0)


@settings(max_examples=30)
@given(st.integers(0, 10_000))
def test_rad_norm_sign_and_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((4, 3))
    base = rad_of_points(pts, 3)
    flipped = pts.copy()
    flipped[int(rng.integers(0, 4))] *= -1
    assert rad_of_points(flipped, 3) == pytest.approx(base, abs=1e-10)
    assert rad_of_points(pts[rng.permutation(4)], 3) == pytest.approx(base, abs=1e-10)


def test_rad_norm_euclidean_at_p2_d1():
    rng = np.random.default_rng(4)
    coords = rng.standard_normal(6)
    assert rad_of_points(coords[:, None], 2) == pytest.approx(
        np.sqrt((coords**2).sum()), abs=1e-10
    )


def test_rad_norm_exact_limit_and_mc():
    pts = np.ones((21, 1))
    with pytest.raises(ValueError):
        rad_of_points(pts, 2, "exact")
    v1 = rad_of_points(pts, 2, "mc:2000", seed=1)
    v2 = rad_of_points(pts, 2, "mc:2000", seed=1)
    assert v1 == v2  # deterministic in the seed
    assert v1 == pytest.approx(np.sqrt(21.0), rel=0.1)
    with pytest.raises(ValueError):
        rad_of_points(pts[:2], 2, "bogus")


def test_norms_refuse_nan_exponents():
    with pytest.raises(ValueError, match="lattice exponent must be >= 1, got nan"):
        lattice_norm(np.array([[3.0, 4.0]]), np.nan)
    nan_q = LatticeFunction(3, random_lattice(3, 2, seed=6).values, np.nan)
    with pytest.raises(ValueError, match="lattice exponent must be >= 1, got nan"):
        nan_q.norm_values()
    with pytest.raises(ValueError, match="lattice exponent must be >= 1, got nan"):
        rad_norm_values([nan_q], 2.0)


def test_families_refuse_nan_exponents():
    # nan != nan, so the exponent is refused before the components are compared
    g = LatticeFunction(3, random_lattice(3, 2, seed=7).values, np.nan)
    decs = family_decompose([IntInterval(1, 3), IntInterval(4, 8)])
    with pytest.raises(ValueError, match="lattice exponent must be >= 1, got nan"):
        rad_norm_values([g, g], 2.0)
    with pytest.raises(ValueError, match="lattice exponent must be >= 1, got nan"):
        segment_transform_adjoint([g, g], decs)


def test_lp_radx_norm_examples():
    f = random_lattice(5, 3, seed=5)
    assert lp_radx([f], 4) == pytest.approx(lp_x(f, 4), abs=1e-10)
    # d = 1, p = 2: orthogonality of signs gives the l2 sum of L2 norms
    comps = [random_lattice(5, 1, seed=10 + s) for s in range(4)]
    lhs = lp_radx(comps, 2)
    rhs = np.sqrt(sum(lp_x(c, 2) ** 2 for c in comps))
    assert lhs == pytest.approx(rhs, abs=1e-10)


@pytest.mark.parametrize("p", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("norm", [rad_norm_values])
def test_rad_norms_refuse_non_finite_exponent(norm, p):
    comps = [random_lattice(3, 2, seed=30 + s) for s in range(3)]
    with pytest.raises(ValueError, match="finite"):
        norm(comps, p)


@pytest.mark.parametrize("squares", [False, True])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 8.0])
def test_root_means_keep_the_plain_bits(p, squares):
    # magnitudes are raised to p, sums of squares to p/2
    base = np.abs(np.random.default_rng(7).standard_normal((6, 64)))
    if squares:
        base = base**2 + base[::-1] ** 2
    exponent = p / 2.0 if squares else p
    plain = [float(np.mean(row**exponent) ** (1.0 / p)) for row in base]
    assert root_means(base, p, exponent).tolist() == plain


def test_root_means_redo_rows_out_of_float_range():
    p = 1000.0
    base = np.array(
        [
            [2e3, 1e3, 0.0, 5e2],  # 2e3 ** 1000 overflows
            [1e-3, 2e-3, 1e-3, 0.0],  # 2e-3 ** 1000 underflows to 0
            [1.0, 0.5, 0.25, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [np.inf, 1.0, 1.0, 1.0],
            [np.nan, 1.0, 1.0, 1.0],
        ]
    )
    for exponent, rows in ((p, base), (p / 2, base**2)):
        out = root_means(rows, p, exponent)
        # the largest entry dominates the mean of the four powers
        assert out[0] == pytest.approx(2e3 * 0.25 ** (1 / p), rel=1e-12)
        assert out[1] == pytest.approx(2e-3 * 0.25 ** (1 / p), rel=1e-12)
        assert out[2] == float(np.mean(rows[2] ** exponent) ** (1 / p))
        assert out[3] == 0.0 and out[4] == np.inf and np.isnan(out[5])


@pytest.mark.parametrize("mode", ["exact", "mc:64"])
@pytest.mark.parametrize("scale", [1e3, 1e-3])
def test_rad_norms_redo_cells_out_of_float_range(mode, scale):
    p = 200.0
    comps = [random_lattice(3, 2, seed=40 + s) for s in range(5)]
    unit = rad_norm_values(comps, p, mode, seed=9)
    # scaling cell 2 takes its p-th powers out of range, and only its own
    factor = np.where(np.arange(8) == 2, scale, 1.0)[:, None]
    scaled = [LatticeFunction(3, c.values * factor, 2.0) for c in comps]
    out = rad_norm_values(scaled, p, mode, seed=9)
    assert out[2] == pytest.approx(scale * unit[2], rel=1e-12)
    others = np.arange(8) != 2
    assert out[others].tolist() == unit[others].tolist()


def test_rad_norms_redo_over_one_unseeded_sample(monkeypatch):
    import walshlab.lattice as lattice

    seeds, sign_chunks = [], lattice._sign_chunks

    def spy(count, mode, seed, *rest):
        seeds.append(seed)
        return sign_chunks(count, mode, seed, *rest)

    monkeypatch.setattr(lattice, "_sign_chunks", spy)
    comps = [LatticeFunction(0, [[1e3 * (s + 1)]], 2.0) for s in range(3)]
    out = rad_norm_values(comps, 1000.0, "mc:16")
    assert len(seeds) == 3 and seeds[0] is not None and len(set(seeds)) == 1
    assert np.isfinite(out).all()


def test_kahane_contraction_equality_for_unimodular_multipliers():
    comps = [random_lattice(5, 2, seed=20 + s) for s in range(3)]
    twisted = [
        LatticeFunction(5, walsh_eval(7 * (s + 1) % 32, 5).values[:, None] * c.values, 2.0)
        for s, c in enumerate(comps)
    ]
    for p in (2, 3):
        assert lp_radx(twisted, p) == pytest.approx(lp_radx(comps, p), abs=1e-10)


# ---------------------------------------------------------------------------
# segment transform pair
# ---------------------------------------------------------------------------


def test_segment_transform_constant_input():
    const = LatticeFunction(5, np.tile([2.0, -1.0], (32, 1)), 2)
    decs = family_decompose([IntInterval(3, 9), IntInterval(16, 27)])
    comps = segment_transform(const, decs)
    for comp, dec in zip(comps, decs):
        if dec.anchor == 0:
            np.testing.assert_allclose(comp.values, const.values, atol=1e-12)
        else:
            np.testing.assert_allclose(comp.values, 0.0, atol=1e-12)


def test_segment_transform_full_interval_is_identity():
    f = random_lattice(5, 2, seed=6)
    decs = family_decompose([IntInterval(0, 32)])
    np.testing.assert_allclose(
        segment_transform(f, decs)[0].values, f.values, atol=1e-10
    )
    np.testing.assert_allclose(
        segment_transform_adjoint([f], decs).values, f.values, atol=1e-10
    )


def test_segment_transform_d1_reduces_to_scalar_blocks():
    f = random_lattice(6, 1, seed=7)
    decs = family_decompose(random_family(6, 3, seed=7))
    comps = segment_transform(f, decs)
    scalar = DyadicFunction(6, f.values[:, 0])
    g = block_sum_family(scalar, decs)
    for s, dec in enumerate(decs):
        anchor_term = (
            walsh_eval(dec.anchor, 6).values * scalar.values
        ).mean()  # coefficient of w_{a_s} in f
        expected = g.values[s] + anchor_term
        np.testing.assert_allclose(comps[s].values[:, 0], expected, atol=1e-10)


def test_adjoint_output_of_constants_sits_on_anchor_spectra():
    decs = family_decompose(random_family(6, 3, seed=8))
    gs = [LatticeFunction(6, np.tile([float(s + 1)], (64, 1)), 2) for s in range(3)]
    out = segment_transform_adjoint(gs, decs)
    from walshlab.walsh import analyze_values

    coeffs = analyze_values(out.values[:, 0])
    support = set(np.flatnonzero(np.abs(coeffs) > 1e-12).tolist())
    anchors = {dec.anchor for dec in decs}
    assert support <= anchors


def test_adjointness_brute_force():
    rng = np.random.default_rng(9)
    for trial in range(20):
        count = int(rng.integers(1, 5))
        decs = family_decompose(random_family(6, count, seed=100 + trial))
        d = int(rng.integers(1, 5))
        f = random_lattice(6, d, seed=200 + trial)
        gs = [random_lattice(6, d, seed=300 + 10 * trial + s) for s in range(count)]
        tf = segment_transform(f, decs)
        rhs = duality_pairing(f, segment_transform_adjoint(gs, decs))
        signs = 1.0 - 2.0 * (
            (np.arange(1 << count)[:, None] >> np.arange(count)) & 1
        )
        lhs = 0.0
        for row in signs:
            tsum = sum(float(row[s]) * tf[s].values for s in range(count))
            gsum = sum(float(row[s]) * gs[s].values for s in range(count))
            lhs += float((tsum * gsum).sum(axis=1).mean())
        lhs /= signs.shape[0]
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_segment_transform_adjoint_refuses_mixed_exponents_and_no_components():
    decs = family_decompose(random_family(4, 2, seed=3))
    gs = [random_lattice(4, 2, q=2.0, seed=4), random_lattice(4, 2, q=3.0, seed=5)]
    with pytest.raises(ValueError, match="different lattice exponents"):
        segment_transform_adjoint(gs, decs)
    with pytest.raises(ValueError, match="at least one component"):
        segment_transform_adjoint([], [])


# ---------------------------------------------------------------------------
# Calderon-Zygmund splitting
# ---------------------------------------------------------------------------


def test_cz_trivial_when_bounded_by_lambda():
    g = random_lattice(5, 2, seed=10)
    lam = float(g.norm_values().max()) + 1.0
    res = cz_decompose(g, lam)
    assert res.cells == ()
    np.testing.assert_allclose(res.b.values, 0.0, atol=1e-15)
    np.testing.assert_array_equal(res.h.values, g.values)


def test_cz_worked_example():
    g = LatticeFunction(2, np.array([[4.0], [0.0], [0.0], [0.0]]), 2)
    res = cz_decompose(g, 1.0)
    assert [(c.level, c.position) for c in res.cells] == [(1, 0)]
    np.testing.assert_allclose(res.h.values[:, 0], [2.0, 2.0, 0.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(res.b.values[:, 0], [2.0, -2.0, 0.0, 0.0], atol=1e-15)
    assert float(res.h.norm_values().max()) == pytest.approx(2.0)  # exactly 2*lam
    assert res.b.values.mean(axis=0)[0] == pytest.approx(0.0, abs=1e-15)
    assert res.bad_set_mask().mean() == pytest.approx(0.5)
    report = verify_cz(res, g)
    assert report["passed"]


def test_cz_scaling_homogeneity():
    g = random_lattice(5, 2, seed=11)
    lam = float(g.norm_values().mean()) * 1.3
    base = cz_decompose(g, lam)
    scaled = cz_decompose(LatticeFunction(5, 3.0 * g.values, g.q), 3.0 * lam)
    assert [(c.level, c.position) for c in base.cells] == [
        (c.level, c.position) for c in scaled.cells
    ]
    np.testing.assert_allclose(scaled.b.values, 3.0 * base.b.values, atol=1e-12)
    np.testing.assert_allclose(scaled.h.values, 3.0 * base.h.values, atol=1e-12)


def test_cz_rejects_bad_threshold():
    g = random_lattice(4, 1, seed=12)
    with pytest.raises(ValueError):
        cz_decompose(g, 0.0)
    with pytest.raises(ValueError):
        cz_decompose(g, -1.0)


def test_cz_invariants_random_battery():
    rng = np.random.default_rng(13)
    for trial in range(60):
        res_bits = int(rng.integers(3, 7))
        d = int(rng.integers(1, 4))
        vals = rng.standard_normal((1 << res_bits, d)) * np.exp(
            rng.standard_normal((1 << res_bits, 1))
        )
        g = LatticeFunction(res_bits, vals, 2)
        l1 = float(g.norm_values().mean())
        lam = l1 * float(rng.uniform(1.0, 16.0))
        report = verify_cz(cz_decompose(g, lam), g)
        assert report["passed"], (trial, report)
        assert not report["root_selected"]


def test_cz_root_selected_regime_reported():
    # below the L1 norm the root is a stopping cell and h degrades to the mean
    g = LatticeFunction(3, np.tile([4.0], (8, 1)), 2)
    res = cz_decompose(g, 0.5)
    assert [(c.level, c.position) for c in res.cells] == [(0, 0)]
    report = verify_cz(res, g)
    assert report["root_selected"]
    assert report["passed"]
    np.testing.assert_allclose(res.h.values, 4.0)


def test_cz_stopping_cells_are_maximal():
    g = random_lattice(6, 1, seed=14)
    lam = float(g.norm_values().mean()) * 1.5
    res = cz_decompose(g, lam)
    norms = g.norm_values()
    for cell in res.cells:
        sl = cell.grid_slice(6)
        assert norms[sl].mean() > lam
        if cell.level > 0:
            parent_width = 1 << (6 - cell.level + 1)
            parent = (cell.position // 2) * parent_width
            assert norms[parent : parent + parent_width].mean() <= lam


def test_tstar_of_bad_part_supported_on_stopping_cells():
    rng = np.random.default_rng(15)
    for trial in range(20):
        count = int(rng.integers(1, 4))
        decs = family_decompose(random_family(6, count, seed=400 + trial))
        d = int(rng.integers(1, 4))
        gs = [
            LatticeFunction(
                6,
                rng.standard_normal((64, d)) * np.exp(rng.standard_normal((64, 1))),
                2,
            )
            for _ in range(count)
        ]
        leaf = rad_norm_values(gs, 2.0)
        lam = float(np.median(leaf)) * 2.0 + 1e-9
        cells = stopping_cells(leaf, lam)
        bs = []
        for g in gs:
            bad, good = split_at_cells(g.values, cells, 6)
            np.testing.assert_allclose(bad + good, g.values, atol=1e-12)
            bs.append(LatticeFunction(6, bad, 2))
        tb = segment_transform_adjoint(bs, decs)
        mask = np.zeros(64, dtype=bool)
        for cell in cells:
            mask[cell.grid_slice(6)] = True
        if (~mask).any():
            assert float(tb.norm_values()[~mask].max()) <= 1e-10
