import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshlab.dyadic import delta_block
from walshlab.walsh import (
    DyadicCell,
    DyadicFunction,
    ResolutionError,
    analyze_values,
    bit_reversal,
    expectation,
    fwht,
    mart_diff,
    project,
    restrict_rescale,
    synthesize_values,
    walsh_eval,
)
from walshlab.lattice import LatticeFunction, root_means


def walsh_by_sines(n, resolution):
    """Independent oracle: product of sign(sin(2**k pi x)) at cell midpoints."""
    mids = (np.arange(1 << resolution) + 0.5) / (1 << resolution)
    vals = np.ones(1 << resolution)
    k = 0
    while n >> k:
        if (n >> k) & 1:
            vals = vals * np.sign(np.sin(2 ** (k + 1) * np.pi * mids))
        k += 1
    return vals


def random_f(resolution, seed=0):
    rng = np.random.default_rng(seed)
    return DyadicFunction(resolution, rng.standard_normal(1 << resolution))


def test_walsh_eval_examples():
    np.testing.assert_array_equal(walsh_eval(0, 4).values, np.ones(16))
    np.testing.assert_array_equal(walsh_eval(1, 1).values, [1.0, -1.0])
    np.testing.assert_array_equal(walsh_eval(3, 2).values, [1.0, -1.0, -1.0, 1.0])


def test_walsh_eval_matches_sine_oracle():
    for n in range(32):
        np.testing.assert_array_equal(walsh_eval(n, 5).values, walsh_by_sines(n, 5))


def test_walsh_eval_needs_resolution():
    with pytest.raises(ResolutionError):
        walsh_eval(8, 3)


@settings(max_examples=60)
@given(st.integers(0, 255), st.integers(0, 255))
def test_multiplicativity(n1, n2):
    lhs = walsh_eval(n1, 8).values * walsh_eval(n2, 8).values
    rhs = walsh_eval(n1 ^ n2, 8).values
    np.testing.assert_array_equal(lhs, rhs)


def test_analyze_unit_spectrum():
    coeffs = analyze_values(walsh_eval(5, 3).values)
    expected = np.zeros(8)
    expected[5] = 1.0
    np.testing.assert_allclose(coeffs, expected, atol=1e-12)


def test_analyze_constant():
    coeffs = analyze_values(DyadicFunction.constant(2.5, 4).values)
    assert coeffs[0] == pytest.approx(2.5, abs=1e-12)
    np.testing.assert_allclose(coeffs[1:], 0.0, atol=1e-12)


def test_analyze_matches_naive_inner_products():
    f = random_f(6, seed=3)
    naive = np.stack([walsh_by_sines(n, 6) for n in range(64)]) @ f.values / 64
    np.testing.assert_allclose(analyze_values(f.values), naive, atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_plancherel(seed):
    f = random_f(10, seed=seed)
    coeffs = analyze_values(f.values)
    assert abs((coeffs**2).sum() - (f.values**2).mean()) < 1e-10


def test_synthesize_unit_and_zero():
    coeffs = np.zeros(16)
    coeffs[7] = 1.0
    np.testing.assert_allclose(
        synthesize_values(coeffs), walsh_eval(7, 4).values, atol=1e-12
    )
    np.testing.assert_allclose(synthesize_values(np.zeros(16)), 0.0, atol=1e-15)


def test_round_trip_resolution_12():
    f = random_f(12, seed=9)
    back = synthesize_values(analyze_values(f.values))
    assert float(np.abs(back - f.values).max()) < 1e-10


def test_project_examples():
    f = random_f(6, seed=4)
    np.testing.assert_allclose(
        project(delta_block(3), f).values, mart_diff(3, f).values, atol=1e-10
    )
    np.testing.assert_allclose(project([], f).values, 0.0, atol=1e-15)
    np.testing.assert_allclose(project(range(64), f).values, f.values, atol=1e-10)


def test_project_idempotent_self_adjoint():
    f, g = random_f(6, seed=5), random_f(6, seed=6)
    A = [1, 5, 17, 40]
    pf = project(A, f)
    np.testing.assert_allclose(project(A, pf).values, pf.values, atol=1e-10)
    lhs = (pf.values * g.values).mean()
    rhs = (f.values * project(A, g).values).mean()
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_project_out_of_range():
    with pytest.raises(ResolutionError):
        project([64], random_f(6))


def test_expectation_examples():
    f = random_f(6, seed=7)
    np.testing.assert_allclose(
        expectation(0, f).values, f.integral(), atol=1e-12
    )
    np.testing.assert_allclose(expectation(6, f).values, f.values, atol=1e-15)
    np.testing.assert_allclose(
        expectation(3, walsh_eval(12, 6)).values, 0.0, atol=1e-12
    )


def test_expectation_equals_spectral_mask():
    f = random_f(7, seed=8)
    for k in (0, 2, 5, 7):
        np.testing.assert_allclose(
            expectation(k, f).values, project(range(1 << k), f).values, atol=1e-10
        )


def test_expectation_level_error():
    with pytest.raises(ResolutionError):
        expectation(7, random_f(6))


def test_mart_diff_examples():
    f = random_f(6, seed=10)
    np.testing.assert_allclose(
        mart_diff(0, f).values, f.integral(), atol=1e-12
    )
    w = walsh_eval(11, 6)  # 11 lies in block 4
    np.testing.assert_allclose(mart_diff(4, w).values, w.values, atol=1e-10)


def test_mart_diff_two_formulas_agree():
    f = random_f(7, seed=11)
    for k in range(8):
        np.testing.assert_allclose(
            mart_diff(k, f).values, project(delta_block(k), f).values, atol=1e-10
        )


def test_telescoping():
    f = random_f(8, seed=12)
    total = np.zeros(f.size)
    for k in range(9):
        total += mart_diff(k, f).values
    np.testing.assert_allclose(total, f.values, atol=1e-10)


def test_mart_diff_integrates_to_zero_on_fine_cells():
    # the level-j difference integrates to zero over any cell of level < j
    f = random_f(6, seed=13)
    for j in range(1, 7):
        d = mart_diff(j, f)
        for level in range(j):
            sums = d.values.reshape(1 << level, -1).mean(axis=1)
            np.testing.assert_allclose(sums, 0.0, atol=1e-12)


def test_mart_diff_constant_on_coarser_cells():
    f = random_f(6, seed=14)
    for j in range(1, 7):
        d = mart_diff(j, f).values.reshape(1 << j, -1)
        assert float(np.abs(d - d[:, :1]).max()) < 1e-12


def test_locality_of_mart_diff():
    # values on a cell depend only on the restriction when 2**(j-1) >= 1/|I|
    rng = np.random.default_rng(15)
    f = random_f(6, seed=15)
    cell = DyadicCell(2, 1)
    sl = cell.grid_slice(6)
    perturbed = f.values.copy()
    outside = np.ones(64, dtype=bool)
    outside[sl] = False
    perturbed[outside] += rng.standard_normal(outside.sum())
    g = DyadicFunction(6, perturbed)
    for j in range(3, 7):
        np.testing.assert_allclose(
            mart_diff(j, f).values[sl], mart_diff(j, g).values[sl], atol=1e-12
        )


def test_restrict_rescale_examples():
    f = random_f(6, seed=16)
    whole = restrict_rescale(f, DyadicCell(0, 0))
    np.testing.assert_array_equal(whole.values, f.values)
    const = restrict_rescale(DyadicFunction.constant(3.0, 6), DyadicCell(2, 3))
    np.testing.assert_allclose(const.values, 3.0)


def test_restrict_rescale_walsh_drops_low_digits():
    a, m = 13, 2
    for pos in range(4):
        r = restrict_rescale(walsh_eval(a, 6), DyadicCell(m, pos))
        sign = walsh_eval(a & 3, m).values[pos]
        np.testing.assert_array_equal(r.values, sign * walsh_eval(a >> m, 4).values)


def test_rescaling_identity():
    # level-j difference of a modulated f restricted to a cell equals the
    # sign times the rescaled difference of the rescaled modulated restriction
    rng = np.random.default_rng(17)
    f = random_f(7, seed=17)
    for _ in range(20):
        m = int(rng.integers(1, 5))
        pos = int(rng.integers(0, 1 << m))
        a = int(rng.integers(0, 1 << 7))
        cell = DyadicCell(m, pos)
        sl = cell.grid_slice(7)
        wa_f = walsh_eval(a, 7) * f
        f_tilde = restrict_rescale(f, cell)
        w_tilde = walsh_eval(a >> m, 7 - m)
        sign = walsh_eval(a & ((1 << m) - 1), m).values[pos]
        for j in range(m + 1, 8):
            lhs = mart_diff(j, wa_f).values[sl]
            rhs = sign * mart_diff(j - m, w_tilde * f_tilde).values
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_restrict_rescale_level_error():
    with pytest.raises(ResolutionError):
        restrict_rescale(random_f(3), DyadicCell(4, 0))


def test_operand_grids_must_match():
    with pytest.raises(ResolutionError):
        random_f(4) - random_f(5)
    with pytest.raises(ResolutionError):
        random_f(4) * random_f(5)


def test_norm_and_integral():
    f = DyadicFunction(1, [3.0, -1.0])
    assert f.integral() == pytest.approx(1.0)
    # the L^p norms of a scalar function are those of its d = 1 lattice form
    norms = LatticeFunction(1, f.values[:, None], 2.0).norm_values()[None]
    assert root_means(norms, 1, 1)[0] == pytest.approx(2.0)
    assert root_means(norms, 2, 2)[0] == pytest.approx(np.sqrt(5.0))


def radix2_fwht(values):
    """The radix-2 butterfly the radix-4 one replaced, kept as the reference."""
    a = np.array(values, dtype=float)
    n = a.shape[0]
    trailing = a.shape[1:]
    h = 1
    while h < n:
        a = a.reshape(n // (2 * h), 2, h, *trailing)
        top = a[:, 0].copy()
        a[:, 0] += a[:, 1]
        a[:, 1] = top - a[:, 1]
        a = a.reshape(n, *trailing)
        h *= 2
    return a


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def check_against_radix2(x):
    """All three transforms of `x`, in whatever layout, bitwise against the
    radix-2 reference on a contiguous copy; `x` must be left untouched."""
    n = x.shape[0]
    rev = bit_reversal(n.bit_length() - 1)
    before = x.copy()
    contiguous = np.ascontiguousarray(x)
    assert_same_bits(fwht(x), radix2_fwht(contiguous))
    assert_same_bits(analyze_values(x), radix2_fwht(contiguous[rev]) / n)
    assert_same_bits(synthesize_values(x), radix2_fwht(contiguous)[rev])
    assert_same_bits(x, before)


TRANSFORM_SHAPES = [(n, ()) for n in range(21)] + [
    (n, trailing) for trailing in ((3,), (2, 3)) for n in range(15)
]


@pytest.mark.parametrize(
    "resolution, trailing",
    TRANSFORM_SHAPES,
    ids=[f"N{n}" + "".join(f"x{k}" for k in t) for n, t in TRANSFORM_SHAPES],
)
def test_butterfly_matches_radix2_bitwise(resolution, trailing):
    rng = np.random.default_rng(resolution)
    check_against_radix2(rng.standard_normal((1 << resolution, *trailing)))


def test_butterfly_accepts_any_input_layout():
    rng = np.random.default_rng(7)
    f = random_f(9, seed=7)
    assert not f.values.flags.writeable
    check_against_radix2(f.values)
    stacked = np.asfortranarray(rng.standard_normal((1 << 7, 6, 3)))
    check_against_radix2(stacked)
    check_against_radix2(stacked[:, 1:5])
    check_against_radix2(rng.standard_normal((1 << 7, 9, 2))[:, 2:7])


@pytest.mark.parametrize("transform", [fwht, analyze_values, synthesize_values])
@pytest.mark.parametrize("length", [0, 3, 6])
def test_transforms_refuse_lengths_not_a_power_of_two(transform, length):
    with pytest.raises(ValueError, match=f"length must be a power of two, got {length}"):
        transform(np.ones(length))
