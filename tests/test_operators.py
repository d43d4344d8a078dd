import numpy as np
import pytest

from walshlab.dyadic import IntInterval
from walshlab.intervals import family_decompose
from walshlab.operators import (
    SeqFunction,
    block_sum,
    block_sum_family,
    maximal_function_stack,
    rms_maximal,
    sharp_maximal,
    square_function,
)
from walshlab.walsh import DyadicFunction, ResolutionError, project, walsh_eval


def random_f(resolution, seed=0):
    rng = np.random.default_rng(seed)
    return DyadicFunction(resolution, rng.standard_normal(1 << resolution))


def random_family(resolution, count, seed=0):
    rng = np.random.default_rng(seed)
    pts = np.sort(rng.choice((1 << resolution) + 1, size=2 * count, replace=False))
    return [IntInterval(int(pts[2 * i]), int(pts[2 * i + 1])) for i in range(count)]


def naive_sharp(values, resolution):
    """Direct ancestor sweep, quadratic cost; oracle for the fast version."""
    n = 1 << resolution
    out = np.zeros(n)
    for j in range(n):
        best = 0.0
        for m in range(resolution + 1):
            pos = j >> (resolution - m)
            sl = slice(pos << (resolution - m), (pos + 1) << (resolution - m))
            block = values[:, sl]
            mean = block.mean(axis=1, keepdims=True)
            best = max(best, float(((block - mean) ** 2).sum(axis=0).mean()))
        out[j] = np.sqrt(best)
    return out


def naive_maximal(values, resolution):
    n = 1 << resolution
    out = np.zeros(n)
    for j in range(n):
        best = 0.0
        for m in range(resolution + 1):
            pos = j >> (resolution - m)
            sl = slice(pos << (resolution - m), (pos + 1) << (resolution - m))
            best = max(best, float(np.abs(values[sl]).mean()))
        out[j] = best
    return out


def test_block_sum_empty_levels():
    f = random_f(5, seed=1)
    np.testing.assert_allclose(block_sum(f, 3, ()).values, 0.0, atol=1e-15)


def test_block_sum_telescopes_with_zero_anchor():
    f = random_f(6, seed=2)
    out = block_sum(f, 0, range(1, 7))
    np.testing.assert_allclose(out.values, f.values - f.integral(), atol=1e-10)


def test_block_sum_projection_identity_single_piece():
    f = random_f(6, seed=3)
    lhs = walsh_eval(1, 6).values * block_sum(f, 1, {2}).values
    rhs = project(IntInterval(2, 4), f).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_projection_identity_random_families():
    # modulate, take block differences, modulate back: equals the plain
    # spectral projection onto the pieces, for both anchor and endpoint sides
    for seed in range(25):
        f = random_f(8, seed=100 + seed)
        decs = family_decompose(random_family(8, 3, seed=seed))
        for dec in decs:
            w_a = walsh_eval(dec.anchor, 8).values
            if dec.left:
                lhs = project(sorted(dec.left_union()), f).values
                rhs = w_a * block_sum(f, dec.anchor, dec.left_levels).values
                np.testing.assert_allclose(lhs, rhs, atol=1e-10)
            if dec.right and dec.interval.hi < (1 << 8):
                w_b = walsh_eval(dec.interval.hi, 8).values
                lhs = project(sorted(dec.right_union()), f).values
                rhs = w_b * block_sum(f, dec.interval.hi, dec.right_levels).values
                np.testing.assert_allclose(lhs, rhs, atol=1e-10)


def test_block_sum_family_examples():
    const = DyadicFunction.constant(4.0, 6)
    decs = family_decompose(random_family(6, 2, seed=5))
    g = block_sum_family(const, decs)
    np.testing.assert_allclose(g.values, 0.0, atol=1e-12)

    f = random_f(6, seed=6)
    full = family_decompose([IntInterval(0, 64)])
    g = block_sum_family(f, full)
    assert g.values.shape == (1, 64)
    np.testing.assert_allclose(g.values[0], f.values - f.integral(), atol=1e-10)


def test_block_sum_family_components_integrate_to_zero():
    for seed in range(10):
        f = random_f(7, seed=seed)
        decs = family_decompose(random_family(7, 4, seed=seed))
        g = block_sum_family(f, decs)
        np.testing.assert_allclose(g.values.mean(axis=1), 0.0, atol=1e-12)


def test_sharp_maximal_examples():
    np.testing.assert_allclose(
        sharp_maximal(SeqFunction(5, np.full((3, 32), 2.0))).values, 0.0, atol=1e-12
    )
    g = SeqFunction(5, walsh_eval(1, 5).values[None])
    np.testing.assert_allclose(sharp_maximal(g).values, 1.0, atol=1e-12)
    # a single basis function from any block oscillates with unit rms
    for n in (2, 5, 11, 19):
        g = SeqFunction(5, walsh_eval(n, 5).values[None])
        np.testing.assert_allclose(sharp_maximal(g).values, 1.0, atol=1e-12)


def test_sharp_maximal_matches_naive_sweep():
    rng = np.random.default_rng(7)
    values = rng.standard_normal((4, 64))
    fast = sharp_maximal(SeqFunction(6, values)).values
    np.testing.assert_allclose(fast, naive_sharp(values, 6), atol=1e-12)


def test_mean_minimizes_oscillation():
    rng = np.random.default_rng(8)
    values = rng.standard_normal((3, 32))
    mean = values.mean(axis=1, keepdims=True)
    base = ((values - mean) ** 2).sum(axis=0).mean()
    for _ in range(20):
        c = mean + rng.standard_normal(mean.shape)
        assert base <= ((values - c) ** 2).sum(axis=0).mean() + 1e-12


def test_maximal_examples():
    np.testing.assert_allclose(maximal_function_stack(np.full(16, -2.0)), 2.0, atol=1e-15)
    np.testing.assert_allclose(
        maximal_function_stack(np.array([1.0, 0.0, 0.0, 0.0])), [1.0, 0.5, 0.25, 0.25],
        atol=1e-15,
    )
    g = random_f(6, seed=9)
    assert (maximal_function_stack(g.values) >= np.abs(g.values) - 1e-12).all()


def test_maximal_matches_naive_sweep():
    f = random_f(6, seed=10)
    np.testing.assert_allclose(
        maximal_function_stack(f.values), naive_maximal(f.values, 6), atol=1e-12
    )


def test_rms_maximal_examples():
    np.testing.assert_allclose(
        rms_maximal(DyadicFunction.constant(3.0, 3)).values, 3.0, atol=1e-15
    )
    f = DyadicFunction(1, [1.0, 0.0])
    np.testing.assert_allclose(
        rms_maximal(f).values, [1.0, 1.0 / np.sqrt(2.0)], atol=1e-15
    )
    g = random_f(6, seed=11)
    assert (rms_maximal(g).values >= maximal_function_stack(g.values) - 1e-12).all()


def test_rms_maximal_is_sqrt_of_maximal_of_square():
    g = random_f(7, seed=12)
    np.testing.assert_array_equal(
        rms_maximal(g).values, np.sqrt(maximal_function_stack(g.values**2))
    )


def test_square_function_examples():
    g = SeqFunction(6, walsh_eval(11, 6).values[None])
    np.testing.assert_allclose(square_function(g).values, 1.0, atol=1e-12)
    const = SeqFunction(6, np.full((2, 64), 5.0))
    np.testing.assert_allclose(square_function(const).values, 0.0, atol=1e-12)


def test_square_function_l2_identity():
    rng = np.random.default_rng(13)
    values = rng.standard_normal((4, 128))
    g = SeqFunction(7, values)
    lhs = (square_function(g).values ** 2).mean()
    rhs = sum((row**2).mean() - row.mean() ** 2 for row in values)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_pointwise_sharp_bound_constant_one():
    for seed in range(30):
        f = random_f(8, seed=1000 + seed)
        decs = family_decompose(random_family(8, 4, seed=seed))
        sharp = sharp_maximal(block_sum_family(f, decs)).values
        m2 = rms_maximal(f).values
        assert float((sharp - m2).max()) <= 1e-10


def test_orthogonality_sum_bounded_by_norm():
    from walshlab.experiments import _sq_sum_of_projections

    for seed in range(20):
        f = random_f(8, seed=seed)
        ends = np.array([(iv.lo, iv.hi) for iv in random_family(8, 4, seed=seed)])
        sq = _sq_sum_of_projections(f.values, ends)
        assert sq.mean() <= (f.values**2).mean() + 1e-10


def test_mean_truncation_drops_fine_levels():
    # over a cell of measure 2**-m, levels above m contribute nothing
    # to the average of a block sum
    f = random_f(6, seed=14)
    for seed in range(5):
        decs = family_decompose(random_family(6, 2, seed=20 + seed))
        for dec in decs:
            if not dec.left_levels:
                continue
            full = block_sum(f, dec.anchor, dec.left_levels).values
            for m in range(7):
                kept = [j for j in dec.left_levels if (1 << j) <= (1 << m)]
                trunc = block_sum(f, dec.anchor, kept).values
                full_means = full.reshape(1 << m, -1).mean(axis=1)
                trunc_means = trunc.reshape(1 << m, -1).mean(axis=1)
                np.testing.assert_allclose(full_means, trunc_means, atol=1e-10)


def test_seqfunction_validation():
    with pytest.raises(ValueError, match=r"expected shape \(S, 16\)"):
        SeqFunction(4, np.zeros((2, 32)))
    with pytest.raises(ValueError, match=r"expected shape \(S, 16\)"):
        SeqFunction(4, np.zeros(16))
    with pytest.raises(ResolutionError):
        block_sum(random_f(4), 3, {5})
