"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Assertions use absolute
tolerance 1e-10 wherever the underlying identity pins the constant; purely
empirical constants are reported in the printed line, never asserted to a
value.  Full suite budget is a few minutes on a laptop.
"""

import json

import numpy as np

from walshlab.cli import main as cli_main
from walshlab.experiments import (
    ExperimentConfig,
    exhaustive_pointwise_basis_check,
    random_interval_family,
    rng_for,
    run_adjointness,
    run_lemma_square,
    run_pointwise,
    run_scalar_lpr,
    run_vector_lpr,
    run_weak11,
)
from walshlab.intervals import decompose, family_decompose, verify_decomposition
from walshlab.lattice import LatticeFunction, cz_decompose, verify_cz
from walshlab.operators import block_sum
from walshlab.walsh import (
    DyadicFunction,
    analyze_values,
    project,
    synthesize_values,
    walsh_eval,
)

TOL = 1e-10
SEED = 20260808


def _report(num, text):
    print(f"ACCEPTANCE {num:>2}: PASS  {text}")


def test_criterion_01_walsh_algebra_exhaustive():
    N, n = 8, 256
    W = np.stack([walsh_eval(m, N).values for m in range(n)])
    idx = np.arange(n)
    for n1 in range(n):
        products = W[n1] * W
        expected = W[n1 ^ idx]
        assert np.array_equal(products, expected), f"n1={n1}"
    _report(1, "w_n1 * w_n2 == w_(n1 xor n2) exactly for all n1, n2 < 2^8 at N=8")


def test_criterion_02_transform_correctness():
    def naive_matrix(resolution):
        mids = (np.arange(1 << resolution) + 0.5) / (1 << resolution)
        rows = []
        for m in range(1 << resolution):
            vals = np.ones(1 << resolution)
            k = 0
            while m >> k:
                if (m >> k) & 1:
                    vals = vals * np.sign(np.sin(2 ** (k + 1) * np.pi * mids))
                k += 1
            rows.append(vals)
        return np.stack(rows)

    worst_naive = 0.0
    for resolution in range(1, 9):
        f = DyadicFunction(
            resolution, rng_for((SEED, resolution)).standard_normal(1 << resolution)
        )
        naive = naive_matrix(resolution) @ f.values / (1 << resolution)
        worst_naive = max(
            worst_naive, float(np.abs(analyze_values(f.values) - naive).max())
        )
    assert worst_naive <= TOL

    worst_rt, worst_pl = 0.0, 0.0
    for resolution in (6, 10, 12):
        f = DyadicFunction(
            resolution,
            rng_for((SEED, 20, resolution)).standard_normal(1 << resolution),
        )
        coeffs = analyze_values(f.values)
        worst_rt = max(
            worst_rt, float(np.abs(synthesize_values(coeffs) - f.values).max())
        )
        worst_pl = max(
            worst_pl, abs(float((coeffs**2).sum() - (f.values**2).mean()))
        )
    assert worst_rt <= TOL and worst_pl <= TOL
    _report(
        2,
        f"transform: naive agreement {worst_naive:.1e}, round trip {worst_rt:.1e}, "
        f"Parseval {worst_pl:.1e} (all <= 1e-10)",
    )


def test_criterion_03_decomposition_exhaustive():
    checked = 0
    for b in range(1, (1 << 10) + 1):
        bits_b = b.bit_length()
        ones_b = bin(b).count("1")
        for a in range(b):
            dec = decompose(a, b)
            chk = verify_decomposition(dec, a, b)
            assert chk.passed, (a, b, chk.failures)
            zeros_a = sum(1 for k in range(bits_b) if not (a >> k) & 1)
            assert len(dec.left) <= zeros_a
            assert len(dec.right) <= ones_b
            # anchor plus left pieces form a contiguous segment starting at a
            end = a + 1
            for _, piece in dec.left:
                assert piece.lo == end
                end = piece.hi
            checked += 1
    _report(
        3,
        f"anchored decomposition verified elementwise on all {checked} intervals "
        "with 0 <= a < b <= 2^10, segments contiguous",
    )


def test_criterion_04_projection_identity():
    N, trials = 8, 1000
    worst = 0.0
    for t in range(trials):
        rng = rng_for((SEED, 4, t))
        f = DyadicFunction(N, rng.standard_normal(1 << N))
        count = int(rng.integers(1, 6))
        intervals = random_interval_family((SEED, 4, t, 1), N, count)
        for dec in family_decompose(intervals):
            if dec.left:
                lhs = project(sorted(dec.left_union()), f).values
                rhs = (
                    walsh_eval(dec.anchor, N).values
                    * block_sum(f, dec.anchor, dec.left_levels).values
                )
                worst = max(worst, float(np.abs(lhs - rhs).max()))
            if dec.right and dec.interval.hi < (1 << N):
                lhs = project(sorted(dec.right_union()), f).values
                rhs = (
                    walsh_eval(dec.interval.hi, N).values
                    * block_sum(f, dec.interval.hi, dec.right_levels).values
                )
                worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst <= TOL
    _report(
        4,
        f"projection identity over {trials} random (f, family) pairs at N=8, "
        f"worst residual {worst:.1e}",
    )


def test_criterion_05_pointwise_estimate_constant_one():
    report = run_pointwise(
        ExperimentConfig(
            kind="pointwise", resolution=8, trials=1000, seed=SEED, count=4
        )
    )
    assert report.passed
    assert report.summary["max"] <= 1.0 + TOL

    sweep = exhaustive_pointwise_basis_check(
        resolution=5, max_intervals=3, spot_checks=200, seed=SEED
    )
    assert sweep["passed"]
    assert sweep["max_ratio"] <= 1.0 + TOL
    assert sweep["families"] > 1_600_000
    _report(
        5,
        "sharp(Gf) <= rms-maximal(f) with constant 1: 1000 random trials at N=8 "
        f"(max ratio {report.summary['max']:.12f}) and {sweep['families']} families x "
        f"{sweep['basis_functions']} basis functions exhaustively at N=5 "
        f"(max ratio {sweep['max_ratio']:.12f})",
    )


def test_criterion_06_scalar_ratios():
    r2 = run_scalar_lpr(
        ExperimentConfig(
            kind="scalar", resolution=8, trials=10_000, seed=SEED, p=2, count=5
        )
    )
    assert r2.passed
    assert r2.summary["max"] <= 1.0 + TOL

    stats = {}
    for p in (4.0, 8.0):
        rep = run_scalar_lpr(
            ExperimentConfig(
                kind="scalar", resolution=8, trials=10_000, seed=SEED, p=p, count=5
            )
        )
        assert rep.passed
        assert np.isfinite(rep.summary["max"])
        # running max settles within the first tenth of the campaign
        assert rep.summary["argmax_trial"] < 10_000 // 10
        stats[p] = (rep.summary["max"], rep.summary["argmax_trial"])
    _report(
        6,
        "scalar ratios: p=2 max "
        f"{r2.summary['max']:.12f} <= 1; p=4 max {stats[4.0][0]:.5f} "
        f"(argmax trial {stats[4.0][1]}), p=8 max {stats[8.0][0]:.5f} "
        f"(argmax trial {stats[8.0][1]}), running max constant over final 90%",
    )


def test_criterion_07_vector_ratios():
    lines = []
    for q in (2.0, 3.0, 4.0):
        for d in (2, 8):
            for p in (2.0, 4.0):
                rep = run_vector_lpr(
                    ExperimentConfig(
                        kind="vector",
                        resolution=6,
                        trials=100,
                        seed=SEED,
                        p=p,
                        q=q,
                        dim=d,
                        count=4,
                        rad="exact",
                    )
                )
                assert rep.passed
                if p == 2.0 and q == 2.0:
                    assert rep.summary["max"] <= 1.0 + TOL
                lines.append(f"q={q:g},d={d},p={p:g}:{rep.summary['max']:.4f}")
    _report(7, "vector ratios (exact signs) " + " ".join(lines))


def test_criterion_08_cz_invariants():
    trials = 1000
    worst_sum, worst_mean = 0.0, 0.0
    for t in range(trials):
        rng = rng_for((SEED, 8, t))
        resolution = int(rng.integers(3, 8))
        d = int(rng.integers(1, 5))
        n = 1 << resolution
        vals = rng.standard_normal((n, d)) * np.exp(rng.standard_normal((n, 1)))
        g = LatticeFunction(resolution, vals, q=float(rng.choice([1.0, 2.0, 3.0])))
        l1 = float(g.norm_values().mean())
        lam = l1 * float(rng.uniform(1.0, 16.0))
        res = cz_decompose(g, lam)

        worst_sum = max(
            worst_sum, float(np.abs(res.b.values + res.h.values - g.values).max())
        )
        assert float(res.h.norm_values().max()) <= 2.0 * lam + TOL
        assert float(res.h.norm_values().mean()) <= l1 + TOL
        worst_mean = max(worst_mean, float(np.abs(res.b.values.mean(axis=0)).max()))
        assert float(res.bad_set_mask().mean()) <= l1 / lam  # exact
        report = verify_cz(res, g)
        assert report["passed"], (t, report)
        assert not report["root_selected"]
    assert worst_sum <= TOL and worst_mean <= TOL
    _report(
        8,
        f"CZ splitting over {trials} random (g, lam): g=b+h (residual "
        f"{worst_sum:.1e}), |h|<=2*lam, |h|_1<=|g|_1, mean(b) residual "
        f"{worst_mean:.1e}, level-n differences supported on stopping cells of "
        "level <= n-1, bad-set measure <= |g|_1/lam exactly",
    )


def test_criterion_09_adjointness_and_support():
    worst = 0.0
    trials_per = 250
    for count, d in ((2, 1), (4, 2), (6, 4), (3, 3)):
        rep = run_adjointness(
            ExperimentConfig(
                kind="adjoint",
                resolution=6,
                trials=trials_per,
                seed=SEED + count,
                dim=d,
                count=count,
                rad="exact",
            )
        )
        assert rep.passed
        worst = max(worst, rep.summary["max"])
    assert worst <= TOL

    support = run_weak11(
        ExperimentConfig(
            kind="weak11", resolution=6, trials=200, seed=SEED, dim=2, count=3
        )
    )
    assert support.passed
    assert support.summary["worst_support_excess"] <= TOL
    _report(
        9,
        f"adjoint pair: residual {worst:.1e} over 1000 exact-sign trials "
        "(N=6, S<=6, d<=4); adjoint of every bad part vanishes off the stopping "
        f"cells (worst leak {support.summary['worst_support_excess']:.1e}); "
        f"weak-type constant reported max {support.summary['max']:.3f}",
    )


def test_criterion_10_square_function_lemma():
    strict = run_lemma_square(
        ExperimentConfig(
            kind="lemma",
            resolution=6,
            trials=1000,
            seed=SEED,
            p=2,
            q=2,
            dim=1,
            components=4,
            mean_zero=True,
        )
    )
    assert strict.passed
    assert strict.summary["max"] <= 1.0 + TOL

    reported = []
    for q, d in ((4.0, 4), (3.0, 2)):
        rep = run_lemma_square(
            ExperimentConfig(
                kind="lemma",
                resolution=6,
                trials=500,
                seed=SEED,
                p=4,
                q=q,
                dim=d,
                components=4,
            )
        )
        assert rep.passed
        assert np.isfinite(rep.summary["max"])
        reported.append(f"q={q:g},d={d}:{rep.summary['max']:.4f}")
    _report(
        10,
        f"square function: mean-zero d=1 p=2 max ratio {strict.summary['max']:.12f} "
        "<= 1; lattice constants reported " + " ".join(reported),
    )


def test_criterion_11_cli_determinism(tmp_path, capsys):
    def stripped(path):
        text = path.read_text().strip()
        try:
            records = [json.loads(text)]  # single object report
        except json.JSONDecodeError:
            records = [json.loads(line) for line in text.split("\n")]
        out = []
        for rec in records:
            rec.pop("timestamp", None)
            out.append(json.dumps(rec, sort_keys=True))
        return "\n".join(out)

    cases = [
        ["scalar", "--resolution", "6", "--trials", "20", "--seed", "9", "--p", "4"],
        ["pointwise", "--resolution", "6", "--trials", "10", "--seed", "9"],
        ["vector", "--resolution", "5", "--trials", "10", "--seed", "9", "--dim", "2"],
        ["czd", "--lambda", "1.5", "--resolution", "6", "--dim", "2", "--seed", "9"],
        ["verify-identities", "--resolution", "6", "--trials", "10", "--seed", "9"],
        ["decompose", "--a", "37", "--b", "1000"],
    ]
    for argv in cases:
        p1, p2 = tmp_path / "run1.out", tmp_path / "run2.out"
        assert cli_main(argv + ["--out", str(p1)]) == 0
        assert cli_main(argv + ["--out", str(p2)]) == 0
        capsys.readouterr()
        assert stripped(p1) == stripped(p2), argv
    _report(
        11,
        f"{len(cases)} CLI subcommands rerun with equal configs produce identical "
        "reports (timestamp excluded)",
    )
