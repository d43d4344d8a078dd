import csv
import dataclasses
import hashlib
import io
import json
import math

import numpy as np
import pytest

from walshlab.dyadic import IntInterval, delta_block
from walshlab.experiments import (
    ASSERT_TOL,
    MAX_RESOLUTION,
    RUNNERS,
    ExperimentConfig,
    _MAX_TRIAL_FLOATS,
    _check_trial_floats,
    _family_capacity,
    _family_ends,
    _scalar_probes,
    random_function,
    random_interval_family,
    random_lattice_function,
    report_csv,
    report_json_lines,
    rng_for,
    run_adjointness,
    run_lemma_square,
    run_pointwise,
    run_scalar_lpr,
    run_vector_lpr,
    run_weak11,
    verify_identities,
    czd_report,
    decompose_report,
    exhaustive_pointwise_basis_check,
)
from walshlab import dyadic, intervals
from walshlab import experiments as ex
from walshlab.intervals import Decomposition, family_decompose
from walshlab.lattice import LatticeFunction
from walshlab.operators import SeqFunction, block_sum_family, rms_maximal, sharp_maximal
from walshlab.walsh import DyadicFunction, analyze_values, walsh_eval


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_random_function_determinism():
    f1 = random_function(42, 6, "gaussian-cells")
    f2 = random_function(42, 6, "gaussian-cells")
    np.testing.assert_array_equal(f1.values, f2.values)
    f3 = random_function(43, 6, "gaussian-cells")
    assert not np.array_equal(f1.values, f3.values)


def test_random_function_policies():
    rad = random_function(0, 5, "rademacher-cells")
    assert set(np.unique(rad.values)) <= {-1.0, 1.0}

    single = random_function(1, 5, "sparse-spectrum:1")
    coeffs = analyze_values(single.values)
    nz = np.flatnonzero(np.abs(coeffs) > 1e-12)
    assert nz.size == 1
    assert abs(coeffs[nz[0]]) == pytest.approx(1.0)
    assert set(np.unique(np.abs(single.values))) == {1.0}  # a Walsh function up to sign

    gauss = random_function(2, 8, "gaussian-cells")
    assert (gauss.values**2).mean() == pytest.approx(1.0, abs=0.2)

    with pytest.raises(ValueError):
        random_function(0, 4, "white-noise")
    with pytest.raises(ValueError):
        random_function(0, 4, "sparse-spectrum:0")


def test_random_lattice_function_shapes():
    f = random_lattice_function(3, 5, 4, 3.0, "gaussian-cells")
    assert f.values.shape == (32, 4)
    assert f.q == 3.0
    sparse = random_lattice_function(3, 5, 2, 2.0, "sparse-spectrum:2")
    coeffs = analyze_values(sparse.values)
    assert (np.abs(coeffs) > 1e-12).sum() <= 4


@pytest.mark.parametrize("resolution", [0, 3, 8])
@pytest.mark.parametrize("policy", ["gaussian-cells", "rademacher-cells", "sparse-spectrum:3"])
def test_scalar_draws_are_one_coordinate_lattice_draws(policy, resolution):
    key = (5, resolution, 1)
    scalar = random_function(key, resolution, policy).values
    lattice = random_lattice_function(key, resolution, 1, 2.0, policy).values
    assert scalar.tobytes() == lattice[:, 0].tobytes()


def test_random_interval_family_policies():
    fam = random_interval_family(0, 6, 4, "random")
    assert len(fam) == 4
    for prev, cur in zip(fam, fam[1:]):
        assert prev.hi <= cur.lo

    singles = random_interval_family(1, 6, 5, "singletons")
    assert all(iv.size == 1 for iv in singles)

    full = random_interval_family(2, 6, 1, "dyadic")
    assert full == [IntInterval(0, 64)]
    dy = random_interval_family(3, 6, 3, "dyadic")
    assert all(iv.size == 16 for iv in dy)

    mis = random_interval_family(4, 8, 3, "misaligned")
    for iv in mis:
        assert bin(iv.lo).count("1") >= 4
        assert bin(iv.hi).count("1") >= 4

    with pytest.raises(ValueError):
        random_interval_family(0, 3, 5, "random")
    with pytest.raises(ValueError):
        random_interval_family(0, 3, 0, "random")
    with pytest.raises(ValueError):
        random_interval_family(0, 6, 4, "bogus")


# The most intervals each family policy can draw at N = 4 (16 cells): 8 pairs
# of endpoints in [0, 16], 16 cells, 16 dyadic cells of level 4, and 5 pairs of
# the 11 endpoints below 16 with at least two binary digits set.
CAPACITY_AT_4 = {"random": 8, "singletons": 16, "dyadic": 16, "misaligned": 5}


@pytest.mark.parametrize("policy, capacity", CAPACITY_AT_4.items())
def test_random_interval_family_capacity_is_tight(policy, capacity):
    for seed in range(5):
        assert len(random_interval_family(seed, 4, capacity, policy)) == capacity
    with pytest.raises(ValueError, match="^cannot "):
        random_interval_family(0, 4, capacity + 1, policy)


@pytest.mark.parametrize("resolution", [0, 1, 2, 4, 7, 10])
@pytest.mark.parametrize("policy", ["random", "singletons", "dyadic", "misaligned"])
def test_drawn_family_ends_are_sorted_disjoint_intervals(policy, resolution):
    # the runners draw with `_family_ends` and decompose nothing, so no
    # `family_decompose` re-checks their families: check the draws here
    capacity = _family_capacity(resolution, policy)
    counts = sorted({c for c in (1, 2, 3, 5, capacity) if 1 <= c <= capacity})
    if not counts:
        with pytest.raises(ValueError, match="^cannot "):
            random_interval_family(0, resolution, 1, policy)
    for count in counts:
        for seed in (0, 3, 7, 11):
            ends = _family_ends(rng_for((seed, 2, 1)), resolution, count, policy)
            family = random_interval_family((seed, 2, 1), resolution, count, policy)
            assert ends.dtype == np.int64 and ends.shape == (count, 2)
            assert ends.tolist() == [[iv.lo, iv.hi] for iv in family]
            lo, hi = ends.T
            assert (lo < hi).all()
            assert (hi[:-1] <= lo[1:]).all()  # sorted and pairwise disjoint
            assert lo[0] >= 0 and hi[-1] <= 1 << resolution


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


def test_scalar_p2_asserts_orthogonality():
    cfg = ExperimentConfig(kind="scalar", resolution=7, trials=40, seed=5, p=2)
    report = run_scalar_lpr(cfg)
    assert report.passed
    assert report.summary["max"] <= 1.0 + 1e-10


def test_scalar_covered_walsh_gives_ratio_one():
    for p in (2.0, 4.0, 8.0):
        cfg = ExperimentConfig(kind="scalar", resolution=6, trials=1, seed=0, p=p)
        report = run_scalar_lpr(cfg)
        probe = report.trials[0]
        assert probe["case"] == "walsh-covered"
        assert probe["ratio"] == pytest.approx(1.0, abs=1e-12)


def test_scalar_all_singletons_reproduce_parseval():
    cfg = ExperimentConfig(
        kind="scalar",
        resolution=5,
        trials=10,
        seed=6,
        p=2,
        family="singletons",
        count=32,
        probes=False,
    )
    report = run_scalar_lpr(cfg)
    assert report.passed
    for rec in report.trials:
        f = random_function((6, rec["trial"], 0), 5, "gaussian-cells")
        assert rec["lhs"] == pytest.approx(np.sqrt(np.mean(f.values**2)), abs=1e-10)
        assert rec["ratio"] == pytest.approx(1.0, abs=1e-10)


def test_scalar_report_only_below_p2():
    cfg = ExperimentConfig(kind="scalar", resolution=5, trials=5, seed=0, p=1.5)
    report = run_scalar_lpr(cfg)
    assert report.summary.get("regime") == "p<2 report-only"
    assert report.summary["asserted"] == []
    assert report.passed
    with pytest.raises(ValueError):
        run_scalar_lpr(ExperimentConfig(kind="scalar", p=0.5))


def test_pointwise_campaign():
    cfg = ExperimentConfig(kind="pointwise", resolution=7, trials=30, seed=7, count=3)
    report = run_pointwise(cfg)
    assert report.passed
    assert report.summary["max"] <= 1.0 + 1e-10
    assert report.summary["worst_excess"] <= 1e-10


def test_pointwise_full_interval_walsh_input_saturates():
    # one interval covering everything, input w_1: both sides are exactly one
    from walshlab.intervals import family_decompose
    from walshlab.operators import block_sum_family, rms_maximal, sharp_maximal
    from walshlab.walsh import walsh_eval

    decs = family_decompose([IntInterval(0, 64)])
    f = walsh_eval(1, 6)
    sharp = sharp_maximal(block_sum_family(f, decs)).values
    m2 = rms_maximal(f).values
    np.testing.assert_array_equal(sharp, np.ones(64))
    np.testing.assert_array_equal(m2, np.ones(64))


def test_vector_p2_q2_asserts():
    cfg = ExperimentConfig(
        kind="vector", resolution=6, trials=20, seed=8, p=2, q=2, dim=3, count=3
    )
    report = run_vector_lpr(cfg)
    assert report.passed
    assert report.summary["max"] <= 1.0 + 1e-10


def test_vector_single_interval_family_is_isometric():
    cfg = ExperimentConfig(
        kind="vector",
        resolution=5,
        trials=5,
        seed=9,
        p=4,
        q=3,
        dim=2,
        family="dyadic",
        count=1,
    )
    report = run_vector_lpr(cfg)
    for rec in report.trials:
        assert rec["ratio"] == pytest.approx(1.0, abs=1e-10)


def test_vector_d1_records_scalar_comparison():
    cfg = ExperimentConfig(
        kind="vector", resolution=6, trials=5, seed=10, p=4, q=2, dim=1, count=3
    )
    report = run_vector_lpr(cfg)
    for rec in report.trials:
        assert "scalar_lhs" in rec and "rad_over_scalar" in rec
        assert np.isfinite(rec["rad_over_scalar"])


def test_lemma_asserts_contraction_at_p2_d1():
    cfg = ExperimentConfig(
        kind="lemma", resolution=6, trials=25, seed=11, p=2, q=2, dim=1, components=4
    )
    report = run_lemma_square(cfg)
    assert report.passed
    assert report.summary["max"] <= 1.0 + 1e-10


def test_lemma_lattice_case_reports():
    cfg = ExperimentConfig(
        kind="lemma", resolution=5, trials=10, seed=12, p=4, q=4, dim=4, components=3
    )
    report = run_lemma_square(cfg)
    assert report.passed  # finiteness only
    assert np.isfinite(report.summary["max"])


def test_weak11_support_containment():
    cfg = ExperimentConfig(
        kind="weak11", resolution=6, trials=8, seed=13, dim=2, count=3
    )
    report = run_weak11(cfg)
    assert report.passed
    assert report.summary["worst_support_excess"] <= 1e-10
    assert np.isfinite(report.summary["max"])


def test_adjointness_campaign():
    cfg = ExperimentConfig(
        kind="adjoint", resolution=6, trials=25, seed=14, dim=2, count=4
    )
    report = run_adjointness(cfg)
    assert report.passed
    assert report.summary["max"] <= 1e-10
    with pytest.raises(ValueError):
        run_adjointness(ExperimentConfig(kind="adjoint", rad="mc:100"))


def test_adjointness_zero_input_pairs_to_zero():
    from walshlab.intervals import family_decompose
    from walshlab.lattice import (
        LatticeFunction,
        duality_pairing,
        segment_transform,
        segment_transform_adjoint,
    )

    decs = family_decompose([IntInterval(2, 9)])
    zero = LatticeFunction(5, np.zeros((32, 2)), 2)
    g = random_lattice_function(3, 5, 2, 2.0, "gaussian-cells")
    assert duality_pairing(zero, segment_transform_adjoint([g], decs)) == 0.0
    np.testing.assert_array_equal(segment_transform(zero, decs)[0].values, 0.0)


def test_weak11_spike_input_reports_finite_constant():
    from walshlab.intervals import family_decompose
    from walshlab.lattice import LatticeFunction, rad_norm_values, stopping_cells
    from walshlab.lattice import segment_transform_adjoint, split_at_cells

    decs = family_decompose([IntInterval(1, 6), IntInterval(8, 13)])
    spike_vals = np.zeros((64, 2))
    spike_vals[0] = 64.0
    gs = [LatticeFunction(6, spike_vals, 2), LatticeFunction(6, 0.5 * spike_vals, 2)]
    tstar = segment_transform_adjoint(gs, decs)
    leaf = rad_norm_values(gs, 2.0)
    l1 = leaf.mean()
    ratios = []
    for lam in (0.5 * l1, 2 * l1, 8 * l1):
        cells = stopping_cells(leaf, lam)
        mask = np.zeros(64, dtype=bool)
        for cell in cells:
            mask[cell.grid_slice(6)] = True
        bs = [
            LatticeFunction(6, split_at_cells(g.values, cells, 6)[0], 2) for g in gs
        ]
        tb = segment_transform_adjoint(bs, decs)
        if (~mask).any():
            assert float(tb.norm_values()[~mask].max()) <= 1e-10
        ratios.append(lam * float((tstar.norm_values() > lam).mean()) / l1)
    assert all(np.isfinite(r) for r in ratios)


def test_vector_mc_mode_is_seed_deterministic():
    cfg = ExperimentConfig(
        kind="vector", resolution=5, trials=5, seed=21, p=4, q=3, dim=2,
        count=3, rad="mc:500",
    )
    r1 = run_vector_lpr(cfg)
    r2 = run_vector_lpr(cfg)
    assert [t["ratio"] for t in r1.trials] == [t["ratio"] for t in r2.trials]


def test_report_determinism():
    cfg = ExperimentConfig(kind="scalar", resolution=6, trials=15, seed=15, p=4)
    text1 = report_json_lines(run_scalar_lpr(cfg), timestamp="T")
    text2 = report_json_lines(run_scalar_lpr(cfg), timestamp="T")
    assert text1 == text2
    other = report_json_lines(
        run_scalar_lpr(
            ExperimentConfig(kind="scalar", resolution=6, trials=15, seed=16, p=4)
        ),
        timestamp="T",
    )
    assert other != text1


# sha256 of report_json_lines(..., timestamp="") at seed 4, for the verdict
# branches the perfbench digests do not reach
GOLDEN_REPORTS = [
    (
        dict(kind="scalar", resolution=5, trials=30, p=1.5),
        "e8666f623e722937597c665042ed7ddb3e831f4e06894b2aab540f9c17e0f814",
    ),
    (
        dict(kind="vector", resolution=5, trials=20, p=1.5, dim=1, rad="mc:32"),
        "c9b52ad050871f579e95f7ae53ddc4b5b660683006f595d94337585667f78da3",
    ),
    (
        dict(kind="lemma", resolution=5, trials=20, p=2.0, dim=1, mean_zero=False),
        "abb99235f730278d39f1b732693253db0f16b1644dab983f2c541d4ba573bb23",
    ),
    (
        dict(kind="scalar", resolution=5, trials=30, p=2.0, probes=False),
        "d74ae980e978ebc463da6e6237e21e1197f6fe4dafc1ad5cf8da6e1e63812ae9",
    ),
    # odd resolutions, which end the Walsh butterfly with a radix-2 stage
    (
        dict(kind="scalar", resolution=7, trials=20, p=3.0),
        "497e196be9057d1027949ccf83288d224fae82ae51275cf8a7ebf487ec7ebc6f",
    ),
    (
        dict(kind="pointwise", resolution=11, trials=4, p=2.0),
        "15aca9c5c82e72c8552fc96b84bdb1ce7f041eeb5a26b8b972ba9c4d0c5c2491",
    ),
    (
        dict(kind="vector", resolution=5, trials=10, p=2.0, dim=3),
        "5573a70b449ebafa32813e90211f6c088a2d6a87d327e07dbb0f3cc74b9c74c2",
    ),
    (
        dict(kind="adjoint", resolution=7, trials=6, p=2.0, dim=2),
        "49c45b2defc1cebb20db9d71b2297c45f139c9cd338e06e08169f102a0c7840f",
    ),
]


@pytest.mark.parametrize(
    "fields, digest", GOLDEN_REPORTS, ids=[f"{f['kind']}-p{f['p']}" for f, _ in GOLDEN_REPORTS]
)
def test_golden_report_digest(fields, digest):
    cfg = ExperimentConfig(seed=4, **fields)
    text = report_json_lines(RUNNERS[cfg.kind](cfg), timestamp="")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_report_formats():
    cfg = ExperimentConfig(kind="scalar", resolution=5, trials=4, seed=0, p=2)
    report = run_scalar_lpr(cfg)
    lines = report_json_lines(report).strip().split("\n")
    assert len(lines) == 5
    for line in lines[:-1]:
        rec = json.loads(line)
        assert {"trial", "lhs", "rhs", "ratio"} <= set(rec)
    tail = json.loads(lines[-1])
    assert tail["config"]["seed"] == 0
    assert "timestamp" in tail

    csv_text = report_csv(report, timestamp="T")
    header, row = csv_text.strip().split("\n")
    assert "config.seed" in header and "summary.max" in header


def test_report_csv_quotes_values():
    report = run_scalar_lpr(ExperimentConfig(kind="scalar", resolution=4, trials=3))
    header, values = report_csv(report, timestamp="T").rstrip("\n").split("\n")
    assert values.split(",")[-1] == "T"  # nothing here needs quoting

    report.config["family"] = 'a,"b"'
    rows = list(csv.reader(io.StringIO(report_csv(report, timestamp="T"))))
    assert rows[0] == header.split(",")
    assert dict(zip(*rows))["config.family"] == 'a,"b"'


def test_verify_identities_report():
    report = verify_identities(resolution=6, trials=10, seed=3)
    assert report["passed"]
    # the whole report, bit for bit, as the per-key route drew it
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == "9e86059f51ef4bf3c3e42e2ce0b63bb6c24d9b9b24c49d7c357c1b630d3935dd"
    names = {c["name"] for c in report["checks"]}
    assert "projection_identity" in names
    assert "pointwise_sharp_vs_rms" in names
    assert report["reported"]["norm_over_sharp"]["max"] > 0


@pytest.mark.parametrize("target", ["sharp_maximal", "mart_diff"])
def test_verify_identities_fails_on_one_nan_cell(monkeypatch, target):
    import walshlab.experiments as experiments

    original = getattr(experiments, target)

    def with_nan(*args):
        out = original(*args)
        values = out.values.copy()
        values[0] = np.nan
        return DyadicFunction(out.resolution, values)

    monkeypatch.setattr(experiments, target, with_nan)
    report = verify_identities(resolution=4, trials=2, seed=0)
    check = {
        "sharp_maximal": "pointwise_sharp_vs_rms",
        "mart_diff": "telescoping",
    }[target]
    result = next(c for c in report["checks"] if c["name"] == check)
    assert math.isnan(result["worst_residual"])
    assert not result["passed"]
    assert not report["passed"]


def test_decompose_report_fields():
    report = decompose_report(1, 6)
    assert report["anchor"] == 1
    assert report["left"] == [{"level": 2, "lo": 2, "hi": 4}]
    assert report["right"] == [{"level": 2, "lo": 4, "hi": 6}]
    assert report["checks"]["passed"]


def test_czd_report():
    report = czd_report(resolution=6, dim=2, q=2.0, lam=1.5, seed=0)
    assert report["passed"]
    assert report["config"]["lam"] == 1.5
    for lam, q in ((0.0, 2.0), (float("nan"), 2.0), (float("inf"), 2.0), (1.5, float("nan"))):
        with pytest.raises(ValueError):
            czd_report(resolution=6, dim=2, q=q, lam=lam, seed=0)


# ---------------------------------------------------------------------------
# validation and NaN-proof verdicts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "bad",
    [
        {"trials": 0},
        {"p": 0.5},
        {"p": float("inf")},
        {"p": float("nan")},
        {"q": 0.5},
        {"q": float("nan")},
        {"count": 0},
        {"dim": 0},
        {"components": 0},
        {"resolution": -1},
        {"resolution": MAX_RESOLUTION + 1},
        {"lam_halfspan": -1},
        {"seed": -1},
        {"policy": "bogus"},
        {"policy": "sparse-spectrum:0"},
        {"policy": "sparse-spectrum:x"},
        {"family": "bogus"},
        {"rad": "bogus"},
        {"rad": "mc:0"},
        {"rad": "mc:"},
    ],
)
def test_config_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        ExperimentConfig(kind="scalar", **bad)


def test_weak11_single_height_grid():
    # lam_halfspan = 0 checks the median height alone; a negative span
    # would check no height and pass vacuously, so the config refuses it
    cfg = ExperimentConfig(
        kind="weak11", resolution=5, trials=2, seed=3, dim=2, count=2, lam_halfspan=0
    )
    report = run_weak11(cfg)
    assert report.passed
    with pytest.raises(ValueError, match="lam_halfspan"):
        dataclasses.replace(cfg, lam_halfspan=-1)


def test_weak11_halfspan_stays_within_float_range():
    # 2.0**1023 is the largest finite power of two; 2.0**1024 overflows, so
    # the config itself refuses that span, before any trial can run
    limit = np.finfo(float).maxexp
    cfg = ExperimentConfig(
        kind="weak11", resolution=2, trials=3, count=1, lam_halfspan=limit - 1
    )
    assert run_weak11(cfg).passed
    with pytest.raises(ValueError, match="lam_halfspan"):
        dataclasses.replace(cfg, lam_halfspan=limit)


def test_config_admits_the_largest_benchmarked_grid():
    assert MAX_RESOLUTION >= 18
    ExperimentConfig(kind="scalar", resolution=18, q=float("inf"))


def test_trial_float_cap_accepts_up_to_its_limit():
    # the check is called alone: an accepted size would allocate if a
    # campaign ran it, and a refused one must not get that far.  4 << 18 is
    # the benchmark's N = 18 pointwise trial, the largest any suite runs.
    assert _MAX_TRIAL_FLOATS == 128 << MAX_RESOLUTION
    for floats in (4 << 18, _MAX_TRIAL_FLOATS - 1, _MAX_TRIAL_FLOATS):
        _check_trial_floats(floats, resolution=MAX_RESOLUTION, count=128)
    refusal = r"^resolution 20, count 129 need 135266304 floats a trial, above the limit"
    with pytest.raises(ValueError, match=refusal):
        _check_trial_floats(129 << MAX_RESOLUTION, resolution=MAX_RESOLUTION, count=129)


def test_weak11_cap_counts_the_heights_held_at_once(monkeypatch):
    # a weak11 trial holds its components and one height of bad parts at a
    # time at N = 20, so the cap counts count * dim grids, not every height;
    # the chunk is a stub, so only the families are drawn, one row a trial
    import walshlab.experiments as experiments

    chunks = []

    def stub(cfg, ts, rngs, ends):
        assert ends.shape == (len(ts), cfg.count, 2)
        chunks.append(ts)
        return [{"trial": t, "ratio": 1.0, "support_excess": 0.0} for t in ts]

    monkeypatch.setattr(experiments, "_weak11_chunk", stub)
    cfg = ExperimentConfig(kind="weak11", resolution=20, count=10, trials=2)
    assert run_weak11(cfg).passed
    assert chunks == [range(0, 1), range(1, 2)]
    refusal = r"^resolution 20, count 129, dim 1, components 4 need 135266304 floats a trial"
    with pytest.raises(ValueError, match=refusal):
        run_weak11(dataclasses.replace(cfg, count=129))
    assert chunks == [range(0, 1), range(1, 2)]


def _poison(draw, seed, trial):
    """Wrap the cell draw so that one trial's first cell value is NaN.

    The runners pass a generator re-targeted to each key (seed, t, stream);
    a draw belongs to the trial when the generator starts in the state of one
    of that trial's keys.
    """
    starts = {
        rng_for((seed, trial, s)).bit_generator.state["state"]["state"] for s in range(20)
    }

    def poisoned(rng, *args):
        hit = rng.bit_generator.state["state"]["state"] in starts
        values = draw(rng, *args)
        if hit:
            values[0] = np.nan
        return values

    return poisoned


NAN_CASES = {
    "scalar": dict(p=4.0),
    "pointwise": dict(),
    "vector": dict(p=2.0, q=2.0, dim=2),
    "lemma": dict(p=2.0, q=2.0, dim=1),
    "weak11": dict(dim=2, count=3),
    "adjoint": dict(dim=2, count=3),
}


@pytest.mark.parametrize("kind", sorted(NAN_CASES))
def test_one_nan_trial_fails_the_run(monkeypatch, kind):
    import walshlab.experiments as ex

    monkeypatch.setattr(ex, "_draw_cells", _poison(ex._draw_cells, 3, 7))
    cfg = ExperimentConfig(kind=kind, resolution=5, trials=10, seed=3, **NAN_CASES[kind])
    report = ex.RUNNERS[kind](cfg)
    assert not report.passed
    assert report.summary["asserted"]
    assert all(not a["passed"] for a in report.summary["asserted"])


@pytest.mark.parametrize(
    "policy", ["gaussian-cells", "rademacher-cells", "sparse-spectrum:3"]
)
@pytest.mark.parametrize("kind", sorted(RUNNERS))
def test_campaigns_build_no_grid_wrapper(monkeypatch, kind, policy):
    # the runners work on chunk stacks of arrays and hold their families as
    # endpoint and level-mask arrays: building a grid-value wrapper, an
    # interval or a decomposition, or calling decompose, raises while they run
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a campaign built a {type(self).__name__}")

    def refuse_call(*args, **kwargs):
        raise AssertionError("a campaign decomposed an interval or built one unchecked")

    for wrapper in (DyadicFunction, SeqFunction, LatticeFunction):
        monkeypatch.setattr(wrapper, "__post_init__", refuse)
    # 8 trials at N = 4: the scalar run draws 2 after its 6 probes
    cfg = ExperimentConfig(
        kind=kind, resolution=4, trials=8, p=4.0, q=3.0, dim=2, count=3, components=3,
        policy=policy,
    )
    with monkeypatch.context() as strict:
        for cls in (IntInterval, Decomposition):
            strict.setattr(cls, "__init__", refuse)
        for module in (dyadic, intervals):
            strict.setattr(module, "_interval", refuse_call)
        for module in (intervals, ex):
            strict.setattr(module, "decompose", refuse_call)
        strict.setattr(ex, "family_decompose", refuse_call)
        for rad in ["exact"] if kind == "adjoint" else ["exact", "mc:40"]:
            report = RUNNERS[kind](dataclasses.replace(cfg, rad=rad))
            assert len(report.trials) == cfg.trials
        # the basis sweep takes its tables and spot checks from level masks too
        report = exhaustive_pointwise_basis_check(3, 2, spot_checks=50, seed=0)
        assert report["passed"] and report["spot_checks"] > 0


class _NoChoice(np.random.Generator):
    def choice(self, *args, **kwargs):
        raise AssertionError("a campaign drew with Generator.choice")


@pytest.mark.parametrize("resolution, trials", [(3, 300), (8, 30)])
@pytest.mark.parametrize("kind", sorted(RUNNERS))
def test_campaigns_draw_no_family_per_trial(monkeypatch, kind, resolution, trials):
    # the runners draw their default `random` families with the family
    # kernel, a block of keys (seed, t, 1) at a time: the per-trial draw and
    # Generator.choice raise while they run, and outside the kernel no
    # stream-1 key is seeded by `_trial_limbs` (lemma draws no family; its
    # streams are its components)
    def refuse(*args, **kwargs):
        raise AssertionError("a campaign drew a family per trial")

    streams, kernel_calls, inside = [], [], []
    trial_limbs, family_block = ex._trial_limbs, ex._family_block

    def recorded(seed, ts, key_streams):
        if not inside:
            streams.extend(key_streams)
        return trial_limbs(seed, ts, key_streams)

    def kernel(*args):
        kernel_calls.append(args)
        inside.append(True)
        try:
            return family_block(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(ex, "_family_ends", refuse)
    monkeypatch.setattr(np.random, "Generator", _NoChoice)
    monkeypatch.setattr(ex, "_trial_limbs", recorded)
    monkeypatch.setattr(ex, "_family_block", kernel)
    cfg = ExperimentConfig(
        kind=kind, resolution=resolution, trials=trials, seed=3, p=4.0, dim=2, count=3,
        components=3,
    )
    assert cfg.family == "random" and cfg.policy == "gaussian-cells"
    report = RUNNERS[kind](cfg)
    assert len(report.trials) == trials
    assert streams and (1 in streams) == (kind == "lemma")
    assert bool(kernel_calls) == (kind != "lemma")


def test_nan_lhs_alone_fails_scalar(monkeypatch):
    # the square-function side turns NaN while the L^p norm stays finite
    import walshlab.experiments as ex

    original = ex._sq_sum_of_projections

    def poisoned(values, intervals):
        out = original(values, intervals)
        out[:, 2] = np.nan
        return out

    monkeypatch.setattr(ex, "_sq_sum_of_projections", poisoned)
    report = run_scalar_lpr(ExperimentConfig(kind="scalar", resolution=5, trials=10, p=4))
    assert np.isnan(report.trials[2]["lhs"]) and np.isfinite(report.trials[2]["rhs"])
    assert not report.passed
    assert np.isnan(report.summary["asserted"][0]["worst"])


def test_nan_denominator_stays_nan():
    from walshlab.experiments import _ratio, _worst

    assert np.isnan(_ratio(1.0, float("nan")))
    assert np.isnan(_ratio(float("nan"), 0.0))
    assert _ratio(1.0, 0.0) == 0.0
    # an overflowed norm must not read as a finite ratio
    assert np.isnan(_ratio(1.0, np.inf)) and np.isnan(_ratio(np.inf, 1.0))
    assert np.isnan(_worst([0.5, float("nan"), 2.0]))
    assert _worst([0.5, 2.0]) == 2.0
    assert _worst([], -np.inf) == -np.inf


def test_nan_table_value_fails_the_basis_sweep(monkeypatch):
    import walshlab.experiments as ex

    real = ex.sharp_maximal_stack
    poisoned_input = walsh_eval(5, 3).values
    poisoned = []

    def sharp_maximal_stack(stack):
        # the first call builds the table from every basis function at once,
        # one a column; poison the column of w_5.  The spot checks through
        # the pipeline stay finite
        out = real(stack)
        if not poisoned and np.array_equal(stack[:, 0, 5], poisoned_input):
            poisoned.append(True)
            out[:, 5] = np.nan
        return out

    monkeypatch.setattr(ex, "sharp_maximal_stack", sharp_maximal_stack)
    try:
        report = exhaustive_pointwise_basis_check(3, 2, spot_checks=50, seed=0)
    except RuntimeError:
        return
    assert poisoned
    assert report["passed"] is False


@pytest.mark.parametrize(
    "field, value, least", [("resolution", -1, 0), ("spot_checks", -5, 0), ("max_intervals", 0, 1)]
)
def test_basis_sweep_refuses_a_count_below_its_least(monkeypatch, field, value, least):
    import walshlab.experiments as ex

    def no_table(*args):
        raise AssertionError("a table was built")

    # refused before any capture or sharp table is built
    monkeypatch.setattr(ex, "left_level_masks", no_table)
    monkeypatch.setattr(ex, "_walsh_columns", no_table)
    args = {"resolution": 3, "max_intervals": 2, "spot_checks": 50, "seed": 0, field: value}
    with pytest.raises(ValueError, match=f"^{field} must be >= {least}, got {value}$"):
        ex.exhaustive_pointwise_basis_check(**args)


# ---------------------------------------------------------------------------
# large grids: the absolute ASSERT_TOL against values of size 2**N
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("resolution", range(13))
def test_scalar_probes_are_bitwise_the_walsh_products(resolution):
    # each probe built from sampled Walsh functions, one factor at a time
    n = 1 << resolution
    w = lambda m: walsh_eval(m, resolution).values
    blocks = [IntInterval(0, 1)] + [delta_block(k) for k in range(1, resolution + 1)]
    mid = (1 << (resolution - 1)) + 1 if resolution >= 2 else n - 1
    expected = [("walsh-covered", w(mid), blocks)]
    if resolution >= 3:
        low_blocks = [delta_block(k) for k in (1, 2, 3)]
        for c in (1.0, 1.272, 2.0):
            expected.append((f"cascade-{c}", w(1) + w(2) + c * (w(4) - w(7)), low_blocks))
    spike = np.zeros(n)
    spike[0] = float(n)
    expected.append(("spike", spike, blocks))
    riesz = np.ones(n)
    for k in range(1, resolution + 1):
        riesz = riesz * (1.0 + 0.9 * w(1 << (k - 1)))
    expected.append(("riesz-0.9", riesz, blocks))
    probes = _scalar_probes(resolution)
    assert [case for case, _, _ in probes] == [case for case, _, _ in expected]
    for (case, vals, intervals), (_, want, want_intervals) in zip(probes, expected):
        assert vals.dtype == want.dtype and vals.shape == want.shape, case
        assert vals.tobytes() == want.tobytes(), case
        assert intervals.tolist() == [[iv.lo, iv.hi] for iv in want_intervals], case


@pytest.mark.parametrize("resolution", [14, 15, 16])
def test_scalar_probes_hold_at_large_resolution(resolution):
    probes = _scalar_probes(resolution)
    report = run_scalar_lpr(
        ExperimentConfig(kind="scalar", resolution=resolution, trials=len(probes), p=2.0)
    )
    assert report.passed
    assert [rec["case"] for rec in report.trials] == [case for case, _, _ in probes]
    for rec in report.trials:
        assert rec["ratio"] <= 1.0 + ASSERT_TOL, rec


@pytest.mark.parametrize("resolution", [14, 15, 16])
def test_spike_sharp_bound_holds_at_large_resolution(resolution):
    # the spike reaches 2**N, yet the pointwise bound keeps the absolute tolerance
    n = 1 << resolution
    spike = np.zeros(n)
    spike[0] = float(n)
    f = DyadicFunction(resolution, spike)
    m2 = rms_maximal(f).values
    cfg = ExperimentConfig(kind="pointwise", resolution=resolution, trials=3)
    families = [[IntInterval(0, 1)] + [delta_block(k) for k in range(1, resolution + 1)]]
    families += [
        random_interval_family((cfg.seed, t, 1), resolution, cfg.count, cfg.family)
        for t in range(cfg.trials)
    ]
    for intervals in families:
        sharp = sharp_maximal(block_sum_family(f, family_decompose(intervals))).values
        assert float((sharp - m2).max()) <= ASSERT_TOL
