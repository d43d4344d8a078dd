"""Batched campaigns against a per-trial, per-interval reference.

The campaigns transform many functions per call: trials stacked as columns
in budgeted chunks, one column per interval or decomposition, all heights
of the weak-type grid at once.  Each reference below runs the same campaign
one trial and one interval at a time through the public single-function
calls (`project`, `block_sum`, `analyze_values` / `synthesize_values`), and
the serialized reports must agree byte for byte.  Every case runs at the
default column budget and at a budget of three columns, so chunks end
part-way through the trials, the intervals and the heights.

The exhaustive pointwise basis sweep, which enumerates its interval
families as budgeted arrays, is compared in the same way with a
one-family-at-a-time depth-first recursion, spot-checked families included.
"""

import json
import math

import numpy as np
import pytest

from walshlab import experiments as ex
from walshlab import walsh
from walshlab.dyadic import IntInterval, delta_block
from walshlab.experiments import (
    ExperimentConfig,
    random_function,
    random_lattice_function,
    report_json_lines,
)
from walshlab.intervals import decompose, family_decompose
from walshlab.lattice import (
    LatticeFunction,
    duality_pairing,
    lp_radx_norm,
    lp_x_norm,
    rad_norm_values,
    split_at_cells,
    stopping_cells,
)
from walshlab.operators import (
    SeqFunction,
    block_sum,
    block_sum_family,
    rms_maximal,
    sharp_maximal,
)
from walshlab.walsh import (
    DyadicFunction,
    analyze_values,
    project,
    synthesize_values,
    walsh_eval,
)

TRIALS = {3: 13, 6: 37, 8: 71}  # 71 > 64 columns: a partial chunk at N = 8 too


@pytest.fixture(params=["default", "three-columns"])
def budget(request, monkeypatch):
    def set_columns(column_cells):
        if request.param == "three-columns":
            monkeypatch.setattr(walsh, "COLUMN_BUDGET", 3 * column_cells)

    return set_columns


def _lp(values, p):
    return float(np.mean(np.abs(values) ** p) ** (1.0 / p))


def _ratio(lhs, rhs):
    return lhs / rhs if rhs > 0 else 0.0


def _finish(cfg, trials, summary, asserted):
    summary["asserted"] = asserted
    passed = all(a["passed"] for a in asserted)
    return ex.RatioReport(cfg.to_dict(), trials, summary, passed)


def _asserted(worst, name=None):
    """The asserted ratio bound `name`, or plain finiteness when there is none."""
    if name:
        return [{"name": name, "passed": worst <= 1.0 + ex.ASSERT_TOL, "worst": worst}]
    return [{"name": "ratios finite", "passed": bool(np.isfinite(worst)), "worst": worst}]


# ---------------------------------------------------------------------------
# per-trial references
# ---------------------------------------------------------------------------


def reference_scalar(cfg):
    n = cfg.resolution
    probes = ex._scalar_probes(n) if cfg.probes else []
    trials = []
    for t in range(cfg.trials):
        if t < len(probes):
            case, values, intervals = probes[t]
        else:
            case = cfg.policy
            values = random_function((cfg.seed, t, 0), n, cfg.policy).values
            intervals = ex._family_for_trial(cfg, t)
        f = DyadicFunction(n, values)
        sq = np.zeros(f.size)
        for iv in intervals:
            sq += project(iv, f).values ** 2
        lhs = float(np.mean(sq ** (cfg.p / 2.0)) ** (1.0 / cfg.p))
        rhs = _lp(values, cfg.p)
        trials.append(
            {"trial": t, "case": case, "lhs": lhs, "rhs": rhs, "ratio": _ratio(lhs, rhs)}
        )
    worst = max([0.0] + [rec["ratio"] for rec in trials])
    summary = ex._summarize(trials)
    asserted = []
    if cfg.p == 2:
        asserted = _asserted(worst, "ratio<=1 at p=2")
    elif cfg.p > 2:
        asserted = _asserted(worst)
    else:
        summary["regime"] = "p<2 report-only"
    return _finish(cfg, trials, summary, asserted)


def reference_pointwise(cfg):
    trials = []
    for t in range(cfg.trials):
        f = random_function((cfg.seed, t, 0), cfg.resolution, cfg.policy)
        decs = family_decompose(ex._family_for_trial(cfg, t))
        rows = [block_sum(f, dec.anchor, dec.left_levels).values for dec in decs]
        sharp = sharp_maximal(SeqFunction(cfg.resolution, np.stack(rows))).values
        m2 = rms_maximal(f).values
        excess = float((sharp - m2).max())
        pos = m2 > 0
        ratio = float((sharp[pos] / m2[pos]).max()) if pos.any() else 0.0
        trials.append({"trial": t, "ratio": ratio, "excess": excess})
    worst_ratio = max([0.0] + [rec["ratio"] for rec in trials])
    worst_excess = max([-np.inf] + [rec["excess"] for rec in trials])
    summary = ex._summarize(trials)
    summary["worst_excess"] = worst_excess
    asserted = [
        {
            "name": "pointwise sharp <= rms maximal (constant 1)",
            "passed": worst_ratio <= 1.0 + ex.ASSERT_TOL and worst_excess <= ex.ASSERT_TOL,
            "worst": worst_ratio,
        }
    ]
    return _finish(cfg, trials, summary, asserted)


def reference_vector(cfg):
    n = cfg.resolution
    trials = []
    for t in range(cfg.trials):
        f = random_lattice_function((cfg.seed, t, 0), n, cfg.dim, cfg.q, cfg.policy)
        intervals = ex._family_for_trial(cfg, t)
        coeffs = analyze_values(f.values)
        comps = []
        for iv in intervals:
            kept = np.zeros_like(coeffs)
            kept[iv.lo : iv.hi] = coeffs[iv.lo : iv.hi]
            comps.append(LatticeFunction(n, synthesize_values(kept), cfg.q))
        lhs = lp_radx_norm(comps, cfg.p, cfg.rad, seed=[cfg.seed, t, 2])
        rhs = lp_x_norm(f, cfg.p)
        rec = {"trial": t, "lhs": lhs, "rhs": rhs, "ratio": _ratio(lhs, rhs)}
        if cfg.dim == 1:
            column = DyadicFunction(n, f.values[:, 0])
            sq = np.zeros(column.size)
            for iv in intervals:
                sq += project(iv, column).values ** 2
            scalar = float(np.mean(sq ** (cfg.p / 2.0)) ** (1.0 / cfg.p))
            rec["scalar_lhs"] = scalar
            rec["rad_over_scalar"] = _ratio(lhs, scalar)
        trials.append(rec)
    worst = max([0.0] + [rec["ratio"] for rec in trials])
    summary = ex._summarize(trials)
    exact_p2 = cfg.p == 2 and cfg.q == 2 and cfg.rad == "exact"
    asserted = _asserted(worst, "ratio<=1 at p=q=2 exact signs" if exact_p2 else None)
    if cfg.p < 2:
        summary["regime"] = "p<2 report-only"
    return _finish(cfg, trials, summary, asserted)


def _segment_blocks(values, levels, resolution):
    """Keep level 0 plus the given levels' coefficient blocks, one function."""
    mask = np.zeros(1 << resolution, dtype=bool)
    mask[0] = True
    for j in levels:
        blk = delta_block(j)
        mask[blk.lo : blk.hi] = True
    coeffs = analyze_values(values)
    coeffs[~mask] = 0.0
    return synthesize_values(coeffs)


def _forward(f, decs):
    out = []
    for dec in decs:
        w = walsh_eval(dec.anchor, f.resolution).values[:, None]
        vals = _segment_blocks(w * f.values, dec.left_levels, f.resolution)
        out.append(LatticeFunction(f.resolution, vals, f.q))
    return out


def _adjoint(components, decs):
    first = components[0]
    acc = np.zeros_like(first.values)
    for g, dec in zip(components, decs):
        w = walsh_eval(dec.anchor, g.resolution).values[:, None]
        acc = acc + w * _segment_blocks(g.values, dec.left_levels, g.resolution)
    return LatticeFunction(first.resolution, acc, first.q)


def reference_weak11(cfg):
    n = cfg.resolution
    trials = []
    for t in range(cfg.trials):
        decs = family_decompose(ex._family_for_trial(cfg, t))
        gs = [
            random_lattice_function((cfg.seed, t, 10 + s), n, cfg.dim, cfg.q, cfg.policy)
            for s in range(len(decs))
        ]
        out_norms = _adjoint(gs, decs).norm_values()
        leaf = rad_norm_values(gs, 2.0, cfg.rad, seed=[cfg.seed, t, 3])
        l1 = float(leaf.mean())
        med = float(np.median(out_norms))
        scale = med if med > 0 else (l1 if l1 > 0 else 1.0)
        weak_max, excess_max = 0.0, 0.0
        for e in range(-cfg.lam_halfspan, cfg.lam_halfspan + 1):
            lam = scale * 2.0**e
            cells = stopping_cells(leaf, lam)
            bs = [
                LatticeFunction(n, split_at_cells(g.values, cells, n)[0], g.q) for g in gs
            ]
            tstar_b = _adjoint(bs, decs)
            mask = np.zeros(1 << n, dtype=bool)
            for cell in cells:
                mask[cell.grid_slice(n)] = True
            if (~mask).any():
                excess_max = max(excess_max, float(tstar_b.norm_values()[~mask].max()))
            if l1 > 0:
                weak_max = max(weak_max, lam * float((out_norms > lam).mean()) / l1)
        trials.append({"trial": t, "ratio": weak_max, "support_excess": excess_max})
    worst = max([0.0] + [rec["support_excess"] for rec in trials])
    summary = ex._summarize(trials)
    summary["worst_support_excess"] = worst
    asserted = [
        {
            "name": "adjoint of bad part supported on stopping cells",
            "passed": worst <= ex.ASSERT_TOL,
            "worst": worst,
        }
    ]
    return _finish(cfg, trials, summary, asserted)


def reference_adjoint(cfg):
    n = cfg.resolution
    trials = []
    for t in range(cfg.trials):
        decs = family_decompose(ex._family_for_trial(cfg, t))
        f = random_lattice_function((cfg.seed, t, 0), n, cfg.dim, cfg.q, cfg.policy)
        gs = [
            random_lattice_function((cfg.seed, t, 10 + s), n, cfg.dim, cfg.q, cfg.policy)
            for s in range(len(decs))
        ]
        tf = _forward(f, decs)
        rhs = duality_pairing(f, _adjoint(gs, decs))
        count = len(decs)
        signs = 1.0 - 2.0 * ((np.arange(1 << count)[:, None] >> np.arange(count)) & 1)
        lhs = 0.0
        for row in signs:
            tsum = sum(float(row[s]) * tf[s].values for s in range(count))
            gsum = sum(float(row[s]) * gs[s].values for s in range(count))
            lhs += float((tsum * gsum).sum(axis=1).mean())
        lhs /= signs.shape[0]
        residual = abs(lhs - rhs) / (1.0 + abs(rhs))
        trials.append({"trial": t, "lhs": lhs, "rhs": rhs, "residual": residual})
    worst = max([0.0] + [rec["residual"] for rec in trials])
    summary = ex._summarize(trials, key="residual")
    asserted = [{"name": "adjointness residual", "passed": worst <= ex.ASSERT_TOL, "worst": worst}]
    return _finish(cfg, trials, summary, asserted)


def reference_basis_sweep(resolution, max_intervals, spot_checks, seed):
    """The pointwise basis sweep one family at a time, by depth-first recursion.

    Returns the report and the spot-checked families as (a, b) tuples.
    """
    n = 1 << resolution
    ivs = [(a, b) for b in range(1, n + 1) for a in range(b)]
    capture = {}
    for a, b in ivs:
        levels = set(decompose(a, b).left_levels)
        row = np.full(n, -1, dtype=np.int64)
        for nn in range(n):
            m = a ^ nn
            if m.bit_length() in levels:
                row[nn] = m
        capture[(a, b)] = row
    sharp_tab = np.zeros(n + 1)
    for m in range(n):
        g = SeqFunction.from_components([walsh_eval(m, resolution)])
        sharp_tab[m + 1] = float(sharp_maximal(g).values.max())
    by_start = [[] for _ in range(n + 1)]
    for a, b in ivs:
        by_start[a].append((a, b))
    starts_from = [
        [iv for lo in range(s, n + 1) for iv in by_start[lo]] for s in range(n + 1)
    ]

    families = 0
    worst = 0.0
    sampled = []
    rng = ex.rng_for((seed, 99))

    def visit(rows, family):
        nonlocal families, worst
        families += 1
        stacked = np.stack(rows)
        assert int((stacked >= 0).sum(axis=0).max()) <= 1
        worst = max(worst, float(sharp_tab[stacked.max(axis=0) + 1].max()))
        if rng.random() < spot_checks / 1.7e6:
            sampled.append(tuple(family))

    def extend(family, rows, min_start, depth):
        for a, b in starts_from[min_start]:
            fam = family + [(a, b)]
            rs = rows + [capture[(a, b)]]
            visit(rs, fam)
            if depth + 1 < max_intervals:
                extend(fam, rs, b, depth + 1)

    extend([], [], 0, 0)
    for _ in range(min(spot_checks, 50) - len(sampled)):
        k = int(rng.integers(1, max_intervals + 1))
        fam, start = [], 0
        for _ in range(k):
            room = starts_from[start]
            if not room:
                break
            a, b = room[int(rng.integers(0, len(room)))]
            fam.append((a, b))
            start = b
        if fam:
            sampled.append(tuple(fam))
    spot_excess = []
    for fam in sampled:
        decs = family_decompose([IntInterval(a, b) for a, b in fam])
        nn = int(rng.integers(0, n))
        f = walsh_eval(nn, resolution)
        sharp = sharp_maximal(block_sum_family(f, decs)).values
        spot_excess.append(float((sharp - rms_maximal(f).values).max()))
        table_value = sharp_tab[int(np.stack([capture[iv] for iv in fam])[:, nn].max()) + 1]
        assert abs(float(sharp.max()) - table_value) <= 1e-12
    spot_worst = max([0.0] + spot_excess)
    report = {
        "config": {"resolution": resolution, "max_intervals": max_intervals, "seed": seed},
        "families": families,
        "basis_functions": n,
        "max_ratio": worst,
        "spot_checks": len(sampled),
        "spot_worst_excess": spot_worst,
        "passed": worst <= 1.0 + ex.ASSERT_TOL and spot_worst <= ex.ASSERT_TOL,
    }
    return report, sampled


def _same_report(cfg, reference):
    batched = report_json_lines(ex.RUNNERS[cfg.kind](cfg), timestamp="")
    assert batched == report_json_lines(reference(cfg), timestamp="")


# ---------------------------------------------------------------------------
# differential cases
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("probes", [True, False])
@pytest.mark.parametrize("p", [1.5, 2.0, 4.0, 8.0])
@pytest.mark.parametrize("resolution", sorted(TRIALS))
def test_scalar_matches_per_trial(budget, resolution, p, probes):
    budget(1 << resolution)
    cfg = ExperimentConfig(
        kind="scalar", resolution=resolution, trials=TRIALS[resolution], seed=11,
        p=p, count=4, probes=probes,
    )
    _same_report(cfg, reference_scalar)


@pytest.mark.parametrize("resolution", sorted(TRIALS))
def test_pointwise_matches_per_trial(budget, resolution):
    budget(1 << resolution)
    cfg = ExperimentConfig(
        kind="pointwise", resolution=resolution, trials=TRIALS[resolution] // 2,
        seed=12, count=4,
    )
    _same_report(cfg, reference_pointwise)


@pytest.mark.parametrize(
    "dim, p, q, rad", [(1, 4.0, 2.0, "exact"), (3, 2.0, 2.0, "exact"), (2, 3.0, 3.0, "mc:32")]
)
@pytest.mark.parametrize("resolution", [3, 6])
def test_vector_matches_per_trial(budget, resolution, dim, p, q, rad):
    budget(dim << resolution)
    cfg = ExperimentConfig(
        kind="vector", resolution=resolution, trials=TRIALS[resolution], seed=13,
        p=p, q=q, dim=dim, count=4, rad=rad,
    )
    _same_report(cfg, reference_vector)


@pytest.mark.parametrize("resolution", [3, 6])
def test_weak11_matches_per_trial(budget, resolution):
    budget(2 << resolution)
    cfg = ExperimentConfig(
        kind="weak11", resolution=resolution, trials=5, seed=14, dim=2, count=3
    )
    _same_report(cfg, reference_weak11)


@pytest.mark.parametrize("resolution", [3, 6])
def test_adjoint_matches_per_trial(budget, resolution):
    budget(2 << resolution)
    cfg = ExperimentConfig(
        kind="adjoint", resolution=resolution, trials=7, seed=15, dim=2, count=4
    )
    _same_report(cfg, reference_adjoint)


def test_large_grid_streams_one_column():
    resolution = 14
    assert [sl.stop - sl.start for sl in walsh.column_chunks(3, 1 << resolution)] == [1, 1, 1]
    for kind, reference in (("scalar", reference_scalar), ("pointwise", reference_pointwise)):
        cfg = ExperimentConfig(
            kind=kind, resolution=resolution, trials=3, seed=16, p=4.0, count=4,
            probes=False,
        )
        _same_report(cfg, reference)


# (resolution, max_intervals, spot_checks, seed); 3,000 and 5,000 spot checks
# sample ranks across the whole family tree, 200 leave it to the top-up draws.
# The draw rate keeps the original fixed 1.7e6 family scale: an exact count
# would change `spot_checks` in every recorded sweep report.
SWEEPS = [
    (3, 2, 3000, 0),
    (3, 3, 3000, 0),
    (4, 2, 3000, 0),
    (4, 3, 3000, 0),
    (4, 4, 3000, 0),
    (5, 2, 200, 0),
    (5, 2, 200, 17),
    (5, 2, 5000, 0),
]


def _same_sweep(monkeypatch, resolution, max_intervals, spot_checks, seed):
    checked = []

    def recording(intervals):
        checked.append(tuple((iv.lo, iv.hi) for iv in intervals))
        return family_decompose(intervals)

    monkeypatch.setattr(ex, "family_decompose", recording)
    report = ex.exhaustive_pointwise_basis_check(
        resolution, max_intervals, spot_checks=spot_checks, seed=seed
    )
    expected, sampled = reference_basis_sweep(resolution, max_intervals, spot_checks, seed)
    assert json.dumps(report, sort_keys=True) == json.dumps(expected, sort_keys=True)
    assert checked == sampled
    n = 1 << resolution
    assert report["families"] == sum(
        math.comb(n + k, 2 * k) for k in range(1, max_intervals + 1)
    )


@pytest.mark.parametrize("resolution, max_intervals, spot_checks, seed", SWEEPS)
def test_basis_sweep_matches_recursion(monkeypatch, resolution, max_intervals, spot_checks, seed):
    _same_sweep(monkeypatch, resolution, max_intervals, spot_checks, seed)


@pytest.mark.parametrize("resolution, max_intervals, spot_checks, seed", SWEEPS[:4])
def test_basis_sweep_in_small_chunks(monkeypatch, resolution, max_intervals, spot_checks, seed):
    # three families a chunk at depth one, then one: chunks end part-way
    # through a parent's children and through the spot-check draw blocks
    monkeypatch.setattr(walsh, "COLUMN_BUDGET", 3 << resolution)
    _same_sweep(monkeypatch, resolution, max_intervals, spot_checks, seed)
