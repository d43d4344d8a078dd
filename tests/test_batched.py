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
import tracemalloc

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
from walshlab.intervals import decompose, family_decompose, left_level_masks
from walshlab.lattice import (
    LatticeFunction,
    _adjoint_of_stack,
    _segment_columns,
    duality_pairing,
    rad_norm_values,
    root_means,
    segment_transform,
    segment_transform_adjoint,
    split_at_cells,
    stopping_cells,
)
from walshlab.operators import (
    SeqFunction,
    _family_arrays,
    block_sum,
    block_sum_family,
    block_sum_stack,
    rms_maximal,
    sharp_maximal,
    square_function,
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


def _lp_x(f, p):
    """L^p norm in x of the pointwise lattice norm of one lattice function."""
    return float(root_means(f.norm_values()[None], p, p)[0])


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


def _family(cfg, key):
    """The interval family of the campaign trial whose stream-1 key is `key`."""
    return ex.random_interval_family(key, cfg.resolution, cfg.count, cfg.family)


# ---------------------------------------------------------------------------
# per-trial references
# ---------------------------------------------------------------------------


def reference_scalar(cfg):
    n = cfg.resolution
    probes = ex._scalar_probes(n) if cfg.probes else []
    trials = []
    for t in range(cfg.trials):
        if t < len(probes):
            case, values, ends = probes[t]
            intervals = [IntInterval(lo, hi) for lo, hi in ends.tolist()]
        else:
            case = cfg.policy
            values = random_function((cfg.seed, t, 0), n, cfg.policy).values
            intervals = _family(cfg, (cfg.seed, t, 1))
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
        decs = family_decompose(_family(cfg, (cfg.seed, t, 1)))
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


def reference_lemma(cfg):
    n = cfg.resolution
    trials = []
    for t in range(cfg.trials):
        comps = []
        for s in range(cfg.components):
            values = random_lattice_function(
                (cfg.seed, t, s), n, cfg.dim, cfg.q, cfg.policy
            ).values
            if cfg.mean_zero:
                values = values - values.mean(axis=0)
            comps.append(values)
        stack = np.stack(comps)  # (S, cells, d)
        sq = [square_function(SeqFunction(n, stack[:, :, c])).values for c in range(cfg.dim)]
        lhs = _lp_x(LatticeFunction(n, np.stack(sq, axis=1), cfg.q), cfg.p)
        rhs = _lp_x(LatticeFunction(n, np.sqrt((stack**2).sum(axis=0)), cfg.q), cfg.p)
        trials.append({"trial": t, "lhs": lhs, "rhs": rhs, "ratio": _ratio(lhs, rhs)})
    worst = max([0.0] + [rec["ratio"] for rec in trials])
    contracts = cfg.dim == 1 and cfg.p == 2 and cfg.mean_zero
    name = "square function contracts at p=2, d=1, mean zero" if contracts else None
    return _finish(cfg, trials, ex._summarize(trials), _asserted(worst, name))


def reference_vector(cfg):
    n = cfg.resolution
    trials = []
    for t in range(cfg.trials):
        f = random_lattice_function((cfg.seed, t, 0), n, cfg.dim, cfg.q, cfg.policy)
        intervals = _family(cfg, (cfg.seed, t, 1))
        coeffs = analyze_values(f.values)
        comps = []
        for iv in intervals:
            kept = np.zeros_like(coeffs)
            kept[iv.lo : iv.hi] = coeffs[iv.lo : iv.hi]
            comps.append(LatticeFunction(n, synthesize_values(kept), cfg.q))
        cell_norms = rad_norm_values(comps, cfg.p, cfg.rad, seed=[cfg.seed, t, 2])
        lhs = float(root_means(cell_norms[None], cfg.p, cfg.p)[0])
        rhs = _lp_x(f, cfg.p)
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


def reference_weak11(cfg, family_split=False):
    """Per-trial weak-type campaign.  Each component is split at the stopping
    cells on its own, or with `family_split` the family as one (cells, S, d)
    array, as the campaign does.  The two differ at d = 1 from two components
    on: numpy sums a lone component's (k, 1) cell block pairwise, a family's
    (k, S, 1) block one row at a time."""
    n = cfg.resolution
    trials = []
    for t in range(cfg.trials):
        decs = family_decompose(_family(cfg, (cfg.seed, t, 1)))
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
            if family_split:
                bad = split_at_cells(np.stack([g.values for g in gs], axis=1), cells, n)[0]
                bs = [LatticeFunction(n, bad[:, s], cfg.q) for s in range(len(gs))]
            else:
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
        decs = family_decompose(_family(cfg, (cfg.seed, t, 1)))
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
        g = SeqFunction(resolution, walsh_eval(m, resolution).values[None])
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


@pytest.mark.parametrize("trials", [1, 4, 7])
def test_scalar_probes_stop_at_the_trial_count(budget, trials):
    # fewer trials than the 6 probes score only the first ones, which a
    # budget of three columns splits across two chunks at 4 trials
    budget(1 << 3)
    cfg = ExperimentConfig(kind="scalar", resolution=3, trials=trials, seed=11, p=4.0, count=3)
    _same_report(cfg, reference_scalar)


@pytest.mark.parametrize("resolution", sorted(TRIALS))
def test_pointwise_matches_per_trial(budget, resolution):
    budget(1 << resolution)
    cfg = ExperimentConfig(
        kind="pointwise", resolution=resolution, trials=TRIALS[resolution] // 2,
        seed=12, count=4,
    )
    _same_report(cfg, reference_pointwise)


# (resolution, family, count): interval lengths, and with them the levels a
# column keeps, differ within a chunk, and from 8 components on numpy sums
# a lone trial's root cell pairwise
POINTWISE_FAMILIES = [
    (6, "random", 9),
    (8, "random", 8),
    (6, "misaligned", 12),
    (6, "singletons", 9),
    (6, "dyadic", 9),
]


@pytest.mark.parametrize("resolution, family, count", POINTWISE_FAMILIES)
def test_pointwise_families_match_per_trial(budget, resolution, family, count):
    budget(1 << resolution)
    cfg = ExperimentConfig(
        kind="pointwise", resolution=resolution, trials=TRIALS[resolution] // 2,
        seed=18, count=count, family=family,
    )
    _same_report(cfg, reference_pointwise)


def test_trial_block_sums_of_families_of_any_length(budget):
    # families of 1 to 5 intervals in one stack: every component is the
    # trial's own block sum, and a shorter family's last components are zero
    resolution, trials = 5, 7
    budget(1 << resolution)
    families, rows = [], []
    for t in range(trials):
        rows.append(random_function((19, t, 0), resolution, "gaussian-cells").values)
        count = 1 + t % 5
        intervals = ex.random_interval_family((19, t, 1), resolution, count)
        families.append(family_decompose(intervals))
    anchors = np.zeros((trials, 5), dtype=int)
    masks = np.zeros((trials, 5), dtype=int)
    for t, decs in enumerate(families):
        for s, dec in enumerate(decs):
            anchors[t, s] = dec.anchor
            masks[t, s] = sum(1 << j for j in dec.left_levels)
    stack = block_sum_stack(np.stack(rows, axis=1), anchors, masks)
    assert stack.shape == (1 << resolution, 5, trials)
    for t, (row, decs) in enumerate(zip(rows, families)):
        alone = block_sum_family(DyadicFunction(resolution, row), decs).values
        assert stack[:, : len(decs), t].T.tobytes() == alone.tobytes()
        assert not stack[:, len(decs) :, t].any()


# (dim, p, q): the asserted d = 1 contraction, then two lattice cases
LEMMA_CASES = [(1, 2.0, 2.0), (4, 3.0, 3.0), (9, 4.0, np.inf)]


@pytest.mark.parametrize("mean_zero", [True, False])
@pytest.mark.parametrize("components", [4, 9, 12])
@pytest.mark.parametrize("dim, p, q", LEMMA_CASES)
@pytest.mark.parametrize("resolution", [0, 4])
def test_lemma_matches_per_trial(budget, resolution, dim, p, q, components, mean_zero):
    budget((components * dim) << resolution)
    cfg = ExperimentConfig(
        kind="lemma", resolution=resolution, trials=11, seed=17, p=p, q=q, dim=dim,
        components=components, mean_zero=mean_zero,
    )
    _same_report(cfg, reference_lemma)


@pytest.mark.parametrize("step", [None, 3])
@pytest.mark.parametrize("kind", sorted(ex.RUNNERS))
def test_reports_do_not_depend_on_the_seed_batch(monkeypatch, kind, step):
    # 21 trials in seed batches of 1, 5 and 256 trials: the scalar run's
    # batches start after its 6 probes, at trial 6; a chunk step of 3
    # divides neither 5 nor 256
    cfg = ExperimentConfig(
        kind=kind, resolution=3, trials=21, seed=7, p=4.0, dim=2, count=3, components=3,
    )
    assert len(ex._scalar_probes(cfg.resolution)) == 6
    if step:
        # the floats a trial of each runner budgets for
        grid = cfg.dim << cfg.resolution
        cells = {
            "scalar": 1 << cfg.resolution,
            "pointwise": cfg.count << cfg.resolution,
            "vector": cfg.count * grid,
            "lemma": cfg.components * grid,
            "weak11": cfg.count * grid * (2 * cfg.lam_halfspan + 1),
            "adjoint": cfg.count * grid,
        }[kind]
        monkeypatch.setattr(walsh, "COLUMN_BUDGET", step * cells)
        assert walsh.column_chunks(cfg.trials, cells)[0] == slice(0, step)
    reports = []
    for batch in (1, 5, 256):
        monkeypatch.setattr(ex, "_SEED_BATCH", batch)
        reports.append(report_json_lines(ex.RUNNERS[kind](cfg), timestamp=""))
    assert reports[0] == reports[1] == reports[2]


# each id also names the public front that draws a trial's cells as `_draw_cells` does
@pytest.mark.parametrize(
    "kind",
    [
        pytest.param("pointwise", id="pointwise-random_function"),
        pytest.param("lemma", id="lemma-random_lattice_function"),
        pytest.param("weak11", id="weak11-random_lattice_function"),
        pytest.param("adjoint", id="adjoint-random_lattice_function"),
    ],
)
def test_nan_trial_stays_in_its_column(monkeypatch, kind):
    # a chunk holds trial 7 and at least six more; a NaN drawn for trial 7
    # must fail the run and leave every other trial's record as it is
    # without the NaN
    cfg = ExperimentConfig(kind=kind, resolution=5, trials=10, seed=3)
    clean = ex.RUNNERS[kind](cfg).trials
    real = ex._draw_cells
    draws = {"pointwise": 1, "lemma": cfg.components, "weak11": cfg.count}
    first_of_trial_7 = 7 * draws.get(kind, 1 + cfg.count)  # adjoint: f, then the g's
    calls = []

    def poisoned(rng, *args):
        values = real(rng, *args)
        calls.append(len(calls))
        if calls[-1] == first_of_trial_7:
            values[0] = np.nan
        return values

    monkeypatch.setattr(ex, "_draw_cells", poisoned)
    report = ex.RUNNERS[kind](cfg)
    assert not report.passed
    for before, after in zip(clean, report.trials):
        if after["trial"] == 7:
            assert any(math.isnan(v) for v in after.values())
        else:
            assert after == before


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, np.inf])
@pytest.mark.parametrize("dim", [1, 3, 9])
def test_lp_x_rows_match_per_trial_lp_x_norm(dim, q):
    # from p = 2 on trial 1 overflows its mean of p-th powers and trial 2
    # underflows it, so both are redone; trial 3 is zero, and one cell of
    # trial 4 overflows its q-th powers from q = 2 on
    resolution, trials = 4, 6
    values = np.random.default_rng(dim).standard_normal((1 << resolution, trials, dim))
    values[:, 1] *= 1e300
    values[:, 2] *= 1e-300
    values[:, 3] = 0.0
    values[5, 4] *= 1e300
    # the (T, cells, d) views of the (cells, T, d) stack of `vector` and of
    # the (cells, d, T) stack of `lemma`
    lemma = np.ascontiguousarray(values.transpose(0, 2, 1))
    for p in (1.0, 2.0, 4.0):
        cfg = ExperimentConfig(kind="vector", resolution=resolution, dim=dim, q=q, p=p)
        want = [_lp_x(LatticeFunction(resolution, values[:, t], q), p) for t in range(trials)]
        for rows in (values.swapaxes(0, 1), lemma.transpose(2, 0, 1)):
            got = ex._lp_x_rows(rows, cfg)
            assert np.array(got).tobytes() == np.array(want).tobytes(), p


def test_pointwise_chunk_memory_stays_within_16_grids():
    # from N = 14 up a chunk holds one trial; its block sums, sharp and rms
    # maximal functions must stay within 16 grid arrays (8 MiB at N = 16),
    # including the bit-reversal table the transforms rebuild
    resolution = 16
    cfg = ExperimentConfig(kind="pointwise", resolution=resolution, trials=3, count=4)
    ex.run_pointwise(cfg)  # lazy set-up outside the traced run
    walsh.bit_reversal.cache_clear()
    tracemalloc.start()
    try:
        ex.run_pointwise(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * (8 << resolution)


def test_weak11_chunk_memory_stays_within_20_grids():
    # from N = 14 up a chunk holds one trial and one height of it at a time.
    # Its components, T* and the bad parts of one height (2 + 1 + 2 grids at
    # two components), leaf and output norms (2), and the transform pass over
    # the bad parts: anchor columns, coefficients, kept coefficients,
    # synthesized blocks and the butterflies' scratch (2 each, 10 grids), plus
    # the bit-reversal table (1): 18 grids.  All 13 heights at once would
    # hold 26 grids of bad parts alone.
    resolution = 14
    cfg = ExperimentConfig(kind="weak11", resolution=resolution, trials=2, count=2)
    ex.run_weak11(cfg)  # lazy set-up outside the traced run
    walsh.bit_reversal.cache_clear()
    tracemalloc.start()
    try:
        ex.run_weak11(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * (8 << resolution)


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


# (resolution, family, count, dim, lam_halfspan, rad): 8 and more components,
# where a sum along a contiguous component axis would be pairwise, and one
# component at d = 1, where every cell mean of a stopping cell is pairwise
WEAK11_CASES = [
    (6, "random", 8, 1, 6, "exact"),
    (6, "misaligned", 9, 3, 0, "exact"),
    (6, "singletons", 12, 1, 6, "exact"),
    (6, "dyadic", 3, 3, 6, "exact"),
    (5, "random", 9, 3, 6, "mc:32"),
    (4, "dyadic", 12, 3, 0, "exact"),
    (4, "random", 1, 1, 6, "exact"),
]


@pytest.mark.parametrize("resolution, family, count, dim, lam_halfspan, rad", WEAK11_CASES)
def test_weak11_families_match_per_trial(
    budget, resolution, family, count, dim, lam_halfspan, rad
):
    # three trials a chunk, or from one trial over the budget on, a chunk of heights
    budget((count * (2 * lam_halfspan + 1) * dim) << resolution)
    cfg = ExperimentConfig(
        kind="weak11", resolution=resolution, trials=7, seed=20, dim=dim, count=count,
        family=family, lam_halfspan=lam_halfspan, rad=rad,
    )
    family_split = dim == 1 and count > 1  # where the two splits differ
    _same_report(cfg, lambda cfg: reference_weak11(cfg, family_split))


# (resolution, family, count, dim)
ADJOINT_CASES = [
    (6, "random", 3, 1),
    (5, "misaligned", 8, 3),
    (6, "singletons", 9, 1),
    (4, "dyadic", 12, 3),
    (6, "dyadic", 8, 1),
    (3, "random", 1, 1),
]


@pytest.mark.parametrize("resolution, family, count, dim", ADJOINT_CASES)
def test_adjoint_families_match_per_trial(budget, resolution, family, count, dim):
    budget((count * dim) << resolution)
    cfg = ExperimentConfig(
        kind="adjoint", resolution=resolution, trials=7, seed=21, dim=dim, count=count,
        family=family,
    )
    _same_report(cfg, reference_adjoint)


# (resolution, dim, count) wherever a random family of `count` intervals fits
SEGMENT_CASES = [
    (resolution, dim, count)
    for resolution in (0, 1, 3, 6, 9, 14)
    for dim in (1, 3)
    for count in (1, 3, 8)
    if count <= ex._family_capacity(resolution, "random")
]


@pytest.mark.parametrize("resolution, dim, count", SEGMENT_CASES)
def test_segment_fronts_match_per_interval_reference(budget, resolution, dim, count):
    # the single-family fronts run the block-sum engine as a one-trial stack;
    # the owner-aware kernels the campaigns call on a stack of the three
    # families must give each family's columns the bits of its fronts
    budget(dim << resolution)
    fs, gs_stacks, families, fronts = [], [], [], []
    for seed in (22, 23, 24):
        decs = family_decompose(ex.random_interval_family((seed, 0, 1), resolution, count))
        f, *gs = [
            random_lattice_function((seed, 0, s), resolution, dim, 2.0, "gaussian-cells")
            for s in range(1 + count)
        ]
        forward = segment_transform(f, decs)
        assert len(forward) == count
        for got, want in zip(forward, _forward(f, decs)):
            assert got.values.tobytes() == want.values.tobytes()
        adjoint = segment_transform_adjoint(gs, decs).values
        assert adjoint.tobytes() == _adjoint(gs, decs).values.tobytes()
        fs.append(f.values)
        gs_stacks.append(np.stack([g.values for g in gs], axis=1))
        families.append(_family_arrays(decs, resolution))
        fronts.append((forward, adjoint))
    anchors, masks = (np.concatenate(arrays) for arrays in zip(*families))
    owners = np.repeat(np.arange(len(fronts)), count)
    columns = _segment_columns(np.stack(fs, axis=1), anchors, masks, owners)
    sums = _adjoint_of_stack(np.concatenate(gs_stacks, axis=1), anchors, masks, owners)
    for k, (forward, adjoint) in enumerate(fronts):
        for s, comp in enumerate(forward):
            assert columns[:, k * count + s].tobytes() == comp.values.tobytes()
        assert sums[:, k].tobytes() == adjoint.tobytes()


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

    def recording(values, anchors, masks):
        checked.append((anchors.tolist(), masks.tolist()))
        return block_sum_stack(values, anchors, masks)

    monkeypatch.setattr(ex, "block_sum_stack", recording)
    report = ex.exhaustive_pointwise_basis_check(
        resolution, max_intervals, spot_checks=spot_checks, seed=seed
    )
    expected, sampled = reference_basis_sweep(resolution, max_intervals, spot_checks, seed)
    assert json.dumps(report, sort_keys=True) == json.dumps(expected, sort_keys=True)
    # each spot check runs its family's anchors and left-level masks, in order
    ends = [np.array(fam).T for fam in sampled]
    assert checked == [([lo.tolist()], [left_level_masks(lo, hi).tolist()]) for lo, hi in ends]
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
