"""Randomized verification campaigns and their machine-readable reports.

Every campaign is driven by an `ExperimentConfig` that fully determines the
run: per-trial generators are seeded by (master seed, trial index, stream),
so two runs with equal configs produce identical reports and the result does
not depend on scheduling.

Campaigns separate "asserted" bounds, where the underlying identity pins an
exact constant (orthogonality at p = 2, the pointwise sharp bound with
constant 1, adjointness, support containment), from "reported" empirical
constants, which are emitted with max / mean / 99th percentile and never
asserted to a specific value.

The ratio campaigns for p > 2 open with a fixed block of deterministic
adversarial probes (a covered Walsh function, anticorrelated cascade
functions against the block family, a spike, a Riesz product) before the
seeded random trials.  The probes anchor the reported maximum at a
known-bad configuration, which is what makes the running maximum settle
early; a random trial beating them would itself be a finding.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from datetime import datetime, timezone

import numpy as np

from .dyadic import IntInterval, delta_block
from .intervals import decompose, family_decompose, verify_decomposition
from .lattice import (
    LatticeFunction,
    _adjoint_of_stack,
    _mc_samples,
    _sign_averaged_pairing,
    cells_mask,
    cz_decompose,
    duality_pairing,
    lp_radx_norm,
    lp_x_norm,
    rad_norm_values,
    root_means,
    segment_transform,
    segment_transform_adjoint,
    split_at_cells,
    stopping_cells,
    verify_cz,
)
from .operators import (
    SeqFunction,
    block_sum,
    block_sum_family,
    rms_maximal,
    sharp_maximal,
    square_function,
)
from .walsh import (
    DyadicCell,
    DyadicFunction,
    column_chunks,
    mart_diff,
    project,
    project_columns,
    restrict_rescale,
    synthesize_values,
    walsh_eval,
)

ASSERT_TOL = 1e-10
# Largest grid a campaign accepts: 2**20 cells, 8 MiB per float array.
MAX_RESOLUTION = 20
FAMILIES = ("random", "dyadic", "misaligned", "singletons")


def _check_resolution(resolution: int) -> None:
    if not 0 <= resolution <= MAX_RESOLUTION:
        raise ValueError(f"resolution must be in [0, {MAX_RESOLUTION}], got {resolution}")


def _check_min(least: int, **values) -> None:
    for name, value in values.items():
        if value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a campaign needs; equal configs give identical reports."""

    kind: str
    resolution: int = 8
    trials: int = 100
    seed: int = 0
    p: float = 2.0            # Lebesgue exponent
    q: float = 2.0            # lattice exponent of l^q(d)
    dim: int = 1              # lattice dimension d
    family: str = "random"    # random | dyadic | misaligned | singletons
    count: int = 4            # intervals per family
    rad: str = "exact"        # exact | mc:<samples>
    policy: str = "gaussian-cells"
    components: int = 4       # sequence length for lemma / weak-type runs
    lam_halfspan: int = 6     # weak-type lambda grid: median * 2**(-h .. h)
    mean_zero: bool = True    # subtract cell means in the lemma campaign
    probes: bool = True       # deterministic adversarial prefix in ratio runs

    def __post_init__(self) -> None:
        _check_resolution(self.resolution)
        if not (math.isfinite(self.p) and self.p >= 1):
            raise ValueError(f"exponent p must be finite and >= 1, got {self.p}")
        if not self.q >= 1:
            raise ValueError(f"lattice exponent q must be >= 1, got {self.q}")
        _check_min(
            1, trials=self.trials, count=self.count, dim=self.dim, components=self.components
        )
        _check_min(0, lam_halfspan=self.lam_halfspan, seed=self.seed)
        _check_policy(self.policy)
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family policy {self.family!r}")
        _mc_samples(self.rad)

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RatioReport:
    config: dict
    trials: list[dict]
    summary: dict
    passed: bool


def rng_for(seed, *key) -> np.random.Generator:
    if isinstance(seed, (int, np.integer)):
        entropy = [int(seed)]
    else:
        entropy = [int(s) for s in seed]
    # the generator default_rng builds, without its argument dispatch
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy + [int(k) for k in key]))
    )


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------


def _sparse_arg(policy: str) -> int:
    try:
        k = int(policy.split(":", 1)[1])
    except ValueError:
        k = 0
    if k < 1:
        raise ValueError(f"policy {policy!r} needs at least one coefficient")
    return k


def _check_policy(policy: str) -> None:
    if policy.startswith("sparse-spectrum:"):
        _sparse_arg(policy)
    elif policy not in ("gaussian-cells", "rademacher-cells"):
        raise ValueError(f"unknown function policy {policy!r}")


def random_function(seed, resolution: int, policy: str) -> DyadicFunction:
    """Seeded random grid function; deterministic in (seed, policy)."""
    rng = rng_for(seed)
    n = 1 << resolution
    if policy == "gaussian-cells":
        return DyadicFunction(resolution, rng.standard_normal(n))
    if policy == "rademacher-cells":
        return DyadicFunction(resolution, rng.choice([-1.0, 1.0], size=n))
    if policy.startswith("sparse-spectrum:"):
        k = _sparse_arg(policy)
        coeffs = np.zeros(n)
        idx = rng.choice(n, size=min(k, n), replace=False)
        coeffs[idx] = rng.choice([-1.0, 1.0], size=idx.size)
        return DyadicFunction(resolution, synthesize_values(coeffs))
    raise ValueError(f"unknown function policy {policy!r}")


def random_lattice_function(
    seed, resolution: int, dim: int, q: float, policy: str
) -> LatticeFunction:
    """Seeded lattice-valued grid function, coordinatewise by policy."""
    rng = rng_for(seed)
    n = 1 << resolution
    if policy == "gaussian-cells":
        return LatticeFunction(resolution, rng.standard_normal((n, dim)), q)
    if policy == "rademacher-cells":
        return LatticeFunction(resolution, rng.choice([-1.0, 1.0], size=(n, dim)), q)
    if policy.startswith("sparse-spectrum:"):
        k = _sparse_arg(policy)
        coeffs = np.zeros((n, dim))
        for c in range(dim):
            idx = rng.choice(n, size=min(k, n), replace=False)
            coeffs[idx, c] = rng.choice([-1.0, 1.0], size=idx.size)
        return LatticeFunction(resolution, synthesize_values(coeffs), q)
    raise ValueError(f"unknown function policy {policy!r}")


def random_interval_family(
    seed, resolution: int, count: int, policy: str = "random"
) -> list[IntInterval]:
    """Seeded family of pairwise disjoint index intervals inside [0, 2**N)."""
    if count < 1:
        raise ValueError("need at least one interval")
    rng = rng_for(seed)
    size = 1 << resolution
    if policy == "random":
        if 2 * count > size + 1:
            raise ValueError(f"cannot fit {count} disjoint intervals in [0, {size})")
        pts = np.sort(rng.choice(size + 1, size=2 * count, replace=False))
        return [
            IntInterval(int(pts[2 * i]), int(pts[2 * i + 1])) for i in range(count)
        ]
    if policy == "singletons":
        if count > size:
            raise ValueError(f"cannot fit {count} singletons in [0, {size})")
        pts = np.sort(rng.choice(size, size=count, replace=False))
        return [IntInterval(int(n), int(n) + 1) for n in pts]
    if policy == "dyadic":
        level = max(count - 1, 0).bit_length()
        if level > resolution:
            raise ValueError(f"cannot fit {count} dyadic pieces in [0, {size})")
        width = size >> level
        pos = np.sort(rng.choice(1 << level, size=count, replace=False))
        return [IntInterval(int(j) * width, (int(j) + 1) * width) for j in pos]
    if policy == "misaligned":
        need = (resolution + 1) // 2
        candidates = np.arange(1, size)
        eligible = candidates[np.bitwise_count(candidates) >= need]
        if 2 * count > eligible.size:
            raise ValueError(
                f"cannot pick {2 * count} misaligned endpoints in [0, {size})"
            )
        pts = np.sort(rng.choice(eligible, size=2 * count, replace=False))
        return [
            IntInterval(int(pts[2 * i]), int(pts[2 * i + 1])) for i in range(count)
        ]
    raise ValueError(f"unknown family policy {policy!r}")


# ---------------------------------------------------------------------------
# Shared campaign helpers
# ---------------------------------------------------------------------------


def _family_for_trial(cfg: ExperimentConfig, t: int) -> list[IntInterval]:
    return random_interval_family(
        (cfg.seed, t, 1), cfg.resolution, cfg.count, cfg.family
    )


def _interval_projections(values: np.ndarray, families):
    """Project every column onto the s-th interval of its family, for s = 0, 1, ...

    `values` is a (cells, T, ...) stack holding one function per column t,
    any further axes being lattice coordinates; `families` holds one
    interval list per column.  A column whose list is shorter keeps nothing
    past its end, i.e. gets an exact zero projection.  Yields one
    projection of the whole stack per s.
    """
    depth = max(map(len, families), default=0)
    selections = (
        [[(fam[s].lo, fam[s].hi)] if s < len(fam) else [] for fam in families]
        for s in range(depth)
    )
    return project_columns(values, selections)


def _sq_sum_of_projections(values: np.ndarray, intervals) -> np.ndarray:
    """Pointwise sum of squared spectral projections onto the intervals.

    `values` is one grid function with its interval list, or a (cells, T)
    stack of functions with one interval list per column.  Squares are
    added in interval order, one (cells, T) projection at a time.
    """
    if values.ndim == 1:
        return _sq_sum_of_projections(values[:, None], [intervals])[:, 0]
    acc = np.zeros(values.shape)
    for proj in _interval_projections(values, intervals):
        acc += np.square(proj, out=proj)
        del proj  # free it before the next projection is made
    return acc


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 over a zero denominator; NaN when either side is NaN
    or infinite, so an overflowed norm cannot read as a finite ratio."""
    if not (math.isfinite(num) and math.isfinite(den)):
        return math.nan
    return num / den if den > 0 else 0.0


def _worst(values, start: float = 0.0) -> float:
    """max(start, *values), but NaN when any value is NaN.

    The builtin max drops a NaN that is not first (max(0.0, nan) == 0.0),
    which would let a broken trial pass an asserted bound.
    """
    values = list(values)
    if any(math.isnan(v) for v in values):
        return math.nan
    return max([start, *values])


def _scalar_probes(resolution: int) -> list[tuple[str, np.ndarray, list[IntInterval]]]:
    """Deterministic adversarial cases anchoring the ratio maximum."""
    n = 1 << resolution
    blocks = [IntInterval(0, 1)] + [delta_block(k) for k in range(1, resolution + 1)]
    w = lambda m: walsh_eval(m, resolution).values
    cases: list[tuple[str, np.ndarray, list[IntInterval]]] = []
    mid = (1 << (resolution - 1)) + 1 if resolution >= 2 else n - 1
    cases.append(("walsh-covered", w(mid), blocks))
    if resolution >= 3:
        low_blocks = [delta_block(k) for k in (1, 2, 3)]
        for c in (1.0, 1.272, 2.0):
            vals = w(1) + w(2) + c * (w(4) - w(7))
            cases.append((f"cascade-{c}", vals, low_blocks))
    spike = np.zeros(n)
    spike[0] = float(n)
    cases.append(("spike", spike, blocks))
    riesz = np.ones(n)
    for k in range(1, resolution + 1):
        riesz = riesz * (1.0 + 0.9 * w(1 << (k - 1)))
    cases.append(("riesz-0.9", riesz, blocks))
    return cases


def _summarize(trials: list[dict], key: str = "ratio") -> dict:
    arr = np.array([t[key] for t in trials], dtype=float)
    return {
        "n_trials": int(arr.size),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
        "median": float(np.quantile(arr, 0.5)),
        "q99": float(np.quantile(arr, 0.99)),
        "argmax_trial": int(arr.argmax()),
    }


def _bounded(name: str, worst: float, bound: float) -> dict:
    """Asserted check: the worst value is at most `bound`, up to ASSERT_TOL."""
    return {"name": name, "passed": worst <= bound + ASSERT_TOL, "worst": worst}


def _finite(worst: float) -> dict:
    """Asserted check where no bound is pinned: the worst ratio is finite."""
    return {"name": "ratios finite", "passed": math.isfinite(worst), "worst": worst}


def _report(cfg, trials, checks, key="ratio", **extra) -> RatioReport:
    """The report of a campaign: the distribution of `key` over the trials,
    then each `extra` entry that is not None, then the asserted checks; it
    passes iff every check does."""
    summary = _summarize(trials, key)
    summary.update((name, value) for name, value in extra.items() if value is not None)
    summary["asserted"] = checks
    return RatioReport(cfg.to_dict(), trials, summary, all(c["passed"] for c in checks))


def _regime(p: float) -> str | None:
    return "p<2 report-only" if p < 2 else None


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


def _scalar_chunk(cfg: ExperimentConfig, probes, ts: range) -> list[dict]:
    """Trial records of one budgeted chunk of scalar trials.

    Each trial is drawn with its own seeded generators into one row of a
    trial-major array; the transforms then run on the whole chunk.
    """
    rows = np.empty((len(ts), 1 << cfg.resolution))  # trial-major for the means
    cases, families = [], []
    for k, t in enumerate(ts):
        if t < len(probes):
            case, rows[k], intervals = probes[t]
        else:
            case, intervals = cfg.policy, _family_for_trial(cfg, t)
            rows[k] = random_function((cfg.seed, t, 0), cfg.resolution, cfg.policy).values
        cases.append(case)
        families.append(intervals)
    rhs = root_means(np.abs(rows), cfg.p, cfg.p).tolist()
    sq = _sq_sum_of_projections(np.ascontiguousarray(rows.T), families)
    lhs = root_means(np.ascontiguousarray(sq.T), cfg.p, cfg.p / 2.0).tolist()
    return [
        {"trial": t, "case": case, "lhs": num, "rhs": den, "ratio": _ratio(num, den)}
        for t, case, num, den in zip(ts, cases, lhs, rhs)
    ]


def run_scalar_lpr(cfg: ExperimentConfig) -> RatioReport:
    """Square function of interval projections against the plain L^p norm.

    Asserts ratio <= 1 at p = 2 (orthogonality); for p != 2 the ratio is
    reported only (and for p < 2 the run is explicitly report-only, the
    inequality being false in general there).
    """
    probes = _scalar_probes(cfg.resolution) if cfg.probes else []
    trials = []
    for chunk in column_chunks(cfg.trials, 1 << cfg.resolution):
        trials += _scalar_chunk(cfg, probes, range(chunk.start, chunk.stop))
    worst = _worst(rec["ratio"] for rec in trials)
    if cfg.p == 2:
        checks = [_bounded("ratio<=1 at p=2", worst, 1.0)]
    else:
        checks = [_finite(worst)] if cfg.p > 2 else []
    return _report(cfg, trials, checks, regime=_regime(cfg.p))


def run_pointwise(cfg: ExperimentConfig) -> RatioReport:
    """Sharp function of the block transform against the rms maximal function.

    The bound holds pointwise with constant exactly one; every trial asserts
    it cellwise.
    """
    trials = []
    for t in range(cfg.trials):
        f = random_function((cfg.seed, t, 0), cfg.resolution, cfg.policy)
        decs = family_decompose(_family_for_trial(cfg, t))
        sharp = sharp_maximal(block_sum_family(f, decs)).values
        m2 = rms_maximal(f).values
        excess = float((sharp - m2).max())
        pos = m2 > 0
        ratio = float((sharp[pos] / m2[pos]).max()) if pos.any() else 0.0
        trials.append({"trial": t, "ratio": ratio, "excess": excess})
    worst_ratio = _worst(rec["ratio"] for rec in trials)
    worst_excess = _worst((rec["excess"] for rec in trials), -np.inf)
    check = _bounded("pointwise sharp <= rms maximal (constant 1)", worst_ratio, 1.0)
    check["passed"] &= worst_excess <= ASSERT_TOL
    return _report(cfg, trials, [check], worst_excess=worst_excess)


def _vector_chunk(cfg: ExperimentConfig, ts: range) -> list[dict]:
    """Trial records of one budgeted chunk of vector trials."""
    fs = [
        random_lattice_function((cfg.seed, t, 0), cfg.resolution, cfg.dim, cfg.q, cfg.policy)
        for t in ts
    ]
    families = [_family_for_trial(cfg, t) for t in ts]
    values = np.stack([f.values for f in fs], axis=1)  # (cells, T, d)
    comps = [[] for _ in ts]
    sq = np.zeros(values.shape[:2])  # scalar square function at d = 1
    for s, proj in enumerate(_interval_projections(values, families)):
        for k, family in enumerate(families):
            if s < len(family):
                comps[k].append(LatticeFunction(cfg.resolution, proj[:, k], cfg.q))
        if cfg.dim == 1:
            sq += np.square(proj[:, :, 0])
    if cfg.dim == 1:
        scalars = root_means(np.ascontiguousarray(sq.T), cfg.p, cfg.p / 2.0).tolist()
    records = []
    for k, t in enumerate(ts):
        lhs = lp_radx_norm(comps[k], cfg.p, cfg.rad, seed=[cfg.seed, t, 2])
        rhs = lp_x_norm(fs[k], cfg.p)
        rec = {"trial": t, "lhs": lhs, "rhs": rhs, "ratio": _ratio(lhs, rhs)}
        if cfg.dim == 1:
            rec["scalar_lhs"] = scalars[k]
            rec["rad_over_scalar"] = _ratio(lhs, scalars[k])
        records.append(rec)
    return records


def run_vector_lpr(cfg: ExperimentConfig) -> RatioReport:
    """Sign-averaged norm of lattice-valued interval projections vs the source norm.

    Asserts ratio <= 1 only in the exact-sign p = q = 2 case; other regimes
    are reported.  For d = 1 each trial also records the scalar square
    function value so the two formulations can be compared.
    """
    trials = []
    # the budget covers all cfg.count projections a chunk of trials keeps
    for chunk in column_chunks(cfg.trials, (cfg.count * cfg.dim) << cfg.resolution):
        trials += _vector_chunk(cfg, range(chunk.start, chunk.stop))
    worst = _worst(rec["ratio"] for rec in trials)
    if cfg.p == 2 and cfg.q == 2 and cfg.rad == "exact":
        check = _bounded("ratio<=1 at p=q=2 exact signs", worst, 1.0)
    else:
        check = _finite(worst)
    return _report(cfg, trials, [check], regime=_regime(cfg.p))


def run_lemma_square(cfg: ExperimentConfig) -> RatioReport:
    """Coordinatewise martingale square function vs the l2-aggregated norm.

    Generates a family of lattice-valued components (cell means removed when
    mean_zero is set), applies the square function per coordinate across the
    family, and compares L^p(lattice) norms.  The d = 1, p = 2 mean-zero case
    asserts ratio <= 1; lattice cases are reported.
    """
    trials = []
    for t in range(cfg.trials):
        comps = [
            random_lattice_function(
                (cfg.seed, t, s), cfg.resolution, cfg.dim, cfg.q, cfg.policy
            )
            for s in range(cfg.components)
        ]
        if cfg.mean_zero:
            comps = [
                LatticeFunction(
                    c.resolution, c.values - c.values.mean(axis=0), c.q
                )
                for c in comps
            ]
        stack = np.stack([c.values for c in comps])  # (S, cells, d)
        sq_cols = [
            square_function(SeqFunction(cfg.resolution, stack[:, :, c])).values
            for c in range(cfg.dim)
        ]
        s_fun = LatticeFunction(cfg.resolution, np.stack(sq_cols, axis=1), cfg.q)
        lhs = lp_x_norm(s_fun, cfg.p)
        rhs_fun = LatticeFunction(
            cfg.resolution, np.sqrt((stack**2).sum(axis=0)), cfg.q
        )
        rhs = lp_x_norm(rhs_fun, cfg.p)
        trials.append({"trial": t, "lhs": lhs, "rhs": rhs, "ratio": _ratio(lhs, rhs)})
    worst = _worst(rec["ratio"] for rec in trials)
    if cfg.dim == 1 and cfg.p == 2 and cfg.mean_zero:
        check = _bounded("square function contracts at p=2, d=1, mean zero", worst, 1.0)
    else:
        check = _finite(worst)
    return _report(cfg, trials, [check])


def run_weak11(cfg: ExperimentConfig) -> RatioReport:
    """Weak-type (1,1) behaviour of the adjoint segment transform.

    Per trial: draw a component family g, split it at each height of a
    geometric lambda grid around the median output norm with the shared
    stopping cells of its pointwise sign-averaged norm, and check that the
    adjoint transform of the bad part vanishes off the stopping cells.  The
    containment is asserted exactly; the weak-type constant
    lam * |{|T*g| > lam}| / ||g||_1 is reported over the grid.
    """
    trials = []
    for t in range(cfg.trials):
        decs = family_decompose(_family_for_trial(cfg, t))
        gs = [
            random_lattice_function(
                (cfg.seed, t, 10 + s), cfg.resolution, cfg.dim, cfg.q, cfg.policy
            )
            for s in range(len(decs))
        ]
        tstar = segment_transform_adjoint(gs, decs)
        out_norms = tstar.norm_values()
        leaf = rad_norm_values(gs, 2.0, cfg.rad, seed=[cfg.seed, t, 3])
        l1 = float(leaf.mean())
        med = float(np.median(out_norms))
        scale = med if med > 0 else (l1 if l1 > 0 else 1.0)
        lams = [scale * 2.0**e for e in range(-cfg.lam_halfspan, cfg.lam_halfspan + 1)]
        weak, excess = [], []
        for chunk in column_chunks(len(lams), len(gs) * gs[0].values.size):
            stops = [stopping_cells(leaf, lam) for lam in lams[chunk]]
            bad = np.stack(  # (cells, S, heights, d): every height in one adjoint pass
                [
                    np.stack(
                        [split_at_cells(g.values, cells, cfg.resolution)[0] for g in gs],
                        axis=1,
                    )
                    for cells in stops
                ],
                axis=2,
            )
            tstar_bad = _adjoint_of_stack(bad, decs, cfg.resolution)
            for k, (lam, cells) in enumerate(zip(lams[chunk], stops)):
                tstar_b = LatticeFunction(cfg.resolution, tstar_bad[:, k], cfg.q)
                off = ~cells_mask(cells, cfg.resolution)
                if off.any():
                    excess.append(float(tstar_b.norm_values()[off].max()))
                weak.append(_ratio(lam * float((out_norms > lam).mean()), l1))
        trials.append(
            {"trial": t, "ratio": _worst(weak), "support_excess": _worst(excess)}
        )
    worst_excess = _worst(rec["support_excess"] for rec in trials)
    check = _bounded("adjoint of bad part supported on stopping cells", worst_excess, 0.0)
    return _report(cfg, trials, [check], worst_support_excess=worst_excess)


def run_adjointness(cfg: ExperimentConfig) -> RatioReport:
    """Exact adjointness of the segment transform pair under sign averaging."""
    if cfg.rad != "exact":
        raise ValueError("adjointness requires exact sign mode")
    trials = []
    for t in range(cfg.trials):
        decs = family_decompose(_family_for_trial(cfg, t))
        f = random_lattice_function(
            (cfg.seed, t, 0), cfg.resolution, cfg.dim, cfg.q, cfg.policy
        )
        gs = [
            random_lattice_function(
                (cfg.seed, t, 10 + s), cfg.resolution, cfg.dim, cfg.q, cfg.policy
            )
            for s in range(len(decs))
        ]
        tf = segment_transform(f, decs)
        rhs = duality_pairing(f, segment_transform_adjoint(gs, decs))
        lhs = _sign_averaged_pairing(tf, gs)
        residual = abs(lhs - rhs) / (1.0 + abs(rhs))
        trials.append({"trial": t, "lhs": lhs, "rhs": rhs, "residual": residual})
    worst = _worst(rec["residual"] for rec in trials)
    return _report(cfg, trials, [_bounded("adjointness residual", worst, 0.0)], "residual")


# ---------------------------------------------------------------------------
# Identity suite, decomposition driver, CZ driver (CLI backends)
# ---------------------------------------------------------------------------


def _all_cells(resolution: int):
    for level in range(resolution + 1):
        for pos in range(1 << level):
            yield DyadicCell(level, pos)


def verify_identities(resolution: int = 8, trials: int = 50, seed: int = 0) -> dict:
    """Run the operator-layer invariant battery; returns a JSON-able report.

    Asserted identities are exact up to float tolerance; the sharp-function
    lower bound for mean-zero families carries no usable constant and is
    reported as an empirical ratio distribution instead.
    """
    _check_resolution(resolution)
    _check_min(1, trials=trials)
    _check_min(0, seed=seed)
    # Each trial draws 1..max_count disjoint intervals.  Their 2 * count
    # endpoints are distinct points of [0, 2**resolution], which holds for
    # every draw once 2**resolution >= 2 * max_count - 1.
    max_count = 6
    min_resolution = (2 * max_count - 2).bit_length()
    if resolution < min_resolution:
        raise ValueError(
            f"resolution must be >= {min_resolution} to fit {max_count} disjoint "
            f"intervals, got {resolution}"
        )
    checks = {
        "projection_identity": 0.0,
        "pointwise_sharp_vs_rms": 0.0,
        "mean_subtraction_optimality": 0.0,
        "orthogonality_sum": 0.0,
        "mean_truncation": 0.0,
        "telescoping": 0.0,
        "locality": 0.0,
        "constancy": 0.0,
        "block_mean_zero": 0.0,
        "rescaling_identity": 0.0,
    }
    norm_ratios = []
    n = 1 << resolution
    for t in range(trials):
        rng = rng_for((seed, t))
        f = random_function((seed, t, 0), resolution, "gaussian-cells")
        count = int(rng.integers(1, max_count + 1))
        intervals = random_interval_family((seed, t, 1), resolution, count)
        decs = family_decompose(intervals)

        for dec in decs:
            for base, levels, union in (
                (dec.anchor, dec.left_levels, dec.left_union()),
                (dec.interval.hi, dec.right_levels, dec.right_union()),
            ):
                if not levels or base >= n:
                    continue
                lhs = project(sorted(union), f).values
                rhs = walsh_eval(base, resolution).values * block_sum(
                    f, base, levels
                ).values
                checks["projection_identity"] = max(
                    checks["projection_identity"], float(np.abs(lhs - rhs).max())
                )

        g = block_sum_family(f, decs)
        sharp = sharp_maximal(g).values
        m2 = rms_maximal(f).values
        checks["pointwise_sharp_vs_rms"] = max(
            checks["pointwise_sharp_vs_rms"], float((sharp - m2).max())
        )
        checks["block_mean_zero"] = max(
            checks["block_mean_zero"], float(np.abs(g.values.mean(axis=1)).max())
        )
        for p_exp in (2.0, 4.0):
            gp = float(root_means((g.values**2).sum(axis=0)[None], p_exp, p_exp / 2)[0])
            sp = float(root_means(np.abs(sharp)[None], p_exp, p_exp)[0])
            if sp > 1e-12:
                norm_ratios.append(gp / sp)

        mean_vec = g.values.mean(axis=1)
        c = mean_vec + rng.standard_normal(mean_vec.shape)
        osc_mean = ((g.values - mean_vec[:, None]) ** 2).sum(axis=0).mean()
        osc_c = ((g.values - c[:, None]) ** 2).sum(axis=0).mean()
        checks["mean_subtraction_optimality"] = max(
            checks["mean_subtraction_optimality"], float(osc_mean - osc_c)
        )

        proj_sq = _sq_sum_of_projections(f.values, intervals)
        checks["orthogonality_sum"] = max(
            checks["orthogonality_sum"],
            float(proj_sq.mean() - (f.values**2).mean()),
        )

        total = np.zeros(n)
        for k in range(resolution + 1):
            total += mart_diff(k, f).values
        checks["telescoping"] = max(
            checks["telescoping"], float(np.abs(total - f.values).max())
        )

        level = int(rng.integers(1, resolution + 1))
        cell = DyadicCell(level, int(rng.integers(0, 1 << level)))
        sl = cell.grid_slice(resolution)
        outside = np.ones(n, dtype=bool)
        outside[sl] = False
        perturbed_vals = f.values.copy()
        perturbed_vals[outside] += rng.standard_normal(int(outside.sum()))
        perturbed = DyadicFunction(resolution, perturbed_vals)
        for j in range(cell.level + 1, resolution + 1):
            d_orig = mart_diff(j, f).values[sl]
            d_pert = mart_diff(j, perturbed).values[sl]
            checks["locality"] = max(
                checks["locality"], float(np.abs(d_orig - d_pert).max())
            )
        for j in range(0, cell.level + 1):
            vals = mart_diff(j, f).values[sl]
            checks["constancy"] = max(
                checks["constancy"], float(np.abs(vals - vals[0]).max())
            )

        a = int(rng.integers(0, n))
        m = cell.level
        wa_f = walsh_eval(a, resolution) * f
        f_tilde = restrict_rescale(f, cell)
        sign = walsh_eval(a & ((1 << m) - 1), m).values[cell.position]
        wa_tilde = walsh_eval(a >> m, resolution - m)
        for j in range(m + 1, resolution + 1):
            lhs = mart_diff(j, wa_f).values[sl]
            rhs = sign * mart_diff(j - m, wa_tilde * f_tilde).values
            checks["rescaling_identity"] = max(
                checks["rescaling_identity"], float(np.abs(lhs - rhs).max())
            )

    # mean truncation sweep at a coarse resolution, all dyadic cells
    res6 = min(resolution, 6)
    f6 = random_function((seed, trials, 0), res6, "gaussian-cells")
    intervals6 = random_interval_family((seed, trials, 1), res6, 2)
    for dec in family_decompose(intervals6):
        if not dec.left_levels:
            continue
        full = block_sum(f6, dec.anchor, dec.left_levels).values
        for cell in _all_cells(res6):
            inv_measure = 1 << cell.level
            kept = [j for j in dec.left_levels if (1 << j) <= inv_measure]
            truncated = block_sum(f6, dec.anchor, kept).values
            sl = cell.grid_slice(res6)
            checks["mean_truncation"] = max(
                checks["mean_truncation"],
                abs(float(full[sl].mean()) - float(truncated[sl].mean())),
            )

    ratios = np.array(norm_ratios) if norm_ratios else np.zeros(1)
    results = [
        {"name": name, "worst_residual": worst, "passed": worst <= ASSERT_TOL}
        for name, worst in checks.items()
    ]
    return {
        "config": {"resolution": resolution, "trials": trials, "seed": seed},
        "checks": results,
        "reported": {
            "norm_over_sharp": {
                "max": float(ratios.max()),
                "mean": float(ratios.mean()),
                "q99": float(np.quantile(ratios, 0.99)),
            }
        },
        "passed": all(r["passed"] for r in results),
    }


def decompose_report(a: int, b: int) -> dict:
    """Decomposition of [a, b) plus its elementwise verification, JSON-able.

    The verification enumerates every element, so [a, b) may hold at most
    2**MAX_RESOLUTION of them, the size of the largest campaign grid.
    """
    if b - a > 1 << MAX_RESOLUTION:
        raise ValueError(
            f"interval [{a}, {b}) has {b - a} elements, more than 2**{MAX_RESOLUTION}"
        )
    dec = decompose(a, b)
    chk = verify_decomposition(dec, a, b)
    return {
        "a": a,
        "b": b,
        "anchor": dec.anchor,
        "left": [{"level": j, "lo": piece.lo, "hi": piece.hi} for j, piece in dec.left],
        "right": [
            {"level": i, "lo": piece.lo, "hi": piece.hi} for i, piece in dec.right
        ],
        "checks": chk.as_dict(),
        "passed": chk.passed,
    }


def czd_report(
    resolution: int, dim: int, q: float, lam: float, seed: int
) -> dict:
    """Splitting of a seeded random lattice function at an absolute height."""
    _check_resolution(resolution)
    _check_min(1, dim=dim)
    _check_min(0, seed=seed)
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError(f"threshold lambda must be finite and positive, got {lam}")
    if not q >= 1:
        raise ValueError(f"lattice exponent q must be >= 1, got {q}")
    g = random_lattice_function((seed, 0, 0), resolution, dim, q, "gaussian-cells")
    result = cz_decompose(g, lam)
    report = verify_cz(result, g)
    report["config"] = {
        "resolution": resolution,
        "dim": dim,
        "q": q,
        "lam": lam,
        "seed": seed,
    }
    return report


# ---------------------------------------------------------------------------
# Exhaustive basis sweep for the pointwise bound
# ---------------------------------------------------------------------------


def exhaustive_pointwise_basis_check(
    resolution: int = 5, max_intervals: int = 3, spot_checks: int = 200, seed: int = 0
) -> dict:
    """Pointwise sharp bound over every family of <= max_intervals intervals
    in [0, 2**resolution) with every Walsh basis function as input.

    On basis inputs all pipeline arithmetic is exact: the modulated function
    is again a basis function, its block restriction is either zero or that
    same function, so the sharp value is a table lookup once the single-input
    tables are computed through the real operators.  The sweep enumerates all
    families against those tables and asserts that at most one interval
    captures each basis index (pieces are disjoint across a family); a seeded
    subsample of (family, basis) pairs is re-run through the full pipeline to
    pin the tables to the real code path.

    Families are enumerated depth by depth as arrays: a family's children
    append any interval starting at or after its last end, and each family
    carries the capture row of its union (the basis index its block sum
    keeps at every input, or -1).  Children are grown a budgeted chunk at a
    time (`column_chunks`, `depth * 2**resolution` cells per family), at
    most one live chunk per depth, so memory does not grow with the family
    count.  Every family draws one uniform in the depth-first preorder of
    the family tree (parent, then its children's subtrees in interval
    order); the draws are made in consecutive blocks, which consumes the
    generator exactly as one draw per family would, and the sampled ranks
    are mapped back to families through per-depth subtree sizes.
    """
    if max_intervals < 1:
        raise ValueError(f"max_intervals must be >= 1, got {max_intervals}")
    n = 1 << resolution
    # intervals in (lo, hi) order: those starting at or after s are the
    # suffix from first[s]
    lo, hi = np.array(
        [(a, b) for a in range(n) for b in range(a + 1, n + 1)], dtype=np.int64
    ).T
    n_iv = len(lo)
    first = np.searchsorted(lo, np.arange(n + 1))
    grid = np.arange(n)
    bit_length = np.array([m.bit_length() for m in range(n)])
    capture = np.full((n_iv, n), -1, dtype=np.int64)
    for i, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        m = a ^ grid
        kept = np.isin(bit_length[m], decompose(a, b).left_levels)
        capture[i, kept] = m[kept]

    # single-input tables through the real operators
    sharp_tab = np.zeros(n + 1)  # index m+1; slot 0 is the zero function
    for m in range(n):
        g = SeqFunction.from_components([walsh_eval(m, resolution)])
        sharp_tab[m + 1] = float(sharp_maximal(g).values.max())
    m2_tab = np.array(
        [float(rms_maximal(walsh_eval(nn, resolution)).values.min()) for nn in range(n)]
    )
    if float(np.abs(m2_tab - 1.0).max()) != 0.0:
        raise RuntimeError("rms maximal function of a Walsh function is not exactly 1")

    def children(union, ends, depth):
        """Budgeted chunks of the depth-`depth` children of a chunk of families:
        (parent capture rows, appended interval indices, depth)."""
        counts = n_iv - first[ends]
        offsets = np.cumsum(counts) - counts
        for sl in column_chunks(int(counts.sum()), depth * n):
            pos = np.arange(sl.start, sl.stop)
            parent = np.searchsorted(offsets, pos, side="right") - 1
            yield union[parent], first[ends[parent]] + pos - offsets[parent], depth

    families = 0
    chunk_worst = []
    open_levels = [children(np.full((1, n), -1), np.zeros(1, dtype=np.int64), 1)]
    while open_levels:
        chunk = next(open_levels[-1], None)
        if chunk is None:
            open_levels.pop()
            continue
        union, added, depth = chunk
        rows = capture[added]
        twice = (union >= 0) & (rows >= 0)
        if twice.any():
            j, nn = np.argwhere(twice)[0]
            raise RuntimeError(
                f"a family ending in [{lo[added[j]]}, {hi[added[j]]}) captures "
                f"index {nn} twice"
            )
        union = np.maximum(union, rows)
        families += len(added)
        chunk_worst.append(float(sharp_tab[union + 1].max()))
        if depth < max_intervals:
            open_levels.append(children(union, hi[added], depth + 1))
    worst = _worst(chunk_worst)

    # subtree[h]: families in the subtree of a depth-d family ending at h,
    # itself included; before[d][i]: families in the subtrees of the depth-d
    # families ending in the intervals ahead of interval i
    subtree = np.ones(n + 1, dtype=np.int64)
    before = {}
    for d in range(max_intervals, 0, -1):
        before[d] = np.concatenate(([0], np.cumsum(subtree[hi])))
        subtree = 1 + before[d][-1] - before[d][first]
    if families != int(before[1][-1]):
        raise RuntimeError("enumerated family count disagrees with the family tree")

    def unrank(rank):
        """The family with the given depth-first preorder rank."""
        family, start, d = [], 0, 1
        while True:
            target = before[d][first[start]] + rank
            i = int(np.searchsorted(before[d], target, side="right")) - 1
            family.append(i)
            rank = target - before[d][i]
            if rank == 0:
                return tuple(family)
            rank, start, d = rank - 1, hi[i], d + 1

    rng = rng_for((seed, 99))
    # The draw rate keeps the fixed 1.7e6 family scale of the original sweep:
    # an exact count would change `spot_checks` in every recorded report.
    rate = spot_checks / 1.7e6
    sampled = [
        unrank(sl.start + int(r))
        for sl in column_chunks(families, 1)
        for r in np.flatnonzero(rng.random(sl.stop - sl.start) < rate)
    ]

    # spot checks through the full pipeline
    for _ in range(min(spot_checks, 50) - len(sampled)):
        k = int(rng.integers(1, max_intervals + 1))
        fam, start = [], 0
        for _ in range(k):
            room = n_iv - int(first[start])
            if not room:
                break
            i = int(first[start]) + int(rng.integers(0, room))
            fam.append(i)
            start = hi[i]
        if fam:
            sampled.append(tuple(fam))
    spot_excess = []
    for fam in sampled:
        decs = family_decompose([IntInterval(int(lo[i]), int(hi[i])) for i in fam])
        nn = int(rng.integers(0, n))
        f = walsh_eval(nn, resolution)
        sharp = sharp_maximal(block_sum_family(f, decs)).values
        m2 = rms_maximal(f).values
        spot_excess.append(float((sharp - m2).max()))
        table_value = sharp_tab[capture[list(fam), nn].max() + 1]
        if not abs(float(sharp.max()) - table_value) <= 1e-12:
            pairs = [(int(lo[i]), int(hi[i])) for i in fam]
            raise RuntimeError(f"pipeline disagrees with table on {pairs}, n={nn}")

    spot_worst = _worst(spot_excess)
    passed = worst <= 1.0 + ASSERT_TOL and spot_worst <= ASSERT_TOL
    return {
        "config": {
            "resolution": resolution,
            "max_intervals": max_intervals,
            "seed": seed,
        },
        "families": families,
        "basis_functions": n,
        "max_ratio": worst,
        "spot_checks": len(sampled),
        "spot_worst_excess": spot_worst,
        "passed": passed,
    }


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------


def report_json_lines(report: RatioReport, timestamp: str | None = None) -> str:
    """One JSON line per trial followed by the summary object."""
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat()
    lines = [json.dumps(t) for t in report.trials]
    lines.append(
        json.dumps(
            {
                "summary": report.summary,
                "config": report.config,
                "passed": report.passed,
                "timestamp": timestamp,
            }
        )
    )
    return "\n".join(lines) + "\n"


def report_csv(report: RatioReport, timestamp: str | None = None) -> str:
    """Flat one-row summary, config columns first."""
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat()
    row: dict = {}
    for k, v in report.config.items():
        row[f"config.{k}"] = v
    for k, v in report.summary.items():
        if k == "asserted":
            continue
        row[f"summary.{k}"] = v
    row["passed"] = report.passed
    row["timestamp"] = timestamp
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(row)
    writer.writerow(str(v) for v in row.values())
    return out.getvalue()


def write_report(report: RatioReport, path: str, fmt: str = "json") -> None:
    if fmt == "json":
        text = report_json_lines(report)
    elif fmt == "csv":
        text = report_csv(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)


RUNNERS = {
    "scalar": run_scalar_lpr,
    "vector": run_vector_lpr,
    "pointwise": run_pointwise,
    "lemma": run_lemma_square,
    "weak11": run_weak11,
    "adjoint": run_adjointness,
}
