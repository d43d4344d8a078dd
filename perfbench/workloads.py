"""The benchmark's workloads: the fixed work of one pass and its checks.

A pass is a list of steps.  Each step makes one timed call chain into the
public walshlab API and returns its output; the checks run afterwards,
untimed.  Library functions are looked up through their module when a step
starts, so a tracer installed on the modules sees every call.

Checks do not trust a report's own `passed` flag alone: a step also fails
on a raised exception, on any non-finite trial field, and on a sha256
digest that differs from the one recorded at the commit that defined the
benchmark (`digests.json`).  A missing digest table, a workload without an
entry, or an entry recorded for other parameters fails the digest check
too.  Only a seed outside the recorded set leaves the digest unchecked,
which is reported, never counted as passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from walshlab import experiments, intervals
from walshlab.experiments import ExperimentConfig

DIGESTS_PATH = Path(__file__).with_name("digests.json")
TOL = 1e-10
TRIAL_FIELDS = ("lhs", "rhs", "ratio", "excess", "residual")

# The ten campaigns of scripts/run_all_campaigns.py as they stood when this
# benchmark was defined, kept here so that editing the script does not move
# the workload.  8,500 trials per pass.
CAMPAIGNS = (
    dict(kind="scalar", resolution=8, trials=2000, p=2, count=5),
    dict(kind="scalar", resolution=8, trials=2000, p=4, count=5),
    dict(kind="scalar", resolution=8, trials=2000, p=8, count=5),
    dict(kind="pointwise", resolution=8, trials=500, count=4),
    dict(kind="vector", resolution=6, trials=300, p=2, q=2, dim=2, count=4),
    dict(kind="vector", resolution=6, trials=300, p=4, q=3, dim=8, count=4),
    dict(kind="lemma", resolution=6, trials=500, p=2, q=2, dim=1),
    dict(kind="lemma", resolution=6, trials=500, p=4, q=4, dim=4),
    dict(kind="weak11", resolution=6, trials=100, dim=2, count=3),
    dict(kind="adjoint", resolution=6, trials=300, dim=2, count=4),
)

# Per-workload sizes.  "tiny" exists for the benchmark's own tests.
PARAMS = {
    "full": {
        "campaigns": {"configs": CAMPAIGNS},
        "wide-n18": {
            "configs": (
                dict(kind="scalar", resolution=18, trials=10, p=4, count=5),
                dict(kind="pointwise", resolution=18, trials=5, count=4),
            )
        },
        "rad-exact": {
            "configs": (
                dict(
                    kind="vector", resolution=6, trials=60, p=4, q=3, dim=4,
                    count=12, rad="exact",
                ),
            )
        },
        "sweep": {"decompose_bits": 7, "basis_resolution": 5, "basis_intervals": 2},
    },
    "tiny": {
        "campaigns": {
            "configs": tuple(
                {**c, "trials": max(c["trials"] // 100, 8)} for c in CAMPAIGNS
            )
        },
        "wide-n18": {
            "configs": (
                dict(kind="scalar", resolution=10, trials=8, p=4, count=5),
                dict(kind="pointwise", resolution=10, trials=2, count=4),
            )
        },
        "rad-exact": {
            "configs": (
                dict(
                    kind="vector", resolution=4, trials=3, p=4, q=3, dim=4,
                    count=6, rad="exact",
                ),
            )
        },
        "sweep": {"decompose_bits": 4, "basis_resolution": 3, "basis_intervals": 2},
    },
}
WORKLOADS = tuple(PARAMS["full"])


@dataclass
class Outcome:
    """Checks of one step (name -> passed) and the digest of its output."""

    checks: dict[str, bool] = field(default_factory=dict)
    digest: str = ""


@dataclass
class Step:
    name: str
    units: int  # trials, intervals or families handled by one call
    run: Callable[[], object]  # the timed call chain
    check: Callable[[object], Outcome]  # untimed


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def params_key(workload: str, params: dict) -> str:
    return json.dumps({"workload": workload, **params}, sort_keys=True)


class Digests:
    """Reference digests of one (scale, workload, params, seed).

    The reference is missing when the table, the workload's entry or the
    entry for these exact parameters is; every digest check then fails.  A
    seed outside the recorded set leaves the digests unchecked.
    """

    def __init__(self, table: dict, scale: str, workload: str, params: dict, seed: int):
        entry = table.get(scale, {}).get(workload)
        self.reference = (
            entry is not None and entry.get("params") == params_key(workload, params)
        )
        self.known = entry["seeds"].get(str(seed)) if self.reference else None

    @classmethod
    def load(cls, scale, workload, params, seed, path=DIGESTS_PATH):
        table = json.loads(path.read_text()) if path.exists() else {}
        return cls(table, scale, workload, params, seed)

    def compare(self, step: str, outcome: Outcome) -> bool:
        """Add a digest check to `outcome`; False when the seed is unrecorded."""
        if not self.reference:
            outcome.checks["digest_reference"] = False
            return True
        if self.known is None:
            return False
        outcome.checks["digest"] = outcome.digest == self.known.get(step)
        return True


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _report_step(name: str, config: dict, seed: int) -> Step:
    cfg = ExperimentConfig(**{**config, "seed": seed})

    def run():
        report = experiments.RUNNERS[cfg.kind](cfg)
        return report, experiments.report_json_lines(report, timestamp="")

    def check(out) -> Outcome:
        report, text = out
        outcome = Outcome()
        outcome.checks["asserted"] = bool(report.passed) and all(
            a["passed"] and _finite(a["worst"]) for a in report.summary["asserted"]
        )
        outcome.checks["count"] = len(report.trials) == cfg.trials
        outcome.checks["finite"] = all(
            _finite(t[k]) for t in report.trials for k in TRIAL_FIELDS if k in t
        )
        outcome.digest = sha256(text)
        return outcome

    return Step(name, cfg.trials, run, check)


def campaign_name(config: dict) -> str:
    """Report name as scripts/run_all_campaigns.py builds it."""
    cfg = ExperimentConfig(**config)
    return f"{cfg.kind}_p{cfg.p:g}_q{cfg.q:g}_d{cfg.dim}"


def _decompose_step(bits: int) -> Step:
    size = 1 << bits
    count = size * (size + 1) // 2

    def run():
        decompose = intervals.decompose
        verify = intervals.verify_decomposition
        out = []
        for b in range(1, size + 1):
            for a in range(b):
                dec = decompose(a, b)
                out.append((dec, verify(dec, a, b)))
        return out

    def check(out) -> Outcome:
        outcome = Outcome()
        outcome.checks["count"] = len(out) == count
        outcome.checks["asserted"] = all(chk.passed for _, chk in out)
        pieces = sha256(
            "\n".join(
                f"{dec.interval.lo},{dec.interval.hi}:{dec.anchor}"
                f"|{[(j, p.lo, p.hi) for j, p in dec.left]}"
                f"|{[(i, p.lo, p.hi) for i, p in dec.right]}|{chk.passed}"
                for dec, chk in out
            )
        )
        result = {
            "bits": bits,
            "intervals": len(out),
            "elements": sum(dec.interval.size for dec, _ in out),
            "failed": sum(not chk.passed for _, chk in out),
            "pieces_sha256": pieces,
        }
        outcome.digest = sha256(json.dumps(result, sort_keys=True))
        return outcome

    return Step("decompose", count, run, check)


def family_count(resolution: int, max_intervals: int) -> int:
    """Families of 1..max_intervals disjoint intervals in [0, 2**resolution).

    Endpoints a1 < b1 <= a2 < b2 <= ... <= bk <= n shift to 2k strictly
    increasing values in [0, n + k - 1], hence C(n + k, 2k) families of size k.
    """
    n = 1 << resolution
    return sum(math.comb(n + k, 2 * k) for k in range(1, max_intervals + 1))


def _basis_step(resolution: int, max_intervals: int, seed: int) -> Step:
    families = family_count(resolution, max_intervals)

    def run():
        return experiments.exhaustive_pointwise_basis_check(
            resolution, max_intervals, spot_checks=200, seed=seed
        )

    def check(out) -> Outcome:
        outcome = Outcome()
        outcome.checks["count"] = out["families"] == families
        outcome.checks["asserted"] = (
            bool(out["passed"])
            and _finite(out["max_ratio"])
            and out["max_ratio"] <= 1.0 + TOL
            and _finite(out["spot_worst_excess"])
            and out["spot_worst_excess"] <= TOL
        )
        outcome.digest = sha256(json.dumps(out, sort_keys=True))
        return outcome

    return Step("basis", families, run, check)


def build(workload: str, seed: int, scale: str = "full") -> tuple[list[Step], dict]:
    """Steps of one pass of `workload` and the parameters that define it."""
    params = PARAMS[scale][workload]
    if workload == "sweep":
        steps = [
            _decompose_step(params["decompose_bits"]),
            _basis_step(params["basis_resolution"], params["basis_intervals"], seed),
        ]
    else:
        steps = [
            _report_step(campaign_name(c), c, seed) for c in params["configs"]
        ]
    return steps, params
