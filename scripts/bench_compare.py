#!/usr/bin/env python3
"""Compare saved benchmark runs of a parent and a change, pair by pair.

    python3 scripts/bench_compare.py --parent P1 P2 ... --change C1 C2 ...
        [--protocol TEXT] [--parent-revision REV] [--change-revision REV]
        [--record-parent BENCH_0.json] [--record-change BENCH_1.json]

Each file is the saved standard output of one `perfbench/run.py` run: its
last line is the JSON result, and its `run record:` line names the
workload, the seed and the machine.  The i-th parent file and the i-th
change file form pair i, and both must be runs of one workload.  For every
workload and every end-to-end metric of BENCHMARK.json, the script prints
each side's median and quartiles, the pairs the change won (ties count for neither side), the shift of the
median, the parent's quartile spread (q3 - q1) and two verdicts:

* `gain`: the change won at least nine tenths of the pairs, and its median
  is better than the parent's by more than the parent's quartile spread;
* `in bound`: the change's median is worse than the parent's by no more
  than the metric's bound, a share of the parent's median (BENCHMARK.json).

With --record-parent / --record-change it writes one JSON record per side:
per workload, the runs' seeds and the median, quartiles and values of each
metric, plus the machine, the revision and the protocol text.  A run whose
record names no git revision (a `git archive` copy) takes the one given
with --parent-revision / --change-revision.

Exit code 0 when every run passed its checks and every metric is within
its bound, 1 otherwise, 2 on unusable input.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAIN_SHARE = 0.9  # share of the pairs a claimed gain must win
MACHINE_KEYS = ("python", "numpy", "nproc", "cpu_model", "caches")
RECORD_PREFIX = "run record: "


class UsageError(Exception):
    """Input the comparison cannot use."""


def load_run(path: Path) -> dict:
    """The result JSON (last line) and the run record of one saved run."""
    lines = [line for line in Path(path).read_text().splitlines() if line.strip()]
    if not lines:
        raise UsageError(f"{path}: empty")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: last line is not JSON ({exc})") from None
    records = [line[len(RECORD_PREFIX):] for line in lines if line.startswith(RECORD_PREFIX)]
    if not records or "metrics" not in result:
        raise UsageError(f"{path}: not a perfbench/run.py output")
    return {"path": str(path), "result": result, "record": json.loads(records[-1])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3), inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def compare(parents: list[dict], changes: list[dict], metrics: dict) -> list[dict]:
    """One row per (workload, metric): both sides' quartiles, pairs won,
    the median shift, the parent's spread and the two verdicts.

    `metrics` maps a metric name to its {"better": "lower"|"higher",
    "bound": share or None}.
    """
    if len(parents) != len(changes):
        raise UsageError(f"{len(parents)} parent runs against {len(changes)} change runs")
    pairs: dict[str, list[tuple[dict, dict]]] = {}
    for parent, change in zip(parents, changes):
        workload = parent["record"]["workload"]
        if change["record"]["workload"] != workload:
            raise UsageError(f"{parent['path']} and {change['path']} run different workloads")
        pairs.setdefault(workload, []).append((parent, change))
    rows = []
    for workload, runs in pairs.items():
        for name, spec in metrics.items():
            values = [
                [run["result"]["metrics"][name]["value"] for run in side]
                for side in zip(*runs)
            ]
            sign = 1.0 if spec["better"] == "higher" else -1.0
            won = sum(sign * (c - p) > 0 for p, c in zip(*values))
            lost = sum(sign * (c - p) < 0 for p, c in zip(*values))
            (p1, pm, p3), (c1, cm, c3) = map(quartiles, values)
            spread = p3 - p1
            bound = spec.get("bound")
            rows.append({
                "workload": workload,
                "metric": name,
                "pairs": len(runs),
                "won": won,
                "lost": lost,
                "parent": (p1, pm, p3),
                "change": (c1, cm, c3),
                "shift": cm - pm,
                "rel_shift": (cm - pm) / pm if pm else float("nan"),
                "parent_spread": spread,
                "gain": won >= GAIN_SHARE * len(runs) and sign * (cm - pm) > spread,
                "in_bound": bound is None or -sign * (cm - pm) <= bound * abs(pm),
            })
    return rows


def side_record(runs: list[dict], label: str, revision: str | None, protocol: str, metrics) -> dict:
    """The BENCH_*.json record of one side's runs."""
    workloads: dict[str, dict] = {}
    for run in runs:
        entry = workloads.setdefault(
            run["record"]["workload"], {"runs": 0, "seeds": [], "correct": [], "metrics": {}}
        )
        entry["runs"] += 1
        entry["seeds"].append(run["record"]["seed"])
        entry["correct"].append(bool(run["result"]["correct"]))
        for name in metrics:
            m = run["result"]["metrics"][name]
            slot = entry["metrics"].setdefault(name, {"unit": m["unit"], "values": []})
            slot["values"].append(m["value"])
    for entry in workloads.values():
        for slot in entry["metrics"].values():
            slot["q1"], slot["median"], slot["q3"] = quartiles(slot["values"])
    first = runs[0]["record"]
    revisions = sorted({run["record"].get("git_revision", "") for run in runs})
    if revision and all(r.startswith("unavailable") or not r for r in revisions):
        revisions = [revision]
    return {
        "label": label,
        "git_revision": revisions[0] if len(revisions) == 1 else revisions,
        "machine": {key: first.get(key) for key in MACHINE_KEYS},
        "run_seconds": first.get("seconds"),
        "protocol": protocol,
        "workloads": workloads,
    }


def format_rows(rows: list[dict]) -> str:
    head = (
        f"{'workload':10s} {'metric':14s} {'parent median [q1-q3]':>32s} "
        f"{'change median':>13s} {'shift':>8s} {'won':>6s} {'spread':>10s}  verdict"
    )
    out = [head]
    for r in rows:
        p1, pm, p3 = r["parent"]
        verdict = ("gain" if r["gain"] else "no gain") + ("" if r["in_bound"] else ", OUT OF BOUND")
        out.append(
            f"{r['workload']:10s} {r['metric']:14s} {pm:12.6g} [{p1:.6g}-{p3:.6g}]".ljust(58)
            + f" {r['change'][1]:13.6g} {r['rel_shift']:+8.2%} "
            f"{r['won']:>2d}/{r['pairs']:<3d} {r['parent_spread']:10.4g}  {verdict}"
        )
    return "\n".join(out)


def benchmark_metrics(path: Path) -> dict:
    """The direction and bound of each end-to-end metric of BENCHMARK.json."""
    spec = json.loads(path.read_text())
    return {
        m["name"]: {"better": m["better"], "bound": m.get("bound")}
        for m in spec["end_to_end"]
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    parser.add_argument("--protocol", default="", help="how the runs were made, for the records")
    parser.add_argument("--parent-revision")
    parser.add_argument("--change-revision")
    parser.add_argument("--record-parent", type=Path)
    parser.add_argument("--record-change", type=Path)
    args = parser.parse_args(argv)
    try:
        metrics = benchmark_metrics(args.benchmark)
        parents = [load_run(p) for p in args.parent]
        changes = [load_run(p) for p in args.change]
        rows = compare(parents, changes, metrics)
    except (UsageError, OSError, KeyError) as exc:
        sys.stderr.write(f"bench_compare: {exc}\n")
        return 2
    print(format_rows(rows))
    failed = [run["path"] for run in parents + changes if not run["result"]["correct"]]
    for path in failed:
        print(f"FAILED CHECKS: {path}")
    for path, runs, label, revision in (
        (args.record_parent, parents, "parent", args.parent_revision),
        (args.record_change, changes, "change", args.change_revision),
    ):
        if path is not None:
            record = side_record(runs, label, revision, args.protocol, metrics)
            path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 1 if failed or not all(r["in_bound"] for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
