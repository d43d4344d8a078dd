#!/usr/bin/env python3
"""walshlab benchmark: one workload, one fresh process, closed loop.

    python3 perfbench/run.py --workload campaigns --seed 0 --seconds 28 --trace 0

Run from the root of a source checkout; walshlab is imported from `src/`.
The workload repeats passes of fixed work (see workloads.py) with the same
seed until `--seconds` is used up, checks every pass, and prints one JSON
object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`attempted` and `failed` count checks (fail_ratio = failed / attempted).

With `--trace 0` the metrics are the end-to-end ones.  The host's speed
drifts by tens of percent over minutes, so every pass step's time is
divided by the geometric mean of the times of a fixed calibration kernel
run just before and just after it, and scaled by CALIB_REF_S.  `wall_s` is
the sum over the pass's steps of each step's median across passes.
`setup_s` is the median over several fresh processes of the time from
process start to the point where the first timed call would be made, each
divided the same way by the start-up time of an interpreter that imports
numpy and scaled by NUMPY_REF_S.  The raw times are printed too.

With `--trace 1` untraced and traced passes alternate, and the metrics are
per layer, taken from the traced pass of median wall time: self time, call
counts and computed operation counts per walshlab module, the tracing
overhead, and the traced time no layer owns.  The spans of that pass are
written to `.perfbench/` under the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_PROBES = 9
# Time of the calibration kernel on the reference host, a lightly loaded
# 2-core Intel Xeon VM with Python 3.11.  Reported times are scaled to it.
CALIB_REF_S = 0.030
# Nominal time for an interpreter to start, import numpy and print a line
# on the reference host.  Set-up times are scaled by it: on a shared host,
# process start-up drifted by over 20% between sets of runs, which neither
# the calibration kernel nor a bare interpreter's start-up followed.
NUMPY_REF_S = 0.120
EXIT_USAGE = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Host-speed calibration
# ---------------------------------------------------------------------------


def calibration_kernel() -> None:
    """Fixed interpreter and numpy work that touches no walshlab code."""
    import numpy as np

    a = np.arange(256, dtype=float)
    for _ in range(1500):
        b = a.reshape(16, 2, 8).copy()
        b[:, 0] += b[:, 1]
        float(b.sum())
    x = np.random.default_rng(0).standard_normal(1 << 16)
    for _ in range(20):
        x = np.abs(x) ** 1.5
        x /= x.mean()


def calibrate_ns() -> int:
    t0 = time.perf_counter_ns()
    calibration_kernel()
    return time.perf_counter_ns() - t0


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def setup_probe(args) -> int:
    """Child side: import, build the inputs, say so, exit."""
    import workloads

    workloads.build(args.workload, args.seed, args.scale)
    print("ready", flush=True)
    return 0


def time_until_ready(cmd) -> float:
    """Seconds from spawning `cmd` until it prints "ready"; waits for it to exit."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe {cmd[1:3]} failed with exit code {code}")
    return t1 - t0


def measure_setup(args) -> tuple[float, float]:
    """Seconds from spawning a fresh interpreter to its inputs being built.

    Returns the median host-normalized time (each probe divided by the
    geometric mean of the start-up times of numpy-importing interpreters
    spawned just before and just after it, times NUMPY_REF_S) and the median
    raw time.
    """
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--setup-probe",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", "0",
        "--scale", args.scale,
    ]
    reference = [sys.executable, "-c", "import numpy; print('ready')"]
    times, ratios = [], []
    ref_before = time_until_ready(reference)
    for _ in range(SETUP_PROBES):
        probe = time_until_ready(cmd)
        ref_after = time_until_ready(reference)
        times.append(probe)
        ratios.append(probe / math.sqrt(ref_before * ref_after))
        ref_before = ref_after
    return statistics.median(ratios) * NUMPY_REF_S, statistics.median(times)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Tally:
    """Checks attempted and failed, plus digests that had no reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unchecked = 0
        self.failures: list[str] = []

    def add(self, label: str, checks: dict[str, bool]) -> None:
        for name, ok in checks.items():
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(f"{label}: {name}")


def run_pass(steps, digests, tally, tracer=None, calib=None) -> list[int]:
    """One pass over the steps; returns each step's timed nanoseconds.

    With a `calib` list, the calibration kernel runs right before each step
    and once after the last, and its nanoseconds are appended to `calib`:
    step i lies between calib[i] and calib[i + 1].
    """
    import workloads

    gc.collect()
    times = []
    for step in steps:
        if calib is not None:
            calib.append(calibrate_ns())
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter_ns()
        try:
            out = step.run()
            error = None
        except Exception:  # a failing step is a failed check, not a crash
            out, error = None, traceback.format_exc()
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.uninstall()
        times.append(t1 - t0)
        if error is not None:
            sys.stderr.write(f"step {step.name} raised:\n{error}")
            outcome = workloads.Outcome({"ran": False})
        else:
            outcome = step.check(out)
            outcome.checks["ran"] = True
        if not digests.compare(step.name, outcome):
            tally.unchecked += 1
        tally.add(step.name, outcome.checks)
    if calib is not None:
        calib.append(calibrate_ns())
    return times


def sum_of_medians(step_times: list[list[int]]) -> int:
    """Sum over steps of the step's median time across passes (ns)."""
    return sum(statistics.median(col) for col in zip(*step_times))


def run_untraced(args, steps, digests, tally):
    """Calibrated passes until the time is up: (step times, calibration times)."""
    deadline = time.perf_counter() + args.seconds
    passes, calibs = [], []
    while True:
        calib = []
        passes.append(run_pass(steps, digests, tally, calib=calib))
        calibs.append(calib)
        typical = statistics.median(map(sum, passes)) + statistics.median(map(sum, calibs))
        if time.perf_counter() + typical / 1e9 > deadline:
            return passes, calibs


def run_traced(args, steps, digests, tally):
    """Alternate untraced and traced passes; keep each traced pass's stats
    and check how it accounts for its time."""
    import tracing

    tracer = tracing.Tracer()
    deadline = time.perf_counter() + args.seconds
    plain, traced = [], []
    while True:
        plain.append(run_pass(steps, digests, tally))
        tracer.reset()
        times = run_pass(steps, digests, tally, tracer)
        tally.add("trace", tracer.accounting_checks(sum(times)))
        traced.append(
            {
                "times": times,
                "wall_ns": sum(times),
                "stats": {q: list(s) for q, s in tracer.stats.items()},
                "layer_self_ns": tracer.layer_self_ns(),
                "unattributed_ns": tracer.unattributed_ns(sum(times)),
                "spans": tracer.spans,
            }
        )
        typical = (
            statistics.median(sum(p) for p in plain)
            + statistics.median(t["wall_ns"] for t in traced)
        ) / 1e9
        if time.perf_counter() + typical > deadline:
            return tracer, plain, traced


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(steps, passes, calibs, setup_s):
    normalized = [
        [t / math.sqrt(c0 * c1) for t, c0, c1 in zip(p, cs, cs[1:])]
        for p, cs in zip(passes, calibs)
    ]
    wall_s = sum_of_medians(normalized) * CALIB_REF_S
    units = sum(step.units for step in steps)
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall_s, "s"),
        "trials_per_s": metric(units / wall_s, "1/s"),
        "peak_rss_mib": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"
        ),
    }


def per_layer_metrics(steps, plain, traced):
    import tracing

    chosen = sorted(traced, key=lambda t: t["wall_ns"])[(len(traced) - 1) // 2]
    stats = chosen["stats"]
    wall_ns = chosen["wall_ns"]
    layer_self = chosen["layer_self_ns"]
    unattributed = chosen["unattributed_ns"]

    def self_s(*names):
        return sum(stats[n][tracing.SELF_NS] for n in names) / 1e9

    def calls(name):
        return stats[name][tracing.CALLS]

    def ns_per_op(name):
        ops = stats[name][tracing.OPS]
        return stats[name][tracing.SELF_NS] / ops if ops else 0.0

    out = {f"{layer}.self_s": metric(ns / 1e9, "s") for layer, ns in layer_self.items()}

    for name in ("fwht", "analyze_values", "synthesize_values", "walsh_eval"):
        out[f"walsh.{name}.calls"] = metric(calls(f"walsh.{name}"), "count")
    fwht = stats["walsh.fwht"]
    out["walsh.fwht.self_s"] = metric(self_s("walsh.fwht"), "s")
    out["walsh.fwht.ops"] = metric(fwht[tracing.OPS], "computed_ops")
    out["walsh.fwht.ns_per_op"] = metric(ns_per_op("walsh.fwht"), "ns/computed_op")
    synth = stats["walsh.synthesize_values"]
    out["walsh.synthesize_values.live_coeff_frac"] = metric(
        synth[tracing.LIVE] / synth[tracing.TOTAL] if synth[tracing.TOTAL] else 0.0,
        "ratio",
    )

    for name in ("block_sum", "sharp_maximal", "rms_maximal", "square_function"):
        out[f"operators.{name}.calls"] = metric(calls(f"operators.{name}"), "count")
        out[f"operators.{name}.self_s"] = metric(self_s(f"operators.{name}"), "s")

    rad = stats["lattice.rad_norm_values"]
    out["lattice.rad_norm_values.calls"] = metric(rad[tracing.CALLS], "count")
    out["lattice.rad_norm_values.self_s"] = metric(self_s("lattice.rad_norm_values"), "s")
    out["lattice.rad_norm_values.ops"] = metric(rad[tracing.OPS], "computed_ops")
    out["lattice.rad_norm_values.ns_per_op"] = metric(
        ns_per_op("lattice.rad_norm_values"), "ns/computed_op"
    )
    # lattice_norm holds the norm half of rad_norm_values' work.
    out["lattice.lattice_norm.calls"] = metric(calls("lattice.lattice_norm"), "count")
    for name in (
        "lattice_norm", "segment_transform_adjoint", "stopping_cells", "split_at_cells"
    ):
        out[f"lattice.{name}.self_s"] = metric(self_s(f"lattice.{name}"), "s")

    for name in ("decompose", "verify_decomposition"):
        out[f"intervals.{name}.calls"] = metric(calls(f"intervals.{name}"), "count")
        out[f"intervals.{name}.self_s"] = metric(self_s(f"intervals.{name}"), "s")
    out["intervals.verify_decomposition.elements"] = metric(
        stats["intervals.verify_decomposition"][tracing.OPS], "computed_elems"
    )
    out["intervals.family_decompose.calls"] = metric(
        calls("intervals.family_decompose"), "count"
    )

    for name in ("delta_block", "translate_block", "check_index"):
        out[f"dyadic.{name}.calls"] = metric(calls(f"dyadic.{name}"), "count")

    groups = tracing.EXPERIMENT_GROUPS
    for group in ("generate", "driver", "basis_check", "report"):
        out[f"experiments.{group}.self_s"] = metric(
            self_s(*(f"experiments.{n}" for n in groups[group])), "s"
        )
    out["experiments.rng_for.calls"] = metric(calls("experiments.rng_for"), "count")
    out["experiments.basis_check.families"] = metric(
        stats["experiments.exhaustive_pointwise_basis_check"][tracing.OPS], "count"
    )

    # Untraced rates of the two sweep halves (zero on the other workloads).
    medians = {
        step.name: statistics.median(col) / 1e9 for step, col in zip(steps, zip(*plain))
    }
    for metric_name, step_name in (
        ("intervals_per_s", "decompose"),
        ("families_per_s", "basis"),
    ):
        units = next((s.units for s in steps if s.name == step_name), 0)
        out[metric_name] = metric(units / medians[step_name] if units else 0.0, "1/s")

    out["trace.overhead_frac"] = metric(
        sum_of_medians([t["times"] for t in traced]) / sum_of_medians(plain) - 1.0,
        "ratio",
    )
    out["trace.unattributed_s"] = metric(unattributed / 1e9, "s")
    out["trace.wall_s"] = metric(wall_ns / 1e9, "s")
    return out, chosen


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unavailable"


def run_record(args, params, passes):
    import numpy

    cpu_model = "unavailable"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(f"{index}/level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{index}/size")
    revision = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if proc.returncode == 0:
            revision = proc.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "params": params,
        "passes": passes,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "git_revision": revision,
        "note": (
            "op, element and byte counts are computed from argument shapes, "
            "not measured; a 2**18-cell float64 array is 2 MiB, which fits in "
            "L3 here, so wide-n18 makes no memory-bandwidth claim"
        ),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "walshlab" / "__init__.py").is_file():
        sys.stderr.write(f"no walshlab sources under {SRC}; run from a source checkout\n")
        return EXIT_USAGE
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(
            f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}\n"
        )
        return EXIT_USAGE
    setup_s, setup_raw_s = measure_setup(args) if args.trace == 0 else (None, None)
    steps, params = workloads.build(args.workload, args.seed, args.scale)
    digests = workloads.Digests.load(args.scale, args.workload, params, args.seed)
    if not digests.reference:
        sys.stderr.write(
            f"no reference digests for {args.scale} {args.workload} with these "
            "parameters: every digest check fails\n"
        )
    tally = Tally()

    if args.trace == 0:
        passes, calibs = run_untraced(args, steps, digests, tally)
        metrics = end_to_end_metrics(steps, passes, calibs, setup_s)
        n_passes = len(passes)
        print(
            f"raw: wall {sum_of_medians(passes) / 1e9:.6g} s, set-up {setup_raw_s:.6g} s, "
            f"calibration kernel median {statistics.median(sum(calibs, [])) / 1e6:.3f} ms "
            f"(reference {CALIB_REF_S * 1e3:g} ms)"
        )
    else:
        tracer, plain, traced = run_traced(args, steps, digests, tally)
        passes = plain
        metrics, chosen = per_layer_metrics(steps, plain, traced)
        n_passes = {"untraced": len(plain), "traced": len(traced)}
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        chosen["spans"].write(spans_path, tracer.names, min(chosen["spans"].start, default=0))
        print(f"spans: {len(chosen['spans'])} written to {spans_path.relative_to(ROOT)}")

    print("run record: " + json.dumps(run_record(args, params, n_passes), sort_keys=True))
    for step, col in zip(steps, zip(*passes)):
        print(
            f"step {step.name}: {step.units} units, untraced median "
            f"{statistics.median(col) / 1e6:.3f} ms over {len(col)} passes "
            f"(min {min(col) / 1e6:.3f}, max {max(col) / 1e6:.3f})"
        )
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(
        f"fail_ratio = {ratio:.6g} ({tally.failed} failed / {tally.attempted} attempted "
        f"checks); digests unchecked (seed not recorded): {tally.unchecked}"
    )
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0 and tally.attempted > 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
