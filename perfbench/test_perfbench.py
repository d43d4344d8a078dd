"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from walshlab import experiments, intervals, walsh  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_entry_point(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [
            sys.executable, str(script),
            "--workload", workload, "--seed", "3", "--seconds", "0.3",
            "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _run_entry_point(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in expected:
        value = result["metrics"][m["name"]]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value)
        assert f"{m['name']} = " in proc.stdout
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)


def _one_pass(workload, table=None, seed=0, tracer=None):
    """One tiny pass, checked against `table` or else the committed digests."""
    steps, params = workloads.build(workload, seed, "tiny")
    if table is None:
        digests = workloads.Digests.load("tiny", workload, params, seed)
    else:
        digests = workloads.Digests(table, "tiny", workload, params, seed)
    tally = run.Tally()
    run.run_pass(steps, digests, tally, tracer)
    return tally


def _unrecorded(workload):
    """Digests with no reference, for passes whose digests do not matter."""
    return workloads.Digests({}, "tiny", workload, {}, 0)


def _record(workload, seed=0):
    """A digest table for the tiny workload, taken from an unaltered pass."""
    steps, params = workloads.build(workload, seed, "tiny")
    seeds = {str(seed): {s.name: s.check(s.run()).digest for s in steps}}
    return {"tiny": {workload: {"params": workloads.params_key(workload, params), "seeds": seeds}}}


def test_recorded_digests_pass_and_other_seeds_stay_unchecked():
    table = _record("campaigns")
    tally = _one_pass("campaigns", table)
    assert tally.failed == 0 and tally.unchecked == 0
    other = _one_pass("campaigns", table, seed=1)
    assert other.failed == 0 and other.unchecked == len(workloads.CAMPAIGNS)
    assert other.attempted < tally.attempted


def test_committed_digests_pass_at_recorded_seeds_only():
    tally = _one_pass("sweep")
    assert tally.failed == 0 and tally.unchecked == 0
    other = _one_pass("sweep", seed=1000)
    assert other.failed == 0 and other.unchecked == 2


def test_changed_params_fail_the_digest_check(monkeypatch):
    monkeypatch.setitem(workloads.PARAMS["tiny"]["sweep"], "decompose_bits", 3)
    tally = _one_pass("sweep")
    assert tally.failed > 0 and tally.unchecked == 0
    assert tally.failures == ["decompose: digest_reference", "basis: digest_reference"]


def test_missing_digest_table_fails_the_digest_check(tmp_path):
    steps, params = workloads.build("sweep", 0, "tiny")
    digests = workloads.Digests.load("tiny", "sweep", params, 0, path=tmp_path / "none.json")
    tally = run.Tally()
    run.run_pass(steps, digests, tally)
    assert tally.failed == 2 and tally.unchecked == 0


def test_injected_nan_trial_is_a_failure(monkeypatch):
    original = experiments.RUNNERS["scalar"]

    def with_nan(cfg):
        report = original(cfg)
        report.trials[-1]["rhs"] = float("nan")  # report.passed is left as is
        return report

    monkeypatch.setitem(experiments.RUNNERS, "scalar", with_nan)
    tally = _one_pass("campaigns")
    assert {f.rsplit(": ", 1)[1] for f in tally.failures} == {"finite", "digest"}
    assert all(f.startswith("scalar_") for f in tally.failures)


def test_altered_report_is_a_failure(monkeypatch):
    table = _record("campaigns")
    original = experiments.RUNNERS["pointwise"]

    def altered(cfg):
        report = original(cfg)
        report.trials[0]["ratio"] = math.nextafter(report.trials[0]["ratio"], 0.0)
        return report

    monkeypatch.setitem(experiments.RUNNERS, "pointwise", altered)
    tally = _one_pass("campaigns", table)
    assert tally.failures == ["pointwise_p2_q2_d1: digest"]


def test_raised_exception_is_a_failure(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(experiments, "exhaustive_pointwise_basis_check", broken)
    tally = _one_pass("sweep")
    assert tally.failures == ["basis: ran", "basis: digest"]


def test_family_count_matches_enumeration():
    for resolution, max_intervals in ((2, 2), (3, 2), (3, 3)):
        out = experiments.exhaustive_pointwise_basis_check(resolution, max_intervals)
        assert out["families"] == workloads.family_count(resolution, max_intervals)


def test_traced_pass_accounts_for_its_wall_time_and_restores_the_modules():
    fwht, runner = walsh.fwht, experiments.RUNNERS["pointwise"]
    tracer = tracing.Tracer()
    for workload in ("sweep", "campaigns"):
        tracer.reset()
        steps, _ = workloads.build(workload, 0, "tiny")
        times = run.run_pass(steps, _unrecorded(workload), run.Tally(), tracer)
        checks = tracer.accounting_checks(sum(times))
        assert all(checks.values()), checks
        layer_self = tracer.layer_self_ns()
        idle = {"lattice"} if workload == "sweep" else set()
        assert all(ns > 0 for layer, ns in layer_self.items() if layer not in idle)
        assert len(tracer.spans) > 0
    assert walsh.fwht is fwht and experiments.RUNNERS["pointwise"] is runner


def test_accounting_checks_can_fail():
    tracer = tracing.Tracer()
    steps, _ = workloads.build("sweep", 0, "tiny")
    decompose, verify = intervals.decompose, intervals.verify_decomposition

    def around_the_wrappers():  # the originals, bound before install
        decs = [(decompose(a, b), a, b) for b in range(1, 17) for a in range(b)]
        return [(dec, verify(dec, a, b)) for dec, a, b in decs]

    tracer.reset()
    times = run.run_pass(steps[:1], _unrecorded("sweep"), run.Tally(), tracer)
    assert all(tracer.accounting_checks(sum(times)).values())
    tracer.stats["walsh.fwht"][tracing.SELF_NS] = -1
    tracer.spans.end[0] += 1
    checks = tracer.accounting_checks(sum(times))
    assert not checks["self_nonnegative"] and not checks["spans_match_counters"]
    assert checks["top_within_wall"] and checks["unattributed_share"]
    assert not tracer.accounting_checks(tracer.top_ns - 1)["top_within_wall"]

    tracer.reset()
    steps[0].run = around_the_wrappers
    times = run.run_pass(steps[:1], _unrecorded("sweep"), run.Tally(), tracer)
    assert not tracer.accounting_checks(sum(times))["unattributed_share"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_entry_point("campaigns", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
