"""`scripts/bench_compare.py` on synthetic benchmark outputs."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"
spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)

METRICS = {
    "trials_per_s": ("1/s", "higher"),
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}


def _run_file(tmp_path, name, workload, seed, values, correct=True, revision="abc123"):
    """A saved perfbench/run.py output with the given metric values."""
    record = {
        "workload": workload, "seed": seed, "seconds": 28, "python": "3.11.7",
        "numpy": "2.4.6", "nproc": 2, "cpu_model": "test cpu", "caches": {"L2": "1 MiB"},
        "git_revision": revision,
    }
    metrics = {k: {"value": v, "unit": METRICS[k][0]} for k, v in values.items()}
    result = {
        "correct": correct, "attempted": 10, "failed": 0 if correct else 1, "metrics": metrics,
    }
    path = tmp_path / name
    path.write_text(
        "raw: wall 1 s\nrun record: " + json.dumps(record) + "\nwall_s = 1 s\n"
        + json.dumps(result) + "\n"
    )
    return path


def _sides(tmp_path, parent_rates, change_rates, workload="campaigns"):
    parents, changes = [], []
    for i, (p, c) in enumerate(zip(parent_rates, change_rates)):
        base = {"wall_s": 1.0, "setup_s": 0.2, "peak_rss_mib": 44.0}
        parents.append(
            _run_file(tmp_path, f"p{workload}{i}", workload, i, {**base, "trials_per_s": p})
        )
        changes.append(_run_file(
            tmp_path, f"c{workload}{i}", workload, i, {**base, "trials_per_s": c},
            revision="unavailable: not a git checkout",
        ))
    return parents, changes


def _row(rows, workload, metric):
    (row,) = [r for r in rows if r["workload"] == workload and r["metric"] == metric]
    return row


def test_pairs_won_median_shift_and_parent_spread(tmp_path):
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    change = [110.0, 111.0, 108.0, 112.0, 95.0, 109.0, 110.0, 111.0, 108.0, 109.0]
    parents, changes = _sides(tmp_path, parent, change)
    metrics = bench_compare.benchmark_metrics(bench_compare.ROOT / "BENCHMARK.json")
    assert set(metrics) == set(METRICS)
    rows = bench_compare.compare(
        [bench_compare.load_run(p) for p in parents],
        [bench_compare.load_run(p) for p in changes],
        metrics,
    )
    rate = _row(rows, "campaigns", "trials_per_s")
    assert (rate["pairs"], rate["won"], rate["lost"]) == (10, 9, 1)
    assert rate["parent"][1] == 100.0 and rate["change"][1] == 109.5
    assert rate["shift"] == 9.5
    q1, _, q3 = bench_compare.quartiles(parent)
    assert rate["parent_spread"] == q3 - q1 == 1.75
    assert rate["gain"] and rate["in_bound"]
    # equal values on both sides: no pair won or lost, no gain, in bound
    wall = _row(rows, "campaigns", "wall_s")
    assert (wall["won"], wall["lost"], wall["gain"], wall["in_bound"]) == (0, 0, False, True)


def test_eight_of_ten_pairs_is_no_gain_and_a_drop_past_the_bound_fails(tmp_path):
    parent = [100.0] * 10
    change = [120.0] * 8 + [90.0] * 2
    parents, changes = _sides(tmp_path, parent, change)
    metrics = {"trials_per_s": {"better": "higher", "bound": 0.25}}
    runs = [[bench_compare.load_run(p) for p in side] for side in (parents, changes)]
    (row,) = bench_compare.compare(*runs, metrics)
    assert row["won"] == 8 and not row["gain"]
    (row,) = bench_compare.compare(runs[1], runs[0], metrics)  # the change is the slower side
    assert row["won"] == 2 and row["in_bound"]
    slow = _sides(tmp_path, parent, [70.0] * 10, workload="sweep")
    runs = [[bench_compare.load_run(p) for p in side] for side in slow]
    (row,) = bench_compare.compare(*runs, metrics)
    assert not row["in_bound"]


def test_records_and_exit_codes(tmp_path, capsys):
    parents, changes = _sides(tmp_path, [100.0, 101.0, 99.0], [110.0, 111.0, 112.0])
    p_out, c_out = tmp_path / "BENCH_a.json", tmp_path / "BENCH_b.json"
    argv = ["--parent", *map(str, parents), "--change", *map(str, changes),
            "--protocol", "3 alternated pairs", "--change-revision", "deadbeef",
            "--record-parent", str(p_out), "--record-change", str(c_out)]
    assert bench_compare.main(argv) == 0
    assert "campaigns" in capsys.readouterr().out
    parent, change = json.loads(p_out.read_text()), json.loads(c_out.read_text())
    assert parent["git_revision"] == "abc123" and change["git_revision"] == "deadbeef"
    assert change["protocol"] == "3 alternated pairs"
    assert change["machine"]["cpu_model"] == "test cpu"
    entry = change["workloads"]["campaigns"]
    assert entry["runs"] == 3 and entry["seeds"] == [0, 1, 2] and all(entry["correct"])
    rate = entry["metrics"]["trials_per_s"]
    assert rate["values"] == [110.0, 111.0, 112.0]
    assert (rate["q1"], rate["median"], rate["q3"]) == (110.5, 111.0, 111.5)
    # a run that failed its checks fails the comparison
    bad = _run_file(tmp_path, "bad", "campaigns", 9, {
        "trials_per_s": 1.0, "wall_s": 1.0, "setup_s": 0.2, "peak_rss_mib": 44.0,
    }, correct=False)
    assert bench_compare.main(["--parent", str(parents[0]), "--change", str(bad)]) == 1
    # unusable input: unequal pair counts, different workloads, a non-run file
    assert bench_compare.main(["--parent", str(parents[0]), "--change", *map(str, changes)]) == 2
    other = _run_file(tmp_path, "other", "sweep", 0, {
        "trials_per_s": 1.0, "wall_s": 1.0, "setup_s": 0.2, "peak_rss_mib": 44.0,
    })
    assert bench_compare.main(["--parent", str(parents[0]), "--change", str(other)]) == 2
    junk = tmp_path / "junk"
    junk.write_text("not json\n")
    assert bench_compare.main(["--parent", str(junk), "--change", str(changes[0])]) == 2

