"""The walshlab names that the benchmark's per-layer metrics read still exist.

`perfbench/run.py::per_layer_metrics` reads the traced stats of walshlab
functions by qualified name (`walsh.fwht`, `lattice.rad_norm_values`, ...),
so a pruned name would make every `--trace 1` run raise KeyError.  The
metrics are computed here from one synthetic traced pass whose stats come
from a fresh `tracing.Tracer()`, which holds a slot for every public
function of the layer modules.  `perfbench/` is imported, never changed.
"""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_per_layer_metrics_find_every_name_they_read(monkeypatch):
    tracing = _load("tracing", PERFBENCH / "tracing.py")
    monkeypatch.setitem(sys.modules, "tracing", tracing)  # run.py imports it by name
    run = _load("perfbench_run", PERFBENCH / "run.py")
    tracer = tracing.Tracer()
    traced = {
        "times": [1],
        "wall_ns": 1,
        "stats": {name: list(stat) for name, stat in tracer.stats.items()},
        "layer_self_ns": tracer.layer_self_ns(),
        "unattributed_ns": 0,
    }
    metrics, chosen = run.per_layer_metrics([], [[1]], [traced])
    assert chosen is traced
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= set(metrics)
