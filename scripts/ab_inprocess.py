#!/usr/bin/env python3
"""Compare two walshlab source trees in one interpreter, report by report.

    python3 scripts/ab_inprocess.py BASE_SRC CHANGE_SRC [--config JSON ...]
        [--seed 0] [--rounds 11]

BASE_SRC and CHANGE_SRC are `src/` directories that each hold a `walshlab`
package, for instance a `git archive` of the parent commit and the working
tree.  Both are imported into this one process under distinct package
names.  Every config (an `ExperimentConfig` as a JSON object; by default
the ten campaigns of `scripts/run_all_campaigns.py`) is first run once on
each tree, and the two `report_json_lines` must be byte-identical, the
timestamp left out.  A config of kind "basis" holds the arguments of
`exhaustive_pointwise_basis_check` instead, e.g. {"kind": "basis",
"resolution": 5, "max_intervals": 2, "spot_checks": 200}, and its two
reports are compared as `json.dumps(..., sort_keys=True)`.  Then the two
trees run it alternately, the first side switching every round, and the
script prints the median CPU time (`time.process_time`) of each side and
their ratio, change over base, then the same for the wall time
(`time.perf_counter`).  CPU time sums every thread of the process, so a
kernel that runs on several cores reads faster in wall time alone.

One process sees one heap, one set of imported libraries and one host
load, so this tells a change in the code's own cost from the offsets a
benchmark run in fresh processes can show for an edit that changes no
behaviour.  Exit code 1 if any report differs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path


def load_tree(src: Path, name: str):
    """Import `src/walshlab` as the package `name`; returns its experiments."""
    init = src / "walshlab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.experiments")


def default_configs(experiments) -> list[dict]:
    """The campaigns of scripts/run_all_campaigns.py, as config dicts."""
    # that script imports `walshlab`; let the name resolve to the base tree
    sys.modules.setdefault("walshlab", sys.modules[experiments.__package__])
    sys.modules.setdefault("walshlab.experiments", experiments)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from run_all_campaigns import CAMPAIGNS

    return [cfg.to_dict() for cfg in CAMPAIGNS]


def run(experiments, config: dict):
    if config["kind"] == "basis":
        args = {k: v for k, v in config.items() if k != "kind"}
        return experiments.exhaustive_pointwise_basis_check(**args)
    cfg = experiments.ExperimentConfig(**config)
    return experiments.RUNNERS[cfg.kind](cfg)


def report_text(experiments, config: dict) -> str:
    """The report of one run of `config`, its timestamp left out."""
    report = run(experiments, config)
    if config["kind"] == "basis":
        return json.dumps(report, sort_keys=True)
    return experiments.report_json_lines(report, timestamp="")


def timed(experiments, config: dict) -> tuple[float, float]:
    """CPU and wall seconds of one run of `config`."""
    gc.collect()
    cpu, wall = time.process_time(), time.perf_counter()
    run(experiments, config)
    return time.process_time() - cpu, time.perf_counter() - wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="src/ directory of the base tree")
    parser.add_argument("change", type=Path, help="src/ directory of the changed tree")
    parser.add_argument(
        "--config", action="append", type=json.loads, default=[],
        help='ExperimentConfig fields as JSON, e.g. \'{"kind": "scalar", "resolution": 18}\', '
        'or basis sweep arguments with "kind": "basis"',
    )
    parser.add_argument("--seed", type=int, default=0, help="seed of every config")
    parser.add_argument("--rounds", type=int, default=11, help="timed runs per side")
    args = parser.parse_args(argv)

    sides = {"base": load_tree(args.base, "walshlab_base")}
    sides["change"] = load_tree(args.change, "walshlab_change")
    configs = [{**c, "seed": args.seed} for c in args.config or default_configs(sides["base"])]
    labels = []
    for config in configs:
        kind = config["kind"]
        defaults = {} if kind == "basis" else sides["base"].ExperimentConfig(kind=kind).to_dict()
        labels.append(" ".join(
            f"{k}={v}" for k, v in config.items() if k == "kind" or v != defaults.get(k)
        ))
    width = max(map(len, labels))
    identical = True
    print(
        f"{'config (fields off their defaults)':{width}s}    base_s  change_s   ratio"
        "    base_wall  change_wall  wall_ratio"
    )
    for config, label in zip(configs, labels):
        lines = {name: report_text(ex, config) for name, ex in sides.items()}
        if lines["base"] != lines["change"]:
            print(f"{label:{width}s} REPORTS DIFFER")
            identical = False
            continue
        times = {name: [] for name in sides}
        for r in range(args.rounds):
            order = ("base", "change") if r % 2 == 0 else ("change", "base")
            for name in order:
                times[name].append(timed(sides[name], config))
        cpu, wall = (
            [statistics.median(t[i] for t in times[name]) for name in ("base", "change")]
            for i in (0, 1)
        )
        print(
            f"{label:{width}s} {cpu[0]:9.4f} {cpu[1]:9.4f} {cpu[1] / cpu[0]:7.3f}"
            f" {wall[0]:12.4f} {wall[1]:12.4f} {wall[1] / wall[0]:11.3f}"
        )
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
