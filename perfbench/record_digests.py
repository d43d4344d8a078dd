#!/usr/bin/env python3
"""Record the reference output digests that the benchmark checks against.

    python3 perfbench/record_digests.py

Runs one pass of every workload, at both scales, for each seed in SEEDS
and writes the sha256 digest of each step's output to perfbench/digests.json,
replacing the whole table.  Run it only at a commit whose outputs are the
reference: a later run whose output differs from a recorded digest counts
as a failed check.  A pass whose own checks fail is not recorded.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

SEEDS = range(32)


def main() -> int:
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    table = {"_recorded_at": proc.stdout.strip() if proc.returncode == 0 else "unknown"}
    for scale in workloads.PARAMS:
        table[scale] = {}
        for workload in workloads.WORKLOADS:
            seeds = {}
            for seed in SEEDS:
                steps, params = workloads.build(workload, seed, scale)
                digests = {}
                for step in steps:
                    outcome = step.check(step.run())
                    if not all(outcome.checks.values()):
                        raise SystemExit(
                            f"{scale} {workload} seed {seed} {step.name}: {outcome.checks}"
                        )
                    digests[step.name] = outcome.digest
                seeds[str(seed)] = digests
                print(f"{scale} {workload} seed {seed}: {len(digests)} digests", flush=True)
            table[scale][workload] = {
                "params": workloads.params_key(workload, params),
                "seeds": seeds,
            }
    workloads.DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
