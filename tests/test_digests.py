"""The benchmark's recorded report digests, checked in the unit suite.

Runs the tiny-scale steps of every `perfbench` workload for seeds 0-3, and
the full-scale steps of every workload at seed 0 (32 scalar chunks per
campaign at N = 8 and N = 18, which the tiny scale does not reach, and the
full basis sweep, whose spot checks run through `block_sum_family`), against
`perfbench/digests.json`,
so that a change to any reported bit fails here without a benchmark run.
Nothing under `perfbench/` is written.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

CASES = [("tiny", w, seed) for w in workloads.WORKLOADS for seed in range(4)]
CASES += [("full", w, 0) for w in ("campaigns", "rad-exact", "wide-n18", "sweep")]


@pytest.mark.parametrize("scale, workload, seed", CASES)
def test_step_digests(scale, workload, seed):
    steps, params = workloads.build(workload, seed, scale)
    digests = workloads.Digests.load(scale, workload, params, seed)
    for step in steps:
        outcome = step.check(step.run())
        assert digests.compare(step.name, outcome), f"{step.name}: seed {seed} unrecorded"
        assert outcome.checks.get("digest") is True, (step.name, outcome.checks)
        assert all(outcome.checks.values()), (step.name, outcome.checks)
