"""`scripts/ab_inprocess.py` run on one source tree against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = [
    '{"kind": "pointwise", "resolution": 3, "trials": 4}',
    '{"kind": "basis", "resolution": 2, "max_intervals": 2, "spot_checks": 5}',
]


def test_one_tree_against_itself_finds_identical_reports():
    src = str(ROOT / "src")
    cmd = [sys.executable, str(ROOT / "scripts" / "ab_inprocess.py"), src, src, "--rounds", "1"]
    for config in CONFIGS:
        cmd += ["--config", config]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = done.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["kind=pointwise", "kind=basis"]
    assert "DIFFER" not in done.stdout
