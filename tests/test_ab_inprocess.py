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
    header, *rows = done.stdout.splitlines()
    assert header.split()[-6:] == [
        "base_s", "change_s", "ratio", "base_wall", "change_wall", "wall_ratio"
    ]
    assert [row.split()[0] for row in rows] == ["kind=pointwise", "kind=basis"]
    for row in rows:  # CPU, then wall: each side's median and their ratio
        wall = [float(v) for v in row.split()[-3:]]
        assert all(v > 0 for v in wall), row
    assert "DIFFER" not in done.stdout
