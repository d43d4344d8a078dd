"""`scripts/run_all_campaigns.py` on tiny campaigns."""

import csv
import importlib.util
import sys
from pathlib import Path

from walshlab.experiments import ExperimentConfig

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_all_campaigns.py"
spec = importlib.util.spec_from_file_location("run_all_campaigns", SCRIPT)
run_all_campaigns = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run_all_campaigns)

# pointwise and weak11 add a summary column, and scalar at p < 2 another
TINY = [
    ExperimentConfig(kind="scalar", resolution=3, trials=8, p=4, count=2),
    ExperimentConfig(kind="pointwise", resolution=3, trials=4, count=2),
    ExperimentConfig(kind="scalar", resolution=3, trials=8, p=1.5, count=2),
    ExperimentConfig(kind="weak11", resolution=3, trials=2, dim=2, count=2),
    ExperimentConfig(kind="lemma", resolution=3, trials=4, dim=2),
]


def test_summary_rows_read_back_through_the_header(tmp_path, monkeypatch):
    monkeypatch.setattr(run_all_campaigns, "CAMPAIGNS", TINY)
    monkeypatch.setattr(sys, "argv", ["run_all_campaigns.py", "--out-dir", str(tmp_path)])
    run_all_campaigns.main()
    with open(tmp_path / "summary.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert [row["config.kind"] for row in rows] == [cfg.kind for cfg in TINY]
    for row in rows:
        assert None not in row and None not in row.values()  # no cell beyond the header
        assert row["passed"] in {"True", "False"}
        assert row["timestamp"] == ""
    extra = {"summary.worst_excess": 1, "summary.regime": 2, "summary.worst_support_excess": 3}
    for column, k in extra.items():
        assert [bool(row[column]) for row in rows] == [i == k for i in range(len(TINY))]
    assert rows[2]["summary.regime"] == "p<2 report-only"
