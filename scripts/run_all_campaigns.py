#!/usr/bin/env python3
"""Run every verification campaign at laptop scale and write reports.

Writes one JSONL report per campaign into the output directory plus a
combined summary CSV, one row per campaign over the union of the columns of
their `report_csv` rows, in first-seen order; a row leaves the columns it
lacks empty.  Exit code 0 iff every asserted bound passed.
"""

import argparse
import csv
import io
import sys
from pathlib import Path

from walshlab.experiments import (
    RUNNERS,
    ExperimentConfig,
    report_csv,
    write_report,
)

CAMPAIGNS = [
    ExperimentConfig(kind="scalar", resolution=8, trials=2000, p=2, count=5),
    ExperimentConfig(kind="scalar", resolution=8, trials=2000, p=4, count=5),
    ExperimentConfig(kind="scalar", resolution=8, trials=2000, p=8, count=5),
    ExperimentConfig(kind="pointwise", resolution=8, trials=500, count=4),
    ExperimentConfig(kind="vector", resolution=6, trials=300, p=2, q=2, dim=2, count=4),
    ExperimentConfig(kind="vector", resolution=6, trials=300, p=4, q=3, dim=8, count=4),
    ExperimentConfig(kind="lemma", resolution=6, trials=500, p=2, q=2, dim=1),
    ExperimentConfig(kind="lemma", resolution=6, trials=500, p=4, q=4, dim=4),
    ExperimentConfig(kind="weak11", resolution=6, trials=100, dim=2, count=3),
    ExperimentConfig(kind="adjoint", resolution=6, trials=300, dim=2, count=4),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    all_passed = True
    csv_rows = []
    for base in CAMPAIGNS:
        cfg = ExperimentConfig(**{**base.to_dict(), "seed": args.seed})
        report = RUNNERS[cfg.kind](cfg)
        name = f"{cfg.kind}_p{cfg.p:g}_q{cfg.q:g}_d{cfg.dim}"
        write_report(report, str(out_dir / f"{name}.jsonl"), "json")
        csv_rows.append(next(csv.DictReader(io.StringIO(report_csv(report, timestamp="")))))
        status = "pass" if report.passed else "FAIL"
        print(
            f"{status}  {name:28s} max={report.summary['max']:.6f} "
            f"q99={report.summary['q99']:.6f}"
        )
        all_passed &= report.passed

    columns = list(dict.fromkeys(name for row in csv_rows for name in row))
    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, columns, restval="", lineterminator="\n")
        writer.writeheader()
        writer.writerows(csv_rows)
    print(f"reports in {out_dir}/")
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
