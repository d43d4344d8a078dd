"""Command line front end: `lpr <subcommand> [flags]`.

Exit code 0 iff every asserted bound in the run passed, 1 when one failed,
and 2 for input that is refused (a usage error, a ValueError from the
library, or a report path that cannot be written, reported as one line on
stderr).  All reports embed the fully resolved config; writing the same
config twice yields identical output apart from the timestamp field.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone

from .experiments import (
    FAMILIES,
    RUNNERS,
    ExperimentConfig,
    czd_report,
    decompose_report,
    report_csv,
    report_json_lines,
    verify_identities,
    write_report,
)

RATIO_COMMANDS = tuple(RUNNERS)


def _default_seed() -> int:
    raw = os.environ.get("LPR_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"LPR_SEED must be an integer, got {raw!r}") from None


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--resolution", type=int, default=8)
    sub.add_argument("--trials", type=int, default=100)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--p", type=float, default=2.0)
    sub.add_argument("--q", type=float, default=2.0)
    sub.add_argument("--dim", type=int, default=1)
    sub.add_argument("--family", choices=FAMILIES, default="random")
    sub.add_argument("--count", type=int, default=4)
    sub.add_argument("--rad", default="exact", help="exact or mc:<samples>")
    sub.add_argument("--policy", default="gaussian-cells")
    sub.add_argument("--components", type=int, default=4)
    sub.add_argument("--no-probes", action="store_true")
    sub.add_argument("--out", default=None)
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpr",
        description="verification campaigns for Walsh interval-projection inequalities",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name in RATIO_COMMANDS:
        sub = subs.add_parser(name)
        _add_common(sub)

    dec = subs.add_parser("decompose")
    dec.add_argument("--a", type=int, required=True)
    dec.add_argument("--b", type=int, required=True)
    dec.add_argument("--out", default=None)

    ver = subs.add_parser("verify-identities")
    ver.add_argument("--resolution", type=int, default=8)
    ver.add_argument("--trials", type=int, default=50)
    ver.add_argument("--seed", type=int)
    ver.add_argument("--out", default=None)

    czd = subs.add_parser("czd")
    czd.add_argument("--lambda", dest="lam", type=float, required=True)
    czd.add_argument("--resolution", type=int, default=8)
    czd.add_argument("--dim", type=int, default=2)
    czd.add_argument("--q", type=float, default=2.0)
    czd.add_argument("--seed", type=int)
    czd.add_argument("--out", default=None)

    return parser


def _emit_object(report: dict, out: str | None) -> None:
    payload = dict(report)
    payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # --seed defaults to $LPR_SEED (else 0), read here so that a bad
        # value is refused like any other input
        if "seed" in args and args.seed is None:
            args.seed = _default_seed()
        return _run(args)
    except (ValueError, OSError) as exc:
        message = " ".join(str(exc).split())
        print(f"lpr {args.command}: error: {message}", file=sys.stderr)
        return 2


def _run(args) -> int:
    if args.command == "decompose":
        report = decompose_report(args.a, args.b)
        _emit_object(report, args.out)
        return 0 if report["passed"] else 1

    if args.command == "verify-identities":
        report = verify_identities(args.resolution, args.trials, args.seed)
        _emit_object(report, args.out)
        return 0 if report["passed"] else 1

    if args.command == "czd":
        report = czd_report(args.resolution, args.dim, args.q, args.lam, args.seed)
        _emit_object(report, args.out)
        return 0 if report["passed"] else 1

    cfg = ExperimentConfig(
        kind=args.command,
        resolution=args.resolution,
        trials=args.trials,
        seed=args.seed,
        p=args.p,
        q=args.q,
        dim=args.dim,
        family=args.family,
        count=args.count,
        rad=args.rad,
        policy=args.policy,
        components=args.components,
        probes=not args.no_probes,
    )
    report = RUNNERS[args.command](cfg)
    if args.out:
        write_report(report, args.out, args.format)
    elif args.format == "csv":
        sys.stdout.write(report_csv(report))
    else:
        sys.stdout.write(report_json_lines(report))
    if args.out:
        print(
            json.dumps(
                {"passed": report.passed, "summary": report.summary, "out": args.out}
            )
        )
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
