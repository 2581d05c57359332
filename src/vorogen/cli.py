"""Command line front end.

Exit codes: 0 success, 2 usage error, 3 algorithmic failure (construction,
no eligible anchor, singular or underdetermined system), 4 consistency
failure (input fails validation or is not mirror-consistent), 5 I/O or
parse failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .bench import CSV_HEADER, export_csv, format_row, run_campaign
from .errors import (
    InconsistentSystemError,
    ParseError,
    UnsupportedVersionError,
    VorogenError,
)
from .forward import sample_and_build
from .pipeline import METHODS, reconstruct
from .tessellation import GroundTruth, load, save, validate

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_ALGORITHM = 3
EXIT_CONSISTENCY = 4
EXIT_IO = 5


def _usage(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_generate(args) -> int:
    if args.n < 2:
        return _usage(f"--n must be at least 2, got {args.n}")
    _, t, gt = sample_and_build(args.n, args.seed)
    save(t, args.out, gt)
    print(
        f"wrote {args.out}: {t.n_cells} cells, {t.n_ridges} ridges,"
        f" {t.n_vertices} vertices"
    )
    return EXIT_OK


def _cmd_reconstruct(args) -> int:
    t, gt = load(args.infile)
    rep = reconstruct(t, args.method, gt)
    if args.out:
        save(t, args.out, GroundTruth(rep.generators))
    summary = rep.summary()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for key in sorted(summary):
        print(f"{key}: {summary[key]}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        ns = [int(s) for s in args.ns.split(",") if s.strip()]
    except ValueError:
        return _usage(f"--ns must be comma-separated integers, got {args.ns!r}")
    if not ns or any(n < 10 for n in ns):
        return _usage("every --ns entry must be >= 10")
    if args.nsim < 1:
        return _usage("--nsim must be >= 1")
    if args.workers < 1:
        return _usage("--workers must be >= 1")
    rows = run_campaign(
        ns,
        args.nsim,
        method=args.method,
        workers=args.workers,
        master_seed=args.seed,
    )
    print(CSV_HEADER)
    for row in rows:
        print(format_row(row))
    failed = [f for row in rows for f in row.failed]
    if failed:
        print(f"{len(failed)} simulations failed and were excluded", file=sys.stderr)
        for n, seed, msg in failed:
            print(f"  n={n} seed={seed}: {msg}", file=sys.stderr)
    if args.csv:
        export_csv(rows, args.csv)
    return EXIT_OK


def _cmd_validate(args) -> int:
    t, _ = load(args.infile)
    msgs = validate(t)
    for m in msgs:
        print(m)
    if msgs:
        print(f"{len(msgs)} violations")
        return EXIT_CONSISTENCY
    print("ok")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vorogen",
        description="Generate Voronoi tessellations and recover their generators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample sites and write their tessellation")
    g.add_argument("--n", type=int, required=True, help="number of sites (>= 2)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output tessellation file")
    g.set_defaults(func=_cmd_generate)

    r = sub.add_parser("reconstruct", help="recover generators from a tessellation")
    r.add_argument("--in", dest="infile", required=True, help="input tessellation file")
    r.add_argument("--method", choices=METHODS, default="anchor")
    r.add_argument("--out", help="write tessellation plus recovered generators here")
    r.add_argument("--report", help="write a JSON report here")
    r.set_defaults(func=_cmd_reconstruct)

    b = sub.add_parser("bench", help="run a Monte Carlo accuracy campaign")
    b.add_argument("--ns", required=True, help="comma-separated sizes, each >= 10")
    b.add_argument("--nsim", type=int, default=100)
    b.add_argument("--method", choices=METHODS, default="anchor")
    b.add_argument("--workers", type=int, default=1)
    b.add_argument("--seed", type=int, default=0, help="campaign master seed")
    b.add_argument("--csv", help="also write the summary rows to this CSV file")
    b.set_defaults(func=_cmd_bench)

    v = sub.add_parser("validate", help="check a tessellation file's invariants")
    v.add_argument("--in", dest="infile", required=True)
    v.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except (ParseError, UnsupportedVersionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InconsistentSystemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except VorogenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ALGORITHM
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
