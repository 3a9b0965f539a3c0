"""Command-line front end.

Subcommands: witness, verify, search, lss.  Exit codes: 0 on
success/pass, 1 when a verified claim fails (or an lss query finds an empty
intersection), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from math import prod

from .automaton import format_word
from .enumeration import BudgetExceededError, SearchReport, tightness_search
from .interchange import load_path, to_document
from .reports import WitnessReport, build_witness_report, verify_range
from .shortest import intersection_lss

SCHEMA_VERSION = 1
# witness and verify walk the products of (m, n) pairs, and lss the product
# of its DFA files.  Each walk stops at its first accepting state.  Under
# tracemalloc, empty queries over 3 letters peaked at about 115 bytes per
# state with two 600-state files or one of them given twice, and 145 with a
# 20-state third file (1,393,373 states), so this caps such walks at about
# 0.5-0.6 GB.
MAX_WALK_STATES = 1 << 22


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit_json(command: str, fields: dict, args) -> None:
    doc = {"schema_version": SCHEMA_VERSION, "command": command, **fields}
    if args.timestamp:
        from datetime import datetime, timezone

        doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    print(json.dumps(doc, indent=2))


def _emit_text(fields: dict) -> None:
    """One `key: value` line per field; `witness_dfas` as indented compact JSON."""
    for key, value in fields.items():
        if key == "witness_dfas":
            print("witness_dfas:")
            for doc in value:
                print(f"  {json.dumps(doc, separators=(',', ':'))}")
        elif isinstance(value, list):
            print(f"{key}: {','.join(map(str, value))}")
        else:
            print(f"{key}: {_fmt(value)}")


def _emit_csv(reports: list[WitnessReport]) -> None:
    """A header of the WitnessReport fields, then one row per report."""
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(WitnessReport._fields)
    for report in reports:
        writer.writerow(map(_fmt, report))


def _check_walk(states: int, what: str) -> None:
    """Refuse a run whose product walks would visit over MAX_WALK_STATES states."""
    if states > MAX_WALK_STATES:
        raise BudgetExceededError(
            f"{what} needs {states} states, over the walk limit of {MAX_WALK_STATES}"
        )


def _pair_sizes(m: int, n: int) -> tuple[int, int]:
    """Check an (m, n) pair against the walk limit and order it so m <= n."""
    if m < 1 or n < 1:
        raise ValueError(f"sizes must be positive, got m={m}, n={n}")
    _check_walk(m * n, f"the ({m}, {n}) pair")
    if m > n:
        print(f"note: swapped sizes to m={n}, n={m}", file=sys.stderr)
        return n, m
    return m, n


def cmd_witness(args) -> int:
    m, n = _pair_sizes(args.m, args.n)
    report = build_witness_report(m, n)
    row = report._asdict()
    if args.format == "structured":
        _emit_json("witness", row, args)
    elif args.format == "csv":
        _emit_csv([report])
    else:
        _emit_text(row)
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    # The pairs 1 <= m <= n <= N walk sum(m * n) = ((sum k)^2 + sum k^2) / 2
    # states in all; verify_range itself rejects N < 1.
    top = max(args.max_n, 0)
    total, squares = top * (top + 1) // 2, top * (top + 1) * (2 * top + 1) // 6
    _check_walk((total * total + squares) // 2, f"verify --max-n {args.max_n}")
    rows = verify_range(args.max_n)
    all_passed = all(r.passed for r in rows)
    if args.format == "structured":
        _emit_json(
            "verify",
            {
                "max_n": args.max_n,
                "rows": [r._asdict() for r in rows],
                "all_passed": all_passed,
            },
            args,
        )
    elif args.format == "csv":
        _emit_csv(rows)
    else:
        header = f"{'m':>3} {'n':>3} {'expected':>9} {'lss':>9} {'sc_ones':>7} {'sc_ramp':>7} {'formula_ok':>10} {'passed':>6}"
        print(header)
        for r in rows:
            print(
                f"{r.m:>3} {r.n:>3} {r.expected:>9} {r.lss:>9} {r.sc_ones:>7} {r.sc_ramp:>7} "
                f"{_fmt(r.formula_word_accepted):>10} {_fmt(r.passed):>6}"
            )
        print(f"{len(rows)} pairs, {'all passed' if all_passed else 'FAILURES present'}")
    return 0 if all_passed else 1


def _search_fields(report: SearchReport) -> dict:
    return {
        "sizes": list(report.sizes),
        "target": report.target,
        "max_lss": report.max_lss,
        "attained": report.attained,
        "tuples_examined": report.tuples_examined,
        "tuples_skipped": report.tuples_skipped,
        "languages_per_size": list(report.languages_per_size),
        "witness_word": format_word(report.witness_dfas[0].alphabet, report.witness_word),
        "witness_dfas": [to_document(d) for d in report.witness_dfas],
    }


def cmd_search(args) -> int:
    report = tightness_search(args.sizes)
    fields = _search_fields(report)
    if args.format == "structured":
        _emit_json("search", fields, args)
    else:
        _emit_text(fields)
    return 0


def cmd_lss(args) -> int:
    dfas = [load_path(path) for path in args.dfa]
    _check_walk(prod(d.state_count for d in dfas), "the intersection")
    result = intersection_lss(dfas)
    empty = result is None
    fields = {
        "components": len(dfas),
        "empty": empty,
        "length": None if empty else result.length,
        "witness": None if empty else format_word(dfas[0].alphabet, result.witness),
    }
    if args.format == "structured":
        _emit_json("lss", fields, args)
    elif empty:
        print("empty intersection")
    else:
        _emit_text({"length": fields["length"], "witness": fields["witness"]})
    return 1 if empty else 0


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"sizes must be comma-separated integers, got {text!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError(f"sizes must be positive integers, got {text!r}")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minword",
        description="Shortest accepted words of DFA intersections: witness, verify, search, lss.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: list[str]) -> None:
        p.add_argument(
            "--format",
            choices=formats,
            default="text",
            help="output format (structured = JSON with schema_version)",
        )
        p.add_argument(
            "--timestamp",
            action="store_true",
            help="include a timestamp field in structured output",
        )

    p = sub.add_parser("witness", help="verify the mn-1 bound for one (m, n) pair")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    add_common(p, ["text", "structured", "csv"])
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="verify the bound for all pairs up to --max-n")
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    add_common(p, ["text", "structured", "csv"])
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustive tuple search for the maximum intersection lss")
    p.add_argument("--sizes", type=_parse_sizes, required=True, metavar="A,B,...")
    add_common(p, ["text", "structured"])
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("lss", help="shortest word in the intersection of DFA files")
    p.add_argument("--dfa", action="append", required=True, metavar="PATH", help="DFA document (repeatable)")
    add_common(p, ["text", "structured"])
    p.set_defaults(func=cmd_lss)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, BudgetExceededError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    # Die silently of SIGPIPE when the reader closes the pipe, as Unix filters do.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    # Labels are UTF-8 in DFA files, so they are on stdout too, whatever the locale.
    sys.stdout.reconfigure(encoding="utf-8")
    sys.exit(main())


if __name__ == "__main__":
    entry()
