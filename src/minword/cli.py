"""Command-line front end.

Subcommands: witness, verify, search, lss.  Exit codes: 0 on
success/pass, 1 when a verified claim fails (or an lss query finds an empty
intersection), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from itertools import chain
from math import prod

from .automaton import format_word
from .enumeration import BudgetExceededError, tightness_search
from .interchange import load_path, to_document
from .reports import WitnessReport, build_witness_report, verify_range
from .shortest import intersection_lss

SCHEMA_VERSION = 1
# witness and verify walk the product of each (m, n) pair, and lss the
# product of its DFA files, each walk stopping at its first accepting state.
# Under tracemalloc, empty queries over 3 letters peaked at about 113-114
# bytes per state with two 600-state files or one of them given twice, and
# 150 with a 20-state file first (676,124 states): 0.5-0.6 GB at this cap.
# witness and verify also walk each chain in full, as state_complexity
# refines it, and with the refinement peak at about 750-880 bytes per
# chain state, some 8 walk states' worth.  So witness counts its longer chain,
# of max(m, n) states, as 8 walk states a state; verify's chains have at most
# 75 states.
MAX_WALK_STATES = 1 << 22


def _fmt(value) -> str:
    return str(value).lower() if isinstance(value, bool) else str(value)


def _emit(args, command: str, fields: dict, text=None, reports=()) -> None:
    """Print a command's answer in the format args asks for.

    structured is one JSON document: schema_version, command, the fields,
    then a timestamp only with --timestamp.  csv is a header of the
    WitnessReport fields, then one row per report.  text is the given lines,
    or else one `key: value` line per field, `witness_dfas` as indented
    compact JSON.
    """
    if args.format == "structured":
        doc = {"schema_version": SCHEMA_VERSION, "command": command, **fields}
        if args.timestamp:
            from datetime import datetime, timezone

            doc["timestamp"] = datetime.now(timezone.utc).isoformat()
        print(json.dumps(doc, indent=2))
    elif args.format == "csv":
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(WitnessReport._fields)
        for report in reports:
            writer.writerow(map(_fmt, report))
    elif text is not None:
        print(*text, sep="\n")
    else:
        for key, value in fields.items():
            if key == "witness_dfas":
                print("witness_dfas:")
                for doc in value:
                    print(f"  {json.dumps(doc, separators=(',', ':'))}")
            elif isinstance(value, list):
                print(f"{key}: {','.join(map(str, value))}")
            else:
                print(f"{key}: {_fmt(value)}")


def _check_walk(states: int, what: str) -> None:
    """Refuse a run whose product walks would visit over MAX_WALK_STATES states."""
    if states > MAX_WALK_STATES:
        raise BudgetExceededError(
            f"{what} needs {states} states, over the walk limit of {MAX_WALK_STATES}"
        )


def cmd_witness(args) -> int:
    m, n = args.m, args.n
    if m < 1 or n < 1:
        raise ValueError(f"sizes must be positive, got m={m}, n={n}")
    _check_walk(m * n, f"the ({m}, {n}) pair")
    _check_walk(8 * max(m, n), f"the {max(m, n)}-state chain, at 8 walk states a state,")
    if m > n:
        print(f"note: swapped sizes to m={n}, n={m}", file=sys.stderr)
        m, n = n, m
    report = build_witness_report(m, n)
    _emit(args, "witness", report._asdict(), reports=[report])
    return 0 if report.passed else 1


def cmd_verify(args) -> int:
    # The pairs 1 <= m <= n <= N walk sum(m * n) = ((sum k)^2 + sum k^2) / 2
    # states in all; verify_range itself rejects N < 1.
    top = max(args.max_n, 0)
    total, squares = top * (top + 1) // 2, top * (top + 1) * (2 * top + 1) // 6
    _check_walk((total * total + squares) // 2, f"verify --max-n {args.max_n}")
    rows = verify_range(args.max_n)
    all_passed = all(r.passed for r in rows)
    # The table is lazy, so structured and csv output never format it.
    line = "{:>3} {:>3} {:>9} {:>9} {:>7} {:>7} {:>10} {:>6}".format
    table = chain(
        [line("m", "n", "expected", "lss", "sc_ones", "sc_ramp", "formula_ok", "passed")],
        (
            line(r.m, r.n, r.expected, r.lss, r.sc_ones, r.sc_ramp, _fmt(r.formula_word_accepted), _fmt(r.passed))
            for r in rows
        ),
        [f"{len(rows)} pairs, {'all passed' if all_passed else 'FAILURES present'}"],
    )
    fields = {"max_n": args.max_n, "rows": [r._asdict() for r in rows], "all_passed": all_passed}
    _emit(args, "verify", fields, table, rows)
    return 0 if all_passed else 1


def cmd_search(args) -> int:
    report = tightness_search(args.sizes)
    fields = {
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
    _emit(args, "search", fields)
    return 0


def cmd_lss(args) -> int:
    dfas = []
    for path in args.dfa:
        try:
            dfas.append(load_path(path))
        except ValueError as exc:  # OSError messages name the path already
            raise ValueError(f"{path}: {exc}") from exc
    _check_walk(prod(d.state_count for d in dfas), "the intersection")
    result = intersection_lss(dfas)
    fields = {"components": len(dfas), "empty": result is None, "length": None, "witness": None}
    if result is None:
        _emit(args, "lss", fields, ["empty intersection"])
        return 1
    fields.update(length=result.length, witness=format_word(dfas[0].alphabet, result.witness))
    _emit(args, "lss", fields, [f"{key}: {fields[key]}" for key in ("length", "witness")])
    return 0


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
    args = build_parser().parse_args(argv)
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
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help and usage errors
        code = exc.code
    # Exit without interpreter teardown: freeing every cached language and
    # collecting garbage one last time would cost a large share of a short
    # run, and the operating system reclaims the memory at once.  Nothing is
    # left to flush but stdout and stderr, and atexit handlers do not run.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
