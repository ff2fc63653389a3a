"""Command-line interface.

Subcommands:
  check    decide one datum, render the verdict as text or JSON
  scan     adjudicate every candidate in a range, emit JSONL rows
  family   generate doubled-uniform-fiber data with an oversized part
  corpus   run the embedded regression corpus

Exit codes: 0 decision completed, 1 usage or parse error or a closed standard
output, 2 internal error, 3 expectation mismatch (``--expect``, scan
disagreement, corpus failure).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .corpus import load_corpus
from .criteria import family_instances
from .engine import DecisionEngine, disagreements, scan, summary_lines
from .oracle import ConstellationWitness, SearchBudget
from .partitions import parse_datum
from .reduction import ReductionChain
from .verdicts import EXCEPTIONAL, REALIZABLE, UNKNOWN


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2 by default; the contract wants 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    default = SearchBudget()
    sub.add_argument("--max-degree", type=int, default=default.max_degree,
                     help="largest degree the random draws and the search will attempt "
                          "(default %(default)s)")
    sub.add_argument("--max-nodes", type=int, default=default.max_nodes,
                     help="backtrack-node budget for one search, each random draw made "
                          "before it counting as one node (default %(default)s)")


def _output_file(path: str) -> str:
    """Check that ``path`` opens while the arguments are parsed, so a path that
    cannot be opened is a usage error before any work starts; the check leaves
    an existing file as it was, and ``cmd_scan`` rewrites it with the rows."""
    try:
        open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        raise argparse.ArgumentTypeError(f"cannot open {path!r}: {exc.strerror}") from exc
    return path


def _budget(args) -> SearchBudget:
    return SearchBudget(max_degree=args.max_degree, max_nodes=args.max_nodes)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _verdict_text(verdict, datum, input_text: str) -> str:
    lines = [
        f"input:     {input_text}",
        f"canonical: {datum.render()}",
        f"status:    {verdict.status}",
        f"method:    {verdict.method}",
    ]
    if verdict.limit:
        lines.append(f"limit:     {verdict.limit}")
    for report in verdict.reasons:
        lines.append(f"reason:    {report.rule}: {report.detail}")
    cert = verdict.certificate
    if isinstance(cert, ConstellationWitness):
        lines.append(f"witness:   {cert.render()}")
    elif isinstance(cert, ReductionChain):
        lines.append(f"chain:     {cert.render()}")
    stats = verdict.stats
    lines.append(f"stats:     nodes={stats.nodes} cache_hits={stats.cache_hits}")
    return "\n".join(lines)


def cmd_check(args) -> int:
    datum = parse_datum(args.datum)
    engine = DecisionEngine(_budget(args))
    verdict = engine.decide(datum)
    if args.format == "json":
        print(json.dumps(verdict.to_json(datum, input_text=args.datum), sort_keys=True, indent=2))
    else:
        print(_verdict_text(verdict, datum, args.datum))
    if args.expect and verdict.status != args.expect:
        print(f"expected {args.expect}, got {verdict.status}", file=sys.stderr)
        return 3
    return 0


def cmd_scan(args) -> int:
    rows = scan(args.degree_max, args.branch_points_max, _budget(args), jobs=args.jobs)
    with open(args.out, "w", encoding="utf-8") if args.out else contextlib.nullcontext() as out:
        for row in rows:
            print(_dump(row), file=out)  # None prints to standard output
    for line in summary_lines(rows):
        print(line, file=sys.stdout if args.out else sys.stderr)
    return 3 if disagreements(rows) else 0


def cmd_family(args) -> int:
    engine = DecisionEngine() if args.emit_verdicts else None
    count = 0
    for datum, rule in family_instances(args.s, args.k, args.t):
        count += 1
        if engine is not None:
            verdict = engine.decide(datum)
            row = verdict.to_json(datum)
            row["expected_rule"] = rule
            print(_dump(row))
        else:
            print(datum.render())
    if count == 0:
        print(
            f"warning: no family data for s={args.s} k={args.k} t={args.t};"
            " the length budget admits no free partitions with a part"
            f" >= {args.k + 1}",
            file=sys.stderr,
        )
    return 0


def cmd_corpus(args) -> int:
    engine = DecisionEngine()
    entries = load_corpus()
    failures = 0
    for entry in entries:
        verdict = engine.decide(entry.datum_text)
        ok = verdict.status == entry.expected
        if args.format == "json":
            print(_dump({
                "datum": entry.datum_text,
                "expected": entry.expected,
                "status": verdict.status,
                "method": verdict.method,
                "ok": ok,
                "source": entry.source,
            }))
        else:
            print(f"{'ok  ' if ok else 'FAIL'} expected={entry.expected:<12}"
                  f" got={verdict.status:<12} method={verdict.method:<20} {entry.datum_text}")
        failures += not ok
    print(f"{len(entries) - failures}/{len(entries)} corpus entries matched",
          file=sys.stderr if failures else sys.stdout)
    return 3 if failures else 0


def build_parser() -> _Parser:
    parser = _Parser(prog="hurwitz",
                     description="Decide realizability of sphere branched-cover data.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide one datum", parents=[])
    check.add_argument("datum", help='datum text, e.g. "4: [3,1] [2,2] [2,2]"')
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument("--expect", choices=(REALIZABLE, EXCEPTIONAL, UNKNOWN))
    _add_budget_flags(check)
    check.set_defaults(func=cmd_check)

    scan_cmd = sub.add_parser("scan", help="adjudicate every candidate in a range")
    scan_cmd.add_argument("--degree-max", type=int, required=True)
    scan_cmd.add_argument("--branch-points-max", type=int, required=True)
    scan_cmd.add_argument("--out", type=_output_file, help="write JSONL rows to this file")
    scan_cmd.add_argument("--jobs", type=int, default=1,
                          help="worker processes, at least 1; capped at the CPUs (default %(default)s)")
    _add_budget_flags(scan_cmd)
    scan_cmd.set_defaults(func=cmd_scan)

    family = sub.add_parser("family", help="generate exceptional family data")
    family.add_argument("--s", type=int, required=True, help="uniform fiber part size (>= 2)")
    family.add_argument("--k", type=int, required=True, help="uniform fiber length (>= 2)")
    family.add_argument("--t", type=int, required=True, help="number of free partitions")
    family.add_argument("--emit-verdicts", action="store_true")
    family.set_defaults(func=cmd_family)

    corpus = sub.add_parser("corpus", help="run the embedded regression corpus")
    corpus.add_argument("--format", choices=("text", "json"), default="text")
    corpus.set_defaults(func=cmd_corpus)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader closed stdout; aim it at the null device for the final flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
