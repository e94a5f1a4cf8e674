"""``python -m repro bench`` — view trends, gate regressions, render a report.

Subcommands::

    bench trend  [--ledger PATH] [--bench NAME ...]
    bench gate   [--ledger PATH] [--tolerance SPEC ...]
    bench report [--ledger PATH] [--slo-dir DIR] [-o FILE]

``gate`` exits 4 on any regression beyond tolerance (``0.05`` default;
``p95_ms=0.1`` overrides one metric).  ``trend`` and ``report`` are pure
functions of the ledger.  The workloads behind the tracked history run
as ``python -m repro exp run examples/campaigns/acceptance.json``.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.bench.gate import (
    GATE_EXIT_REGRESSION,
    evaluate_gate,
    format_gate,
    parse_tolerances,
)
from repro.bench.ledger import (
    BENCH_LEDGER_NAME,
    BenchLedgerError,
    read_bench_history,
)
from repro.bench.report import render_report
from repro.bench.trend import format_trend


def _add_ledger_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ledger", type=Path, default=Path(BENCH_LEDGER_NAME),
        metavar="PATH", help=f"history ledger (default: {BENCH_LEDGER_NAME})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Benchmark history: trend, regression gate, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trend = sub.add_parser("trend", help="sparkline history per metric")
    trend.add_argument("--bench", nargs="+", default=None, metavar="NAME",
                       help="restrict to these bench ids")
    _add_ledger_argument(trend)

    gate = sub.add_parser("gate", help="fail on regression vs the ledger")
    gate.add_argument("--tolerance", nargs="+", default=[], metavar="SPEC",
                      help="relative tolerance: a bare number sets the "
                      "default (0.05), name=value overrides one metric")
    _add_ledger_argument(gate)

    report = sub.add_parser("report", help="self-contained HTML dashboard")
    report.add_argument("--slo-dir", type=Path, default=None, metavar="DIR",
                        help="obs-out directory holding slo.jsonl / "
                        "slo_verdicts.json to include")
    report.add_argument("-o", "--out", type=Path,
                        default=Path("bench-report.html"))
    _add_ledger_argument(report)
    return parser


def _cmd_trend(args: argparse.Namespace) -> int:
    records = read_bench_history(args.ledger)
    if not records:
        print(f"{args.ledger}: empty history")
        return 0
    print(format_trend(records, benches=args.bench))
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    try:
        default, overrides = parse_tolerances(args.tolerance)
    except ValueError as err:
        raise SystemExit(f"bench gate: {err}")
    records = read_bench_history(args.ledger)
    if not records:
        print(f"{args.ledger}: empty history — nothing to gate")
        return 0
    rows = evaluate_gate(records, tolerance=default, overrides=overrides)
    print(format_gate(rows, records))
    if any(row.regressed for row in rows):
        return GATE_EXIT_REGRESSION
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    records = read_bench_history(args.ledger)
    text = render_report(records, slo_dir=args.slo_dir)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(text, encoding="utf-8")
    print(f"wrote {args.out} ({len(records)} history records)")
    return 0


_COMMANDS = {
    "trend": _cmd_trend,
    "gate": _cmd_gate,
    "report": _cmd_report,
}


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BenchLedgerError as err:
        parser.error(str(err))
        return 2  # unreachable; parser.error raises SystemExit


if __name__ == "__main__":
    raise SystemExit(main())
