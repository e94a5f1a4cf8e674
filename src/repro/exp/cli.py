"""``python -m repro exp`` — declarative experiment campaigns.

Subcommands::

    exp run <config.json> --dir DIR [--workers N] [--kill-after-runs K]
    exp expand <config.json>          # dry-run: the resolved run table
    exp list --dir DIR                # every ledger record
    exp show RUN --dir DIR            # one run's metrics + artifacts
    exp cat RUN ARTIFACT --dir DIR    # print a stored artifact
    exp compare RUN... --dir DIR [--baseline RUN]
    exp export --dir DIR --format prom|jsonl

``run`` is resumable: rerunning the same config against the same
directory skips every run the ledger already holds (a second identical
invocation is a 100% cache hit).  A run killed by ``--kill-after-runs``
exits with the serving stack's simulated-crash code and resumes the
same way.  All stdout is deterministic — the ``exp-smoke`` CI job diffs
double runs byte-for-byte.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.exp.compare import (
    _select,
    format_comparison,
    format_run_list,
    format_run_show,
)
from repro.exp.config import load_campaign
from repro.exp.errors import CampaignConfigError, CampaignKilled, LedgerError
from repro.exp.runner import resolve_campaign, run_campaign
from repro.exp.track import (
    OBJECTS_DIR,
    ArtifactStore,
    export_jsonl,
    export_prometheus,
    load_records,
)
from repro.recover.cli import EXIT_SIMULATED_CRASH
from repro.system.metrics import table_to_text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro exp",
        description="Run, resume, and compare declarative experiment "
        "campaigns against the zero-dependency tracking backend.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dir(p):
        p.add_argument("--dir", required=True,
                       help="campaign tracking directory")

    run = sub.add_parser("run", help="execute (or resume) a campaign")
    run.add_argument("config", help="campaign config (JSON)")
    add_dir(run)
    run.add_argument("--workers", type=int, default=0, metavar="N",
                     help="process-pool width (0 = in-process, default)")
    run.add_argument("--kill-after-runs", type=int, default=None, metavar="K",
                     help="chaos mode: die after K recorded runs")

    expand = sub.add_parser("expand", help="print the resolved run table "
                            "without executing anything")
    expand.add_argument("config", help="campaign config (JSON)")

    lst = sub.add_parser("list", help="list every recorded run")
    add_dir(lst)

    show = sub.add_parser("show", help="one run's metrics and artifacts")
    show.add_argument("run", help="run id (unique prefix accepted)")
    add_dir(show)

    cat = sub.add_parser("cat", help="print a run's stored artifact")
    cat.add_argument("run", help="run id (unique prefix accepted)")
    cat.add_argument("artifact", help="artifact name, e.g. report.txt")
    add_dir(cat)

    compare = sub.add_parser("compare", help="aligned metric table across runs")
    compare.add_argument("runs", nargs="+", metavar="RUN",
                         help="run ids (unique prefixes accepted)")
    add_dir(compare)
    compare.add_argument("--baseline", default=None, metavar="RUN",
                         help="show signed deltas against this run")

    export = sub.add_parser("export", help="dump all run metrics")
    add_dir(export)
    export.add_argument("--format", choices=("prom", "jsonl"),
                        default="jsonl", dest="fmt")
    return parser


def _cmd_run(args) -> int:
    config = load_campaign(args.config)
    try:
        result = run_campaign(
            config, args.dir,
            workers=args.workers,
            kill_after_runs=args.kill_after_runs,
        )
    except CampaignKilled as err:
        print(f"simulated campaign kill: {err}", file=sys.stderr)
        print(f"resume with: python -m repro exp run {args.config} "
              f"--dir {args.dir}", file=sys.stderr)
        return EXIT_SIMULATED_CRASH
    print(result.summary_line())
    for record in result.records:
        if record["status"] != "ok":
            print(f"  failed: {record['run_id']} ({record['runner']})",
                  file=sys.stderr)
    return 0 if result.failed == 0 else 1


def _cmd_expand(args) -> int:
    config = load_campaign(args.config)
    name, specs = resolve_campaign(config)
    rows = [[i + 1, s.run_id, s.runner] for i, s in enumerate(specs)]
    print(f"campaign {name}: {len(specs)} unique runs")
    print(table_to_text(["#", "run", "runner"], rows, min_width=4))
    return 0


def _cmd_cat(args) -> int:
    records = load_records(args.dir)
    (record,) = _select(records, [args.run])
    digest = record["artifacts"].get(args.artifact)
    if digest is None:
        raise LedgerError(
            f"run {record['run_id']} has no artifact {args.artifact!r} "
            f"(has: {sorted(record['artifacts'])})"
        )
    store = ArtifactStore(Path(args.dir) / OBJECTS_DIR)
    sys.stdout.write(store.get(digest))
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "expand":
            return _cmd_expand(args)
        if args.command == "list":
            print(format_run_list(load_records(args.dir)))
            return 0
        if args.command == "show":
            print(format_run_show(load_records(args.dir), args.run))
            return 0
        if args.command == "cat":
            return _cmd_cat(args)
        if args.command == "compare":
            print(format_comparison(load_records(args.dir), args.runs,
                                    baseline=args.baseline))
            return 0
        if args.command == "export":
            text = (export_prometheus(args.dir) if args.fmt == "prom"
                    else export_jsonl(args.dir))
            sys.stdout.write(text)
            return 0
    except (CampaignConfigError, LedgerError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
