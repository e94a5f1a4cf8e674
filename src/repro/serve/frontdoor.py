"""The front door of ``python -m repro serve``, ``chaos`` and ``fleet``.

A serving CLI declares each flag once, as a :class:`Flag` that names
the campaign-params path it sets (with its ms -> s scale where it has
one).  :func:`run_serving_cli` turns argv into those params — the same
dict a campaign JSON would hold — and resolves them through the run-kind
table (:mod:`repro.recover.kinds`).  It then builds the runtime and runs
it checkpointed, under an SLO engine, or plain, and prints the report,
the SLO verdicts and the obs artifacts.  A kind adds only its
``--compare-*`` baseline.

A flag left off the command line is left out of the params, so it takes
the config's own default.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable

from repro.obs.cli import (
    add_obs_arguments,
    add_slo_arguments,
    emit_obs_artifacts,
    emit_slo_artifacts,
    obs_from_args,
    resolve_obs_out,
)
from repro.obs.config import Obs
from repro.obs.slo import (
    SloConfigError,
    SloEngine,
    evaluate_summary,
    format_summary_verdicts,
    resolve_slo_config,
)
from repro.recover.cli import add_checkpoint_arguments, run_checkpointed_cli
from repro.recover.kinds import RUN_KINDS, build_runtime, resolve_run_config
from repro.serve.telemetry import (
    FleetReport,
    fleet_summary_metrics,
    format_fleet_report,
)


@dataclass(frozen=True)
class Flag:
    """One CLI flag and the campaign-params path it sets."""

    name: str
    #: Dotted params path; None when the kind's params hook reads it.
    path: "str | None"
    #: Value type; ``bool`` makes a ``store_true`` switch.
    type: type = float
    help: "str | None" = None
    metavar: "str | None" = None
    choices: "tuple | None" = None
    #: Flag unit -> param unit (``1e-3`` for a ``-ms`` flag).
    scale: "float | None" = None
    #: Makes the flag repeatable: parses each spec into one list entry.
    parse: "Callable[[str], dict] | None" = None

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


def add_flags(parser, flags: "tuple[Flag, ...]") -> None:
    """Declare ``flags`` on a parser or argument group."""
    for flag in flags:
        if flag.type is bool:
            parser.add_argument(flag.name, action="store_true", help=flag.help)
        elif flag.parse is not None:
            parser.add_argument(
                flag.name, action="append", metavar=flag.metavar, help=flag.help
            )
        else:
            parser.add_argument(
                flag.name, type=flag.type, choices=flag.choices,
                metavar=flag.metavar, help=flag.help,
            )


def add_serving_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags every serving CLI shares: report rows, durability, obs
    and SLO."""
    parser.add_argument("--max-session-rows", type=int, default=8)
    add_checkpoint_arguments(parser)
    add_obs_arguments(parser)
    add_slo_arguments(parser)


def params_from_args(args: argparse.Namespace, flags: "tuple[Flag, ...]") -> dict:
    """The campaign params the given flags spell."""
    params: dict = {}
    for flag in flags:
        value = getattr(args, flag.dest)
        if flag.path is None or value is None or value is False:
            continue
        if flag.parse is not None:
            value = [flag.parse(spec) for spec in value]
        elif flag.scale is not None:
            value = value * flag.scale
        *parents, leaf = flag.path.split(".")
        node = params
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = value
    return params


def run_serving_cli(
    kind: str,
    parser: argparse.ArgumentParser,
    flags: "tuple[Flag, ...]",
    argv: "list[str] | None",
    *,
    params_hook: "Callable[[argparse.Namespace, dict], None] | None" = None,
    check: "Callable[[argparse.Namespace, object], None] | None" = None,
    compare: "Callable[[argparse.Namespace, object, FleetReport], None] | None" = None,
) -> int:
    """Parse ``argv``, run one ``kind`` run, print its report.

    ``params_hook(args, params)`` finishes the params the flags spell,
    ``check(args, config)`` rejects flag combinations with
    :class:`ValueError`, and ``compare(args, runtime, report)`` prints
    the kind's baseline comparison.
    """
    args = parser.parse_args(argv)
    try:
        params = params_from_args(args, flags)
        if params_hook is not None:
            params_hook(args, params)
        resolved = resolve_run_config(kind, params)
        config = RUN_KINDS[kind].from_dict(resolved["config"])
        if check is not None:
            check(args, config)
    except ValueError as err:
        parser.error(str(err))
    if args.kill_at_event is not None and args.checkpoint_dir is None:
        parser.error("--kill-at-event requires --checkpoint-dir")
    if args.slo is not None and args.checkpoint_dir is not None:
        parser.error("--slo and --checkpoint-dir are mutually exclusive "
                     "(the SLO engine is not checkpointed)")
    obs = obs_from_args(args)
    slo_engine = None
    if args.slo is not None:
        if obs is None:
            obs = Obs()
        # Chaos and fleet configs wrap a serve template; serve is its own.
        serve = getattr(config, "serve", config)
        try:
            slo_config = resolve_slo_config(args.slo, serve.deadline_s)
        except SloConfigError as err:
            parser.error(str(err))
        slo_engine = SloEngine(slo_config, obs)
    runtime = build_runtime(resolved, obs=obs)
    if args.checkpoint_dir is not None:
        report = run_checkpointed_cli(runtime, args, parser)
        if not isinstance(report, FleetReport):
            return report  # simulated crash exit code
    else:
        if slo_engine is not None:
            runtime.attach_slo(slo_engine)
        report = runtime.run()
    print(format_fleet_report(report, max_session_rows=args.max_session_rows))
    if slo_engine is not None:
        print("\n--- SLO verdicts ---\n")
        print(slo_engine.format_verdicts())
        summary_objectives = slo_engine.config.summary_objectives
        if summary_objectives:
            rows = evaluate_summary(
                summary_objectives, fleet_summary_metrics(report)
            )
            print()
            print(format_summary_verdicts(rows))
    if args.obs:
        out_dir = resolve_obs_out(args.obs_out, kind, resolved)
        emit_obs_artifacts(obs, out_dir, top_k=args.obs_top)
        if slo_engine is not None:
            emit_slo_artifacts(slo_engine, out_dir)
    if compare is not None:
        compare(args, runtime, report)
    return 0
