"""``python -m repro recover`` — warm-restart a killed serving run.

Given a checkpoint directory written by ``python -m repro serve``,
``chaos`` or ``fleet`` with ``--checkpoint-dir``, restores the latest
valid checkpoint, replays the write-ahead journal tail, runs the fleet
to completion, and prints the final report to stdout.  The recovery
summary (checkpoint used, events replayed, corrupt checkpoints skipped)
goes to stderr so the stdout report stays byte-comparable against an
uninterrupted run — exactly what ``--verify`` and the ``recover-smoke``
CI job do.

This module also owns the shared ``--checkpoint-dir`` /
``--checkpoint-every`` / ``--kill-at-event`` flags of the serving CLIs
(see :mod:`repro.serve.frontdoor`), plus the
:data:`EXIT_SIMULATED_CRASH` code a killed run exits with.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from dataclasses import dataclass

from repro.faults.injectors import ProcessKill, SimulatedCrash
from repro.obs.cli import (
    add_obs_arguments,
    emit_obs_artifacts,
    obs_from_args,
    resolve_obs_out,
)
from repro.recover.codec import fleet_report_bytes
from repro.recover.configio import decode
from repro.recover.errors import RecoveryError
from repro.recover import kinds
from repro.recover.manager import (
    DEFAULT_CHECKPOINT_EVERY,
    build_runtime,
    restore_runtime,
    run_with_checkpoints,
)
from repro.serve.runtime import ServeRuntime
from repro.serve.telemetry import format_fleet_report

#: Exit code of a run terminated by an injected :class:`ProcessKill` —
#: distinguishable from success (0) and argparse/usage errors (2).
EXIT_SIMULATED_CRASH = 17


# ----------------------------------------------------------------------
# Campaign entry point (repro.exp)
# ----------------------------------------------------------------------
@dataclass
class RecoverProbeReport:
    """One kill-and-recover probe: the recovered run plus its verdict.

    ``verified`` is the durability acceptance criterion — the recovered
    :class:`~repro.serve.telemetry.FleetReport` byte-equals the same
    config run uninterrupted.  ``killed=False`` means the run finished
    before ``kill_at_event`` fired (nothing to recover; trivially
    verified).
    """

    report: "FleetReport"
    killed: bool
    replayed_events: int
    skipped_checkpoints: int
    verified: bool


def resolve_run_config(params: dict) -> dict:
    """Validate campaign params -> the fully resolved canonical dict.

    ``target`` picks the runtime under test (``"serve"``, ``"chaos"``,
    or ``"fleet"``); the remaining params are that runner's, plus
    ``kill_at_event`` and ``checkpoint_every``.
    """
    params = dict(params)
    target = decode(str, params.pop("target", "serve"), "target")
    kill_at_event = decode(int, params.pop("kill_at_event", 500), "kill_at_event")
    checkpoint_every = decode(
        int, params.pop("checkpoint_every", 200), "checkpoint_every"
    )
    if kill_at_event < 1:
        raise ValueError(f"kill_at_event must be >= 1, got {kill_at_event}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if target not in kinds.RUN_KINDS:
        raise ValueError(
            f"unknown recover target {target!r} "
            "(choose 'serve', 'chaos', or 'fleet')"
        )
    inner = kinds.resolve_run_config(target, params)
    return {
        "kind": "recover",
        "target": inner,
        "kill_at_event": kill_at_event,
        "checkpoint_every": checkpoint_every,
    }


def run_from_config(params: dict) -> RecoverProbeReport:
    """Campaign entry point: kill a checkpointed run, recover it, and
    byte-verify the recovered report against the uninterrupted twin.

    The checkpoint directory is ephemeral — the probe's durable outputs
    are the recovered report and the verification verdict.
    """
    resolved = resolve_run_config(params)
    every = resolved["checkpoint_every"]
    with tempfile.TemporaryDirectory(prefix="repro-recover-probe-") as tmp:
        runtime = kinds.build_runtime(resolved["target"])
        kill = ProcessKill(at_event=resolved["kill_at_event"])
        try:
            report = run_with_checkpoints(runtime, tmp, every=every, kill=kill)
        except SimulatedCrash:
            pass
        else:
            # The run outlived the kill schedule — nothing to recover.
            return RecoverProbeReport(
                report=report, killed=False, replayed_events=0,
                skipped_checkpoints=0, verified=True,
            )
        restored = restore_runtime(tmp)
        report = run_with_checkpoints(
            restored.runtime, tmp, every=every, _resume=True
        )
        baseline = build_runtime(restored.checkpoint, None, None, None).run()
        return RecoverProbeReport(
            report=report,
            killed=True,
            replayed_events=restored.replayed_events,
            skipped_checkpoints=len(restored.skipped_checkpoints),
            verified=fleet_report_bytes(report) == fleet_report_bytes(baseline),
        )


# ----------------------------------------------------------------------
# Shared checkpoint flags (imported by the serving CLIs' front door)
# ----------------------------------------------------------------------
def add_checkpoint_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("durability")
    group.add_argument("--checkpoint-dir", default=None,
                       help="directory for checkpoints + write-ahead journal "
                       "(enables durable execution)")
    group.add_argument("--checkpoint-every", type=int,
                       default=DEFAULT_CHECKPOINT_EVERY, metavar="N",
                       help="events between checkpoints "
                       f"(default {DEFAULT_CHECKPOINT_EVERY})")
    group.add_argument("--kill-at-event", type=int, default=None, metavar="N",
                       help="chaos mode: kill the process after exactly N "
                       f"events (exit code {EXIT_SIMULATED_CRASH}); requires "
                       "--checkpoint-dir")


def run_checkpointed_cli(
    runtime: ServeRuntime, args: argparse.Namespace, parser: argparse.ArgumentParser
):
    """Drive ``runtime`` under the shared checkpoint flags.

    Returns the :class:`~repro.serve.telemetry.FleetReport`, or
    ``EXIT_SIMULATED_CRASH`` when ``--kill-at-event`` fired.
    """
    kill = None
    if args.kill_at_event is not None:
        try:
            kill = ProcessKill(at_event=args.kill_at_event)
        except ValueError as err:
            parser.error(str(err))
    try:
        return run_with_checkpoints(
            runtime, args.checkpoint_dir, every=args.checkpoint_every, kill=kill
        )
    except ValueError as err:
        parser.error(str(err))
    except SimulatedCrash as err:
        print(f"simulated crash: {err}", file=sys.stderr)
        print(f"recover with: python -m repro recover --dir {args.checkpoint_dir}",
              file=sys.stderr)
        return EXIT_SIMULATED_CRASH


# ----------------------------------------------------------------------
# python -m repro recover
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro recover",
        description="Restore a killed serving run from its checkpoint "
        "directory and run it to completion.",
    )
    parser.add_argument("--dir", required=True,
                        help="checkpoint directory of the interrupted run")
    parser.add_argument("--every", type=int, default=None, metavar="N",
                        help="checkpoint cadence for the resumed leg "
                        "(default: the cadence recorded in the manifest)")
    parser.add_argument("--verify", action="store_true",
                        help="also run the same config uninterrupted from "
                        "scratch and byte-compare the two reports")
    parser.add_argument("--max-session-rows", type=int, default=8)
    add_obs_arguments(parser)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    obs = obs_from_args(args)
    try:
        restored = restore_runtime(args.dir, obs=obs)
    except RecoveryError as err:
        print(f"recovery failed: {err}", file=sys.stderr)
        return 1
    checkpoint = restored.checkpoint
    for index, reason in restored.skipped_checkpoints:
        print(f"skipped corrupt checkpoint {index}: {reason}", file=sys.stderr)
    print(
        f"restored {checkpoint.kind} run from checkpoint "
        f"{checkpoint.event_index} (+{restored.replayed_events} journal "
        "events replayed)",
        file=sys.stderr,
    )
    every = args.every
    if every is None:
        every = checkpoint.checkpoint_every or DEFAULT_CHECKPOINT_EVERY
    try:
        report = run_with_checkpoints(
            restored.runtime, args.dir, every=every, _resume=True
        )
    except (RecoveryError, ValueError) as err:
        print(f"recovery failed: {err}", file=sys.stderr)
        return 1
    print(format_fleet_report(report, max_session_rows=args.max_session_rows))
    if obs is not None:
        out_dir = resolve_obs_out(
            args.obs_out, f"recover-{checkpoint.kind}", checkpoint.resolved
        )
        emit_obs_artifacts(obs, out_dir, top_k=args.obs_top)
    if args.verify:
        baseline = build_runtime(checkpoint, None, None, None).run()
        if fleet_report_bytes(report) == fleet_report_bytes(baseline):
            print("verify: recovered report is bit-identical to the "
                  "uninterrupted run", file=sys.stderr)
        else:
            print("verify: RECOVERED REPORT DIVERGES from the uninterrupted "
                  "run", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
