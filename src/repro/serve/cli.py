"""``python -m repro serve`` — run a fleet-serving simulation.

Simulates N concurrent HMD clients multiplexed onto a worker pool and
prints the fleet report.  ``--compare-sequential`` additionally replays
the identical fleet with cross-session batching disabled (``max_batch=1``)
and prints both reports plus the goodput ratio.  The shared flags and
the run itself are :mod:`repro.serve.frontdoor`'s.
"""

from __future__ import annotations

import argparse

from repro.serve.config import AdmissionPolicy
from repro.serve.frontdoor import (
    Flag,
    add_flags,
    add_serving_arguments,
    run_serving_cli,
)
from repro.serve.runtime import serve_fleet
from repro.serve.telemetry import format_fleet_report

#: Flag -> :class:`~repro.serve.config.ServeConfig` field (``service.*``:
#: :class:`~repro.serve.config.BatchServiceModel`).
FLAGS = (
    Flag("--sessions", "n_sessions", int),
    Flag("--duration", "duration_s", help="simulated window in seconds"),
    Flag("--fps", "fps", help="per-session frame rate"),
    Flag("--workers", "n_workers", int),
    Flag("--max-batch", "max_batch", int),
    Flag("--batch-window-ms", "batch_window_s", scale=1e-3,
         help="dynamic batching window in milliseconds"),
    Flag("--admission", "admission", str,
         choices=tuple(p.value for p in AdmissionPolicy)),
    Flag("--queue-budget", "queue_budget_deadlines",
         help="admission budget in units of the frame deadline"),
    Flag("--deadline-frames", "deadline_frames",
         help="per-frame deadline in frame periods"),
    Flag("--reuse-displacement", "reuse_displacement_deg",
         help="Algorithm-1 reuse threshold in degrees "
         "(smaller => more predict-path load)"),
    Flag("--service-fixed-ms", "service.fixed_s", scale=1e-3,
         help="per-dispatch overhead of one batch"),
    Flag("--service-per-sample-ms", "service.per_sample_s", scale=1e-3,
         help="marginal per-sample service time"),
    Flag("--seed", "seed", int),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Simulate serving a fleet of gaze-tracked HMD sessions.",
    )
    add_flags(parser, FLAGS)
    parser.add_argument("--compare-sequential", action="store_true",
                        help="also run the max_batch=1 baseline on the same fleet")
    add_serving_arguments(parser)
    return parser


def _compare_sequential(args, runtime, report) -> None:
    if not args.compare_sequential:
        return
    baseline = serve_fleet(
        runtime.config.sequential_baseline(),
        service=runtime.service,
        fleet=runtime.fleet,
    )
    print("\n--- sequential baseline (max_batch=1) ---\n")
    print(format_fleet_report(baseline, max_session_rows=args.max_session_rows))
    batched = report.predict_goodput_fps
    solo = baseline.predict_goodput_fps
    ratio = batched / solo if solo > 0 else float("inf")
    print(
        f"\nCross-session batching: {batched:.0f} vs {solo:.0f} "
        f"fresh predictions/s ({ratio:.2f}x)"
    )


def main(argv: "list[str] | None" = None) -> int:
    return run_serving_cli(
        "serve", build_parser(), FLAGS, argv, compare=_compare_sequential
    )


if __name__ == "__main__":
    raise SystemExit(main())
