"""``python -m repro chaos`` — run a reproducible chaos scenario.

Starts from the canonical acceptance scenario (10% sensor frame drops,
noise-burst/occlusion mix, one worker crash, one latency-spike window)
and lets flags scale or disable each fault class.  The printed report is
byte-identical across runs of the same flags — ``--compare-fault-free``
additionally replays the identical fleet with every fault disabled and
prints the degradation budget actually consumed.  The flags are chaos
campaign params (:class:`repro.recover.kinds.ChaosParams`); the shared
flags and the run itself are :mod:`repro.serve.frontdoor`'s.
"""

from __future__ import annotations

import argparse

from repro.faults.runtime import run_chaos
from repro.serve.frontdoor import (
    Flag,
    add_flags,
    add_serving_arguments,
    run_serving_cli,
)
from repro.serve.telemetry import format_fleet_report

FLAGS = (
    Flag("--sessions", "serve.n_sessions", int),
    Flag("--duration", "serve.duration_s", help="simulated window in seconds"),
    Flag("--workers", "serve.n_workers", int),
    Flag("--seed", "seed", int,
         help="seeds both the fleet and the fault streams"),
    Flag("--drop-rate", "input_faults.frame_drop_rate",
         help="i.i.d. sensor frame-drop probability"),
    Flag("--noise-burst-rate", "input_faults.noise_burst_rate_hz",
         help="tracking noise bursts per second per session"),
    Flag("--occlusion-rate", "input_faults.occlusion_rate_hz",
         help="eyelid occlusion episodes per second per session"),
    Flag("--bit-error-rate", "input_faults.bit_error_rate",
         help="MIPI per-bit transient error probability"),
    Flag("--no-worker-faults", "no_worker_faults", bool,
         help="disable the crash/stall/spike schedule"),
    Flag("--soft-error-fit", "soft_error_fit",
         help="silicon soft-error FIT/Mbit rate composed onto "
         "the scenario (0 disables; see repro.reliability)"),
    Flag("--soft-error-accel", "soft_error_accel",
         help="soft-error acceleration factor (wall-time "
         "compression of the FIT rate)"),
    Flag("--fault-free", "fault_free", bool,
         help="disable every fault (baseline run)"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Run a seeded fault-injection scenario on the serving fleet.",
    )
    add_flags(parser, FLAGS)
    parser.add_argument("--compare-fault-free", action="store_true",
                        help="also run the zero-fault baseline and print the "
                        "degradation budget consumed")
    add_serving_arguments(parser)
    return parser


def _compare_fault_free(args, runtime, report) -> None:
    if not args.compare_fault_free or args.fault_free:
        return
    baseline = run_chaos(runtime.chaos.config.fault_free())
    print("\n--- fault-free baseline ---\n")
    print(format_fleet_report(baseline, max_session_rows=args.max_session_rows))
    miss = report.deadline_miss_rate
    base_miss = baseline.deadline_miss_rate
    ratio = miss / base_miss if base_miss > 0 else float("inf")
    print(
        f"\nDeadline misses under faults: {miss:.2%} vs {base_miss:.2%} "
        f"fault-free ({ratio:.2f}x)"
        if base_miss > 0
        else f"\nDeadline misses under faults: {miss:.2%} "
        f"(fault-free baseline missed none)"
    )


def main(argv: "list[str] | None" = None) -> int:
    return run_serving_cli(
        "chaos", build_parser(), FLAGS, argv, compare=_compare_fault_free
    )


if __name__ == "__main__":
    raise SystemExit(main())
