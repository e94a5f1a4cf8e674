"""``python -m repro sdc`` — soft-error resilience campaign.

Sweeps FIT rates and compares the unprotected datapath, ABFT-protected
GEMMs, and the guard-only configuration on detection coverage, residual
gaze error, and the measured accelerator cycle overhead of protection.
The printed report is byte-identical across runs of the same flags —
the ``sdc-smoke`` CI job runs it twice and diffs the output.
"""

from __future__ import annotations

import argparse

from repro.obs.cli import add_slo_arguments
from repro.obs.slo import (
    SloConfigError,
    evaluate_summary,
    format_summary_verdicts,
    load_slo_config,
)
from repro.recover.configio import decode, encode
from repro.reliability.campaign import (
    PROTECTIONS,
    SdcCampaignConfig,
    SdcReport,
    default_sdc_campaign,
    format_sdc_report,
    run_sdc_campaign,
    sdc_summary_metrics,
)


# ----------------------------------------------------------------------
# Campaign entry point (repro.exp)
# ----------------------------------------------------------------------
def resolve_run_config(params: dict) -> dict:
    """Validate campaign params -> the fully resolved canonical dict.

    Params are :class:`SdcCampaignConfig` field overrides
    (``fit_rates`` / ``protections`` accept lists); the resolved dict
    spells out every field so the config hash is spelling-independent.
    """
    try:
        config = decode(SdcCampaignConfig, params)
    except TypeError as err:
        raise ValueError(f"bad sdc params: {err}") from err
    return {"kind": "sdc", "config": encode(config)}


def run_from_config(params: dict) -> SdcReport:
    """Campaign entry point: params dict -> the campaign's SdcReport."""
    resolved = resolve_run_config(params)
    return run_sdc_campaign(decode(SdcCampaignConfig, resolved["config"]))


def build_parser() -> argparse.ArgumentParser:
    base = default_sdc_campaign()
    parser = argparse.ArgumentParser(
        prog="python -m repro sdc",
        description="Run the seeded soft-error / SDC resilience campaign.",
    )
    parser.add_argument(
        "--fit", type=float, nargs="+", default=list(base.fit_rates),
        help="FIT/Mbit rates to sweep",
    )
    parser.add_argument(
        "--protection", choices=PROTECTIONS, nargs="+",
        default=list(base.protections),
        help="protection configurations to compare",
    )
    parser.add_argument("--frames", type=int, default=base.n_frames,
                        help="campaign length in frames")
    parser.add_argument("--fps", type=float, default=base.fps)
    parser.add_argument("--accel", type=float, default=base.acceleration,
                        help="soft-error acceleration factor")
    parser.add_argument("--seed", type=int, default=base.seed,
                        help="seeds the gaze trajectory and fault schedules")
    add_slo_arguments(parser)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = SdcCampaignConfig(
            fit_rates=tuple(args.fit),
            protections=tuple(args.protection),
            n_frames=args.frames,
            fps=args.fps,
            acceleration=args.accel,
            seed=args.seed,
        )
    except ValueError as err:
        parser.error(str(err))
    # The campaign has no online event stream, so --slo here means
    # summary objectives only: thresholds over the final flat metrics.
    summary_objectives = None
    if args.slo is not None:
        if args.slo == "default":
            parser.error("--slo default has no sdc objectives; pass a "
                         "*.slo.json with summary_objectives")
        try:
            slo_config = load_slo_config(args.slo)
        except SloConfigError as err:
            parser.error(str(err))
        if slo_config.objectives:
            parser.error("sdc --slo supports summary_objectives only "
                         "(the campaign has no online event stream)")
        summary_objectives = slo_config.summary_objectives
    report = run_sdc_campaign(config)
    print(format_sdc_report(report))
    if summary_objectives is not None:
        rows = evaluate_summary(summary_objectives, sdc_summary_metrics(report))
        print("\n--- SLO verdicts ---\n")
        print(format_summary_verdicts(rows))
        if any(not row["ok"] for row in rows):
            return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
