"""``python -m repro trace`` — run a traced workload and export artifacts.

Runs a fleet-serving simulation (optionally the chaos scenario) with
observability enabled, plus one exemplar per-path accelerator stage
trace and one TFR frame layout, then writes:

* ``trace.json``  — Chrome ``trace_event`` JSON; load it in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.
* ``trace.jsonl`` — one span per line for grep/jq.
* ``metrics.prom`` — the metrics registry in Prometheus text format.

and prints the top-K slowest spans.  Every span is timed by a
simulation's own clock, so the artifacts are byte-identical across
runs of the same flags — the obs-smoke CI job diffs two runs to prove
it.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from repro.experiments.profiles import POLO_PATHS, polo_path_reports
from repro.obs.config import Obs
from repro.obs.export import slowest_spans_table, write_chrome_trace, write_jsonl
from repro.obs.tracer import PID_ACCEL, PID_TFR
from repro.recover.codec import config_hash
from repro.recover.kinds import build_runtime, resolve_run_config
from repro.render.scene import RES_1080P, scene_by_name
from repro.serve.config import ServeConfig
from repro.system import Schedule, TfrSystem, TrackerSystemProfile


def add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """``--obs`` flags shared by the serving CLIs and ``recover``."""
    group = parser.add_argument_group("observability")
    group.add_argument("--obs", action="store_true",
                       help="enable tracing + metrics for this run")
    group.add_argument("--obs-out", type=Path, default=None,
                       metavar="DIR",
                       help="directory for trace.json / trace.jsonl / "
                       "metrics.prom (with --obs); defaults to "
                       "obs-out/<kind>-<config-hash> so runs that differ "
                       "in any knob (seed included) never share artifacts")
    group.add_argument("--obs-top", type=int, default=10, metavar="K",
                       help="print the K slowest spans (with --obs)")


def obs_from_args(args: argparse.Namespace) -> "Obs | None":
    return Obs() if args.obs else None


def add_slo_arguments(parser: argparse.ArgumentParser) -> None:
    """``--slo`` flag shared by the serving CLIs and ``sdc``."""
    group = parser.add_argument_group("slo")
    group.add_argument("--slo", default=None, metavar="CONFIG",
                       help="evaluate SLOs for this run: 'default' for the "
                       "built-in latency objective or a *.slo.json file "
                       "(see repro.obs.slo)")


def emit_slo_artifacts(engine, out_dir: Path) -> None:
    """Write the SLO evaluation history + verdicts next to the trace."""
    out_dir.mkdir(parents=True, exist_ok=True)
    history_path = out_dir / "slo.jsonl"
    history_path.write_text(engine.history_jsonl())
    verdict_path = out_dir / "slo_verdicts.json"
    verdict_path.write_text(engine.verdicts_json())
    print(f"wrote {history_path}")
    print(f"wrote {verdict_path}")


def resolve_obs_out(out: "Path | None", kind: str, resolved_config: dict) -> Path:
    """The artifact directory for one observed run.

    An explicit ``--obs-out`` wins; otherwise the directory is
    namespaced by the run's canonical config hash, so campaign fan-outs
    (e.g. seeds 0..N of one sweep) cannot clobber each other's
    ``trace.json`` / ``metrics.prom``.
    """
    if out is not None:
        return out
    return Path("obs-out") / f"{kind}-{config_hash(resolved_config)}"


def emit_obs_artifacts(obs: Obs, out_dir: Path, top_k: int = 10) -> None:
    """Write the three artifacts and print the slowest-spans table."""
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = write_chrome_trace(obs.tracer, out_dir / "trace.json")
    jsonl_path = write_jsonl(obs.tracer, out_dir / "trace.jsonl")
    prom_path = out_dir / "metrics.prom"
    prom_path.write_text(obs.metrics.to_prometheus())
    n_spans = len(obs.tracer.spans())
    print(f"\n--- obs: {n_spans} spans "
          f"({obs.tracer.dropped} dropped at ring capacity) ---")
    print(f"wrote {trace_path}  (Perfetto / chrome://tracing)")
    print(f"wrote {jsonl_path}")
    print(f"wrote {prom_path}")
    print(f"\nTop {top_k} slowest spans:")
    print(slowest_spans_table(obs.tracer, k=top_k))


def _trace_accelerator_and_tfr(obs: Obs) -> None:
    """One exemplar per-path accelerator stage trace + TFR frame layout.

    Purely analytic (paper-scale workloads, no training), so the spans
    are deterministic; they showcase the accel/tfr span taxonomy on
    their own tracks alongside the serving trace.
    """
    tracer = obs.tracer
    tracer.declare_track(PID_ACCEL, "accelerator", thread_name="stages")
    tracer.declare_track(PID_ACCEL, "accelerator", tid=1, thread_name="vit-engines")
    tracer.declare_track(PID_TFR, "tfr", thread_name="chain")
    tracer.declare_track(PID_TFR, "tfr", tid=1, thread_name="render")

    reports = polo_path_reports(tracer=tracer)
    profile = TrackerSystemProfile(
        name="POLO",
        td_predict_s=reports["predict"].latency_s,
        delta_theta_deg=1.15,
        td_saccade_s=reports["saccade"].latency_s,
        td_reuse_s=reports["reuse"].latency_s,
    )
    tfr = TfrSystem()
    scene = scene_by_name("D")
    t = 0.0
    for path in POLO_PATHS:
        latency = tfr.frame_latency(
            profile, scene, RES_1080P, path, Schedule.PARALLEL,
            tracer=tracer, t0_s=t,
        )
        t += latency.total_s


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run a traced serving simulation and export "
        "trace.json / trace.jsonl / metrics.prom.",
    )
    parser.add_argument("--frames", type=int, default=200,
                        help="frames per session (duration = frames / fps)")
    parser.add_argument("--sessions", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--chaos", action="store_true",
                        help="trace the fault-injection scenario instead of "
                        "the clean serving loop")
    parser.add_argument("--out", type=Path, default=Path("obs-out"),
                        metavar="DIR")
    parser.add_argument("--top", type=int, default=10, metavar="K",
                        help="print the K slowest spans")
    parser.add_argument("--no-hw", action="store_true",
                        help="skip the exemplar accelerator/TFR stage traces")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    obs = Obs()
    try:
        serve = {
            "n_sessions": args.sessions,
            "n_workers": args.workers,
            "duration_s": args.frames / ServeConfig().fps,
        }
        if args.chaos:
            resolved = resolve_run_config(
                "chaos", {"seed": args.seed, "serve": serve}
            )
        else:
            resolved = resolve_run_config("serve", {**serve, "seed": args.seed})
        report = build_runtime(resolved, obs=obs).run()
        if not args.no_hw:
            _trace_accelerator_and_tfr(obs)
    except ValueError as err:
        parser.error(str(err))
    summary = report.summary()
    print(
        f"traced {args.sessions} sessions x {args.frames} frames "
        f"({'chaos' if args.chaos else 'serve'}): "
        f"goodput {summary['predict_goodput_fps']:.0f} fresh predictions/s, "
        f"p95 {summary['p95_ms']:.2f} ms"
    )
    emit_obs_artifacts(obs, args.out, top_k=args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
