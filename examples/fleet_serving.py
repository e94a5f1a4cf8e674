"""Serve a fleet of gaze-tracked HMD sessions from a shared worker pool.

Walks through the serving runtime end to end:

1. sample N independent oculomotor traces and their Algorithm-1 path
   decisions — saccade/reuse frames are served on-device, only the
   predict-path skew reaches the pool;
2. run the discrete-event simulation with cross-session dynamic batching
   and admission control, then again with per-session dispatch
   (``max_batch=1``) on the *same* fleet;
3. sweep the admission policies to show the latency/goodput trade;
4. optionally drive real batched POLOViT inference through the loop.

Run:  python examples/fleet_serving.py [--sessions 32] [--with-model]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.serve import (
    AdmissionPolicy,
    BatchServiceModel,
    ServeConfig,
    build_fleet,
    format_fleet_report,
    serve_fleet,
)
from repro.system import table_to_text
from repro.system.session import PATHS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sessions", type=int, default=32)
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--with-model", action="store_true",
                        help="drive a real (compact) POLOViT through the loop")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    # A predict-heavy regime: with a 0.05 degree reuse threshold almost
    # every fixation frame needs fresh inference, so the pool is the
    # bottleneck and batching has something to amortize.
    config = ServeConfig(
        n_sessions=args.sessions,
        duration_s=args.seconds,
        n_workers=args.workers,
        reuse_displacement_deg=0.05,
        queue_budget_deadlines=0.8,
        seed=args.seed,
    )
    fleet = build_fleet(config)
    predict_load = sum(
        np.count_nonzero(PATHS[s.codes] == "predict") for s in fleet
    ) / config.duration_s
    service = BatchServiceModel()
    print(
        f"{args.sessions} sessions x {config.fps:.0f} fps for "
        f"{args.seconds:g}s -> {predict_load:.0f} predict frames/s offered; "
        f"one worker serves {service.throughput_fps(1):.0f}/s solo, "
        f"{service.throughput_fps(config.max_batch):.0f}/s at batch "
        f"{config.max_batch}\n"
    )

    print("=== cross-session batching ===")
    batched = serve_fleet(config, fleet=fleet)
    print(format_fleet_report(batched, max_session_rows=4))

    print("\n=== sequential baseline (max_batch=1) ===")
    sequential = serve_fleet(config.sequential_baseline(), fleet=fleet)
    print(format_fleet_report(sequential, max_session_rows=4))
    gain = batched.predict_goodput_fps / sequential.predict_goodput_fps
    print(f"\nBatching gain: {gain:.2f}x fresh predictions/s at "
          f"{batched.deadline_miss_rate:.2%} vs "
          f"{sequential.deadline_miss_rate:.2%} deadline misses")

    print("\n=== admission policy sweep ===")
    rows = []
    for policy in AdmissionPolicy:
        report = serve_fleet(
            ServeConfig(
                n_sessions=config.n_sessions,
                duration_s=config.duration_s,
                n_workers=config.n_workers,
                reuse_displacement_deg=config.reuse_displacement_deg,
                queue_budget_deadlines=config.queue_budget_deadlines,
                admission=policy,
                seed=config.seed,
            ),
            fleet=fleet,
        )
        rows.append([
            policy.value,
            f"{report.predict_goodput_fps:.0f}",
            f"{report.latency_percentile_ms(99):.2f}",
            f"{report.deadline_miss_rate:.2%}",
            f"{report.shed_rate:.2%}",
            f"{report.degrade_rate:.2%}",
        ])
    print(table_to_text(
        ["Policy", "Fresh/s", "p99(ms)", "Miss", "Shed", "Degraded"], rows
    ))

    if args.with_model:
        from repro.core import GazeViTConfig, PoloViT

        print("\n=== real batched POLOViT in the loop (tiny fleet) ===")
        vit = PoloViT(GazeViTConfig.compact(), seed=0)

        def frame_image(session_id: int, frame_index: int) -> np.ndarray:
            rng = np.random.default_rng(session_id * 100003 + frame_index)
            return rng.uniform(size=(72, 72))

        def inference(batch):
            images = np.stack(
                [frame_image(r.session_id, r.frame_index) for r in batch]
            )
            return vit.predict(images, prune=False)

        tiny = ServeConfig(n_sessions=4, duration_s=0.25, seed=args.seed)
        report = serve_fleet(tiny, inference=inference)
        assert report.predictions is not None
        print(f"{len(report.predictions)} frames received fresh gaze "
              f"predictions from the model; first three:")
        for key in sorted(report.predictions)[:3]:
            gaze = report.predictions[key]
            print(f"  session {key[0]} frame {key[1]:3d} -> "
                  f"({gaze[0]:+.3f}, {gaze[1]:+.3f})")


if __name__ == "__main__":
    main()
