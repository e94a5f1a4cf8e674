"""Benchmark suites as plain callables, shared with the pytest benches.

Each suite runs its (deterministic) simulation workload, builds the
exact snapshot payload the pytest benchmarks have always written to
``BENCH_<name>.json``, and flattens it into the one-level metrics dict
the history ledger, trend view, and regression gate consume.  Keeping
both representations derived from one run is what lets the tracked
history be backfilled from old snapshots byte-for-value.

The flattened names are what :mod:`repro.obs.directions` declares
directions for (``fleet64_p95_ms``, ``abft_fit800_coverage``, ...);
``wall_s`` is carried for the record but deliberately never gated.
"""

from __future__ import annotations

import time

from repro.serve.config import ServeConfig

#: Predict-heavy regime of the serve scaling bench: a tiny reuse
#: threshold pushes nearly every non-saccade frame onto the inference
#: pool, and the admission budget stays inside the frame deadline.
BASE = ServeConfig(
    n_sessions=32,
    duration_s=1.0,
    n_workers=1,
    reuse_displacement_deg=0.05,
    queue_budget_deadlines=0.8,
    seed=0,
)

FLEET_SIZES = (8, 16, 32, 64)


def run_serve_scaling() -> "tuple[list, float]":
    """The cross-session batching sweep: per fleet size, the batched
    runtime vs the sequential baseline on the identical fleet.

    Returns ``([(n, batched_report, sequential_report), ...], wall_s)``.
    """
    from repro.serve.request import build_fleet
    from repro.serve.runtime import serve_fleet

    t0 = time.perf_counter()
    rows = []
    for n in FLEET_SIZES:
        config = ServeConfig(
            n_sessions=n,
            duration_s=BASE.duration_s,
            n_workers=BASE.n_workers,
            reuse_displacement_deg=BASE.reuse_displacement_deg,
            queue_budget_deadlines=BASE.queue_budget_deadlines,
            seed=BASE.seed,
        )
        fleet = build_fleet(config)
        batched = serve_fleet(config, fleet=fleet)
        sequential = serve_fleet(config.sequential_baseline(), fleet=fleet)
        rows.append((n, batched, sequential))
    return rows, time.perf_counter() - t0


def serve_payload(rows: list, wall_s: float) -> dict:
    """The ``BENCH_serve.json`` snapshot payload (unchanged shape)."""
    return {
        "bench": "serve_scaling",
        "wall_s": round(wall_s, 3),
        "fleets": [
            {
                "sessions": n,
                "goodput_fps": batched.predict_goodput_fps,
                "sequential_goodput_fps": sequential.predict_goodput_fps,
                "p95_ms": batched.latency_percentile_ms(95),
                "miss_rate": batched.deadline_miss_rate,
                "mean_batch": batched.mean_batch_size,
            }
            for n, batched, sequential in rows
        ],
    }


def flatten_serve_payload(payload: dict) -> "dict[str, float]":
    """Snapshot payload -> one-level ledger metrics (``fleet<N>_*``)."""
    metrics: dict[str, float] = {"wall_s": float(payload["wall_s"])}
    for fleet in payload["fleets"]:
        n = fleet["sessions"]
        for key in (
            "goodput_fps", "sequential_goodput_fps", "p95_ms",
            "miss_rate", "mean_batch",
        ):
            metrics[f"fleet{n}_{key}"] = float(fleet[key])
    return metrics


def run_sdc_resilience() -> "tuple[object, float]":
    """The default SDC campaign; returns ``(report, wall_s)``."""
    from repro.reliability.campaign import default_sdc_campaign, run_sdc_campaign

    t0 = time.perf_counter()
    report = run_sdc_campaign(default_sdc_campaign())
    return report, time.perf_counter() - t0


def sdc_payload(report, wall_s: float) -> dict:
    """The ``BENCH_sdc.json`` snapshot payload (unchanged shape)."""
    return {
        "bench": "sdc_resilience",
        "wall_s": round(wall_s, 3),
        "cycle_overhead": report.cycle_overhead,
        "runs": [run.as_dict() for run in report.runs],
    }


def flatten_sdc_payload(payload: dict) -> "dict[str, float]":
    """Snapshot payload -> one-level ledger metrics
    (``<protection>_fit<rate>_*`` plus the campaign aggregates)."""
    metrics: dict[str, float] = {
        "wall_s": float(payload["wall_s"]),
        "cycle_overhead": float(payload["cycle_overhead"]),
    }
    for run in payload["runs"]:
        prefix = f"{run['protection']}_fit{run['fit_per_mbit']:g}"
        for key in (
            "coverage", "escaped_sdc", "detected", "corrected",
            "recomputed", "p95_error_deg", "mean_error_deg",
            "corrupted_frames", "injected",
        ):
            metrics[f"{prefix}_{key}"] = float(run[key])
    return metrics


def run_fleet_failover() -> "tuple[object, float]":
    """The sharded-fleet failover bench: four shards, one killed mid-run.

    Returns ``(fleet_report, wall_s)``.
    """
    from repro.faults.netfaults import ShardKill
    from repro.serve.fleet import FleetConfig, run_fleet

    t0 = time.perf_counter()
    config = FleetConfig(
        serve=ServeConfig(
            n_sessions=96,
            duration_s=BASE.duration_s,
            n_workers=BASE.n_workers,
            reuse_displacement_deg=BASE.reuse_displacement_deg,
            queue_budget_deadlines=BASE.queue_budget_deadlines,
            seed=BASE.seed,
        ),
        n_shards=4,
        kills=(ShardKill(shard_id=2, at_s=0.5),),
    )
    report = run_fleet(config)
    return report, time.perf_counter() - t0


def fleet_payload(report, wall_s: float) -> dict:
    """The ``BENCH_fleet.json`` snapshot payload."""
    summary = report.summary()
    shards = report.shards.summary()
    return {
        "bench": "fleet_failover",
        "wall_s": round(wall_s, 3),
        "sessions": len(report.sessions),
        "goodput_fps": summary["predict_goodput_fps"],
        "p95_ms": summary["p95_ms"],
        "miss_rate": summary["miss_rate"],
        "degrade_rate": summary["degrade_rate"],
        "worker_utilization": summary["worker_utilization"],
        "failover_lost_frames": shards["failover_lost_frames"],
        "rehomed_sessions": shards["rehomed_sessions"],
        "shards_serving": shards["shards_serving"],
    }


def flatten_fleet_payload(payload: dict) -> "dict[str, float]":
    """Snapshot payload -> one-level ledger metrics (already flat; the
    ``bench`` id and session count are identity, not metrics)."""
    return {
        key: float(payload[key])
        for key in (
            "wall_s", "goodput_fps", "p95_ms", "miss_rate", "degrade_rate",
            "worker_utilization", "failover_lost_frames", "rehomed_sessions",
            "shards_serving",
        )
    }


#: Partition lengths of the net transport bench (seconds of blackout on
#: shard 1, starting at 0.2s into the run).
PARTITION_LENGTHS = (0.05, 0.15, 0.25)


def run_net_transport() -> "tuple[list, float]":
    """The lossy-transport bench: one lossy fleet per partition length.

    Every cell runs the identical 24-session / 3-shard fleet over a
    dropping, duplicating, jittering channel and cuts shard 1 off the
    router for ``L`` seconds — measuring what the protocol pays
    (retransmit overhead), what it saves (zero lost frames), and how
    fast a false suspicion heals.  Returns
    ``([(L, fleet_report), ...], wall_s)``.
    """
    from repro.faults.netfaults import LinkProfile, PartitionWindow
    from repro.serve.fleet import FleetConfig, NetConfig, run_fleet

    t0 = time.perf_counter()
    rows = []
    for length_s in PARTITION_LENGTHS:
        config = FleetConfig(
            serve=ServeConfig(
                n_sessions=24,
                duration_s=0.6,
                n_workers=1,
                reuse_displacement_deg=BASE.reuse_displacement_deg,
                queue_budget_deadlines=BASE.queue_budget_deadlines,
                seed=BASE.seed,
            ),
            n_shards=3,
            net=NetConfig(
                enabled=True,
                seed=1,
                link=LinkProfile(
                    drop_rate=0.1, dup_rate=0.1, delay_s=5e-4, jitter_s=1e-3
                ),
                partitions=(
                    PartitionWindow(
                        start_s=0.2,
                        stop_s=0.2 + length_s,
                        shard_ids=(1,),
                    ),
                ),
                ack_timeout_s=4e-3,
                max_retransmits=8,
            ),
        )
        rows.append((length_s, run_fleet(config)))
    return rows, time.perf_counter() - t0


def net_payload(rows: list, wall_s: float) -> dict:
    """The ``BENCH_net.json`` snapshot payload."""
    windows = []
    for length_s, report in rows:
        summary = report.summary()
        counters = report.net.counters
        stop_s = 0.2 + length_s
        heals = [
            t["at_s"] for t in report.net.transitions
            if t["kind"] == "heal" and t["shard"] == 1
        ]
        first_sends = counters["data_sent"] - counters["retransmits"]
        windows.append(
            {
                "partition_s": length_s,
                "retransmit_overhead": counters["retransmits"] / first_sends,
                "frames_lost": float(
                    sum(s.lost_net + s.lost_shard for s in report.sessions)
                ),
                "deduped": counters["frames_deduped"],
                "suspected": counters["suspected"],
                "bounced": counters["heal_bounce_sessions"],
                "heal_s": (heals[0] - stop_s) if heals else 0.0,
                "goodput_fps": summary["predict_goodput_fps"],
                "p95_ms": summary["p95_ms"],
            }
        )
    return {
        "bench": "net_transport",
        "wall_s": round(wall_s, 3),
        "windows": windows,
    }


def flatten_net_payload(payload: dict) -> "dict[str, float]":
    """Snapshot payload -> one-level ledger metrics (``part<L>ms_*``)."""
    metrics: dict[str, float] = {"wall_s": float(payload["wall_s"])}
    for window in payload["windows"]:
        prefix = f"part{int(round(window['partition_s'] * 1000))}ms"
        for key in (
            "retransmit_overhead", "frames_lost", "deduped", "suspected",
            "bounced", "heal_s", "goodput_fps", "p95_ms",
        ):
            metrics[f"{prefix}_{key}"] = float(window[key])
    return metrics


def _suite_serve() -> "tuple[dict, dict]":
    rows, wall_s = run_serve_scaling()
    payload = serve_payload(rows, wall_s)
    return payload, flatten_serve_payload(payload)


def _suite_sdc() -> "tuple[dict, dict]":
    report, wall_s = run_sdc_resilience()
    payload = sdc_payload(report, wall_s)
    return payload, flatten_sdc_payload(payload)


def _suite_fleet() -> "tuple[dict, dict]":
    report, wall_s = run_fleet_failover()
    payload = fleet_payload(report, wall_s)
    return payload, flatten_fleet_payload(payload)


def _suite_net() -> "tuple[dict, dict]":
    rows, wall_s = run_net_transport()
    payload = net_payload(rows, wall_s)
    return payload, flatten_net_payload(payload)


#: Suite name -> zero-arg callable returning ``(payload, metrics)``.
#: The suite name doubles as the snapshot file suffix
#: (``BENCH_<name>.json``); the payload's ``"bench"`` field is the
#: history record's bench id.
SUITES = {
    "serve": _suite_serve,
    "sdc": _suite_sdc,
    "fleet": _suite_fleet,
    "net": _suite_net,
}
