"""Per-session and fleet-level telemetry of a serving run.

Reuses the system layer's metric conventions: latencies in seconds with
millisecond formatting (``repro.system.metrics``), the shared
:func:`~repro.system.metrics.percentile_summary` implementation for
every percentile in a report, and the aligned-text table renderer.

When a run is observed (``repro.obs``), the runtime publishes live into
a :class:`~repro.obs.metrics.MetricsRegistry` through
:class:`ServeInstruments`; :func:`publish_fleet_metrics` adds the
end-of-run aggregates so the registry — not a re-walk of these
accumulators — is the single source of the exported ``metrics.prom``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.recover.configio import decode_into, encode
from repro.system.metrics import (
    fmt_ms,
    percentile_key,
    percentile_summary,
    table_to_text,
)


@dataclass
class SessionStats:
    """Accumulators for one client session.

    Every generated frame lands in exactly one terminal bucket —
    completed (a latency sample), shed, pending-at-shutdown, or lost to an
    input fault before it could arrive — so ``total_frames`` is exact
    conservation, never an estimate.
    """

    session_id: int
    latencies_s: list[float] = field(default_factory=list)
    misses: int = 0
    shed: int = 0
    degraded: int = 0
    pending: int = 0
    lost_input: int = 0
    #: Frames that were physically on a shard (queued or in flight on a
    #: worker) when it was killed — the *only* frames a shard failover
    #: may lose (the bounded-loss guarantee of ``repro.serve.fleet``).
    lost_shard: int = 0
    #: Frames the lossy transport gave up on (every retransmit dropped)
    #: under the ``on_exhaust="drop"`` policy — the only frames the net
    #: layer may lose, and only when the policy says so.
    lost_net: int = 0
    #: Per-path frame counts.  Degraded frames get their *own* bucket —
    #: they are served by the reuse mechanism but are not reuse-path
    #: decisions, so attributing them to "reuse" would over-count that
    #: path in every report.  Invariant (asserted by tests):
    #: ``sum(counts.values()) == completed + shed + pending``.
    counts: dict[str, int] = field(
        default_factory=lambda: {
            "saccade": 0,
            "reuse": 0,
            "predict": 0,
            "degraded": 0,
        }
    )

    @property
    def completed(self) -> int:
        return len(self.latencies_s)

    @property
    def total_frames(self) -> int:
        return (
            self.completed
            + self.shed
            + self.pending
            + self.lost_input
            + self.lost_shard
            + self.lost_net
        )

    def record(self, path: str, latency_s: float, deadline_s: float) -> None:
        self.counts[path] = self.counts.get(path, 0) + 1
        self.latencies_s.append(latency_s)
        if latency_s > deadline_s:
            self.misses += 1

    def record_degraded(self, latency_s: float, deadline_s: float) -> None:
        """A frame served from the buffered gaze instead of a fresh
        prediction (admission pressure, retry exhaustion, watchdog).

        Lands in the explicit ``"degraded"`` path bucket, not
        ``"reuse"`` — path-count sums stay exact.
        """
        self.degraded += 1
        self.record("degraded", latency_s, deadline_s)

    def record_shed(self, path: str) -> None:
        self.counts[path] = self.counts.get(path, 0) + 1
        self.shed += 1

    def record_pending(self, path: str) -> None:
        """A frame still queued when the run ended (flushed, not lost)."""
        self.counts[path] = self.counts.get(path, 0) + 1
        self.pending += 1

    def record_lost_input(self) -> None:
        """A frame the sensor never delivered (input-fault drop)."""
        self.lost_input += 1

    def record_lost_shard(self) -> None:
        """A frame that died with its shard (queued or in flight at the
        kill instant) — bounded failover loss, never a silent leak."""
        self.lost_shard += 1

    def record_lost_net(self) -> None:
        """A frame the transport exhausted its retransmits on under the
        ``on_exhaust="drop"`` policy — accounted, never silently leaked."""
        self.lost_net += 1

    def percentile_ms(self, q: float) -> float:
        if not self.latencies_s:
            raise ValueError(f"session {self.session_id} has no completed frames")
        return percentile_summary(self.latencies_s, (q,))[percentile_key(q)] * 1e3

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.recover)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return encode(self)

    def load_state(self, state: dict, path: str = "") -> None:
        slot = self.session_id
        decode_into(self, state, path)
        if self.session_id != slot:
            raise ValueError(
                f"snapshot session {self.session_id} does not match "
                f"stats slot {slot}"
            )

    @property
    def miss_rate(self) -> float:
        return self.misses / self.completed if self.completed else 0.0


def new_ledger(sessions) -> "dict[int, SessionStats]":
    """A fresh session ledger: one :class:`SessionStats` per session,
    keyed by session id.  A serving run has exactly one, owned by its
    runtime (by the fleet, for a sharded run) and never moved."""
    return {s.session_id: SessionStats(s.session_id) for s in sessions}


@dataclass
class FaultReport:
    """Fault-injection and degradation telemetry of one chaos run.

    Populated by a chaos run's ``repro.faults.ChaosModel``; attached to the
    :class:`FleetReport` so fault accounting travels with the serving
    numbers it explains.  Everything here is derived from seeded streams
    and deterministic event ordering — two runs of the same scenario
    produce equal reports (the chaos-smoke CI job asserts exactly that).
    """

    # Input faults (sensor / link / eye).
    input_dropped: int = 0
    noise_burst_frames: int = 0
    occluded_frames: int = 0
    mipi_corrupted_frames: int = 0
    # Serving faults and recovery.
    batch_failures: int = 0
    worker_crash_failures: int = 0
    worker_stall_timeouts: int = 0
    frames_requeued: int = 0
    retries_scheduled: int = 0
    retry_exhausted_degraded: int = 0
    deadline_degraded: int = 0
    occlusion_degraded: int = 0
    breaker_transitions: list[tuple[float, int, str, str]] = field(
        default_factory=list
    )  # (time_s, worker_id, from_state, to_state)
    # Watchdog degradation.
    degradation_transitions: list[tuple[float, int, str, str]] = field(
        default_factory=list
    )  # (time_s, session_id, from_level, to_level)
    degradation_dwell_s: dict[str, float] = field(default_factory=dict)
    watchdog_reuse_frames: int = 0
    watchdog_full_res_frames: int = 0
    widened_delta_theta_deg: float = 0.0
    # Silicon soft errors and the SDC guard (repro.reliability): upsets
    # applied to the tracker datapath, how many the plausibility gate
    # caught (detected), resolved by a clean recompute, degraded to gaze
    # reuse, or let through as silent data corruption.
    soft_errors_injected: int = 0
    sdc_detected: int = 0
    sdc_recomputed: int = 0
    sdc_fallback_degraded: int = 0
    sdc_escaped: int = 0

    @property
    def breaker_opens(self) -> int:
        return sum(1 for _, _, _, to in self.breaker_transitions if to == "OPEN")

    def summary(self) -> dict[str, float]:
        return {
            "input_dropped": float(self.input_dropped),
            "occluded_frames": float(self.occluded_frames),
            "mipi_corrupted": float(self.mipi_corrupted_frames),
            "batch_failures": float(self.batch_failures),
            "frames_requeued": float(self.frames_requeued),
            "retry_exhausted": float(self.retry_exhausted_degraded),
            "deadline_degraded": float(self.deadline_degraded),
            "occlusion_degraded": float(self.occlusion_degraded),
            "breaker_opens": float(self.breaker_opens),
            "watchdog_reuse": float(self.watchdog_reuse_frames),
            "watchdog_full_res": float(self.watchdog_full_res_frames),
            "soft_errors_injected": float(self.soft_errors_injected),
            "sdc_detected": float(self.sdc_detected),
            "sdc_recomputed": float(self.sdc_recomputed),
            "sdc_fallback_degraded": float(self.sdc_fallback_degraded),
            "sdc_escaped": float(self.sdc_escaped),
            "widened_delta_theta_deg": self.widened_delta_theta_deg,
        }


@dataclass
class FleetReport:
    """Aggregate results of one serving simulation."""

    sessions: list[SessionStats]
    duration_s: float
    deadline_s: float
    batch_occupancy: dict[int, int]
    worker_utilization: float
    mean_batch_size: float
    n_workers: int
    max_batch: int
    predictions: "dict[tuple[int, int], np.ndarray] | None" = None
    faults: "FaultReport | None" = None
    #: Sharded-fleet section (``repro.serve.fleet.FleetSection``): per-
    #: shard rows plus the migration/failover/rebalance event log.  Duck-
    #: typed (``format()``; encoded as a dataclass) so single-runtime reports
    #: never import the fleet package; ``None`` outside fleet runs.
    shards: "object | None" = None
    #: Net-transport section (``repro.serve.fleet.NetSection``): protocol
    #: counters, detector transitions, detection latencies.  Duck-typed
    #: like ``shards``; ``None`` unless the run used the lossy transport.
    net: "object | None" = None

    # ------------------------------------------------------------------
    # Fleet aggregates
    # ------------------------------------------------------------------
    @property
    def all_latencies_s(self) -> np.ndarray:
        merged = [lat for s in self.sessions for lat in s.latencies_s]
        return np.asarray(merged, dtype=np.float64)

    @property
    def completed_frames(self) -> int:
        return sum(s.completed for s in self.sessions)

    @property
    def total_frames(self) -> int:
        return sum(s.total_frames for s in self.sessions)

    @property
    def pending_at_shutdown(self) -> int:
        """Frames still queued when the run ended (flushed and accounted,
        not silently dropped)."""
        return sum(s.pending for s in self.sessions)

    @property
    def lost_input_frames(self) -> int:
        """Frames the sensors never delivered (input-fault drops)."""
        return sum(s.lost_input for s in self.sessions)

    @property
    def lost_shard_frames(self) -> int:
        """Frames that died with a killed shard (bounded failover loss)."""
        return sum(s.lost_shard for s in self.sessions)

    @property
    def lost_net_frames(self) -> int:
        """Frames the transport exhausted under ``on_exhaust="drop"``."""
        return sum(s.lost_net for s in self.sessions)

    @property
    def served_predict_frames(self) -> int:
        """Fresh predictions actually served (degraded frames sit in
        their own bucket; shed and pending-at-shutdown predict frames
        are not served)."""
        return (
            sum(s.counts["predict"] for s in self.sessions)
            - sum(s.shed for s in self.sessions)
            - sum(s.pending for s in self.sessions)
        )

    @property
    def throughput_fps(self) -> float:
        """Completed frames (all paths) per simulated second."""
        return self.completed_frames / self.duration_s

    @property
    def predict_goodput_fps(self) -> float:
        """Fresh predictions served per simulated second — the number
        cross-session batching exists to raise."""
        return self.served_predict_frames / self.duration_s

    def latency_percentile_ms(self, q: float) -> float:
        latencies = self.all_latencies_s
        if latencies.size == 0:
            raise ValueError("no completed frames in the fleet")
        return percentile_summary(latencies, (q,))[percentile_key(q)] * 1e3

    @property
    def deadline_miss_rate(self) -> float:
        completed = self.completed_frames
        return sum(s.misses for s in self.sessions) / completed if completed else 0.0

    @property
    def shed_rate(self) -> float:
        total = self.total_frames
        return sum(s.shed for s in self.sessions) / total if total else 0.0

    @property
    def degrade_rate(self) -> float:
        total = self.total_frames
        return sum(s.degraded for s in self.sessions) / total if total else 0.0

    def summary(self) -> dict[str, float]:
        tails = percentile_summary(self.all_latencies_s, (50, 95, 99))
        return {
            "sessions": float(len(self.sessions)),
            "throughput_fps": self.throughput_fps,
            "predict_goodput_fps": self.predict_goodput_fps,
            "p50_ms": tails["p50"] * 1e3,
            "p95_ms": tails["p95"] * 1e3,
            "p99_ms": tails["p99"] * 1e3,
            "miss_rate": self.deadline_miss_rate,
            "shed_rate": self.shed_rate,
            "degrade_rate": self.degrade_rate,
            "worker_utilization": self.worker_utilization,
            "mean_batch": self.mean_batch_size,
        }


def predictions_state(predictions) -> "list | None":
    """``(session, frame) -> gaze`` predictions as sorted ``[session,
    frame, gaze]`` rows (None stays None)."""
    if predictions is None:
        return None
    return [
        [sid, frame, gaze.tolist()] for (sid, frame), gaze in sorted(predictions.items())
    ]


def fleet_report_state(report: FleetReport) -> dict:
    """Canonical JSON-safe form of a :class:`FleetReport`.

    Two reports serialize to equal bytes (via ``repro.recover.codec``)
    iff every session accumulator, pool statistic, prediction, and fault
    counter is identical — the bit-identity oracle the crash-recovery
    acceptance tests byte-diff.
    """
    return {
        "sessions": encode(report.sessions, list[SessionStats]),
        "duration_s": report.duration_s,
        "deadline_s": report.deadline_s,
        "batch_occupancy": sorted(report.batch_occupancy.items()),
        "worker_utilization": report.worker_utilization,
        "mean_batch_size": report.mean_batch_size,
        "n_workers": report.n_workers,
        "max_batch": report.max_batch,
        "predictions": predictions_state(report.predictions),
        "faults": encode(report.faults),
        # Key present only on fleet runs so single-runtime report bytes
        # (and every pinned byte-diff built on them) are unchanged.
        **({} if report.shards is None else {"shards": encode(report.shards)}),
        **({} if report.net is None else {"net": encode(report.net)}),
    }


# ----------------------------------------------------------------------
# Metrics-registry publishing (repro.obs)
# ----------------------------------------------------------------------
#: Batch sizes are small integers; these buckets resolve them exactly up
#: to 8 and coarsely beyond.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0, 32.0, 64.0)


class ServeInstruments:
    """The live instruments an observed serving run publishes into.

    Created once per run so the hot loop increments pre-resolved
    instruments instead of re-keying the registry per frame.
    """

    def __init__(self, metrics: MetricsRegistry):
        self.metrics = metrics
        self.frames = {
            path: metrics.counter(
                "serve_frames_total", "Completed frames by serving path", path=path
            )
            for path in ("saccade", "reuse", "predict", "degraded", "full_res")
        }
        self.latency = metrics.histogram(
            "serve_frame_latency_seconds", "End-to-end frame latency"
        )
        self.queue_wait = metrics.histogram(
            "serve_queue_wait_seconds", "Batcher wait of dispatched predict frames"
        )
        self.batch_size = metrics.histogram(
            "serve_batch_size", "Dispatched batch sizes", buckets=BATCH_SIZE_BUCKETS
        )
        self.batches = metrics.counter("serve_batches_total", "Batches dispatched")
        self.misses = metrics.counter(
            "serve_deadline_miss_total", "Frames completed past their deadline"
        )
        self.shed = metrics.counter(
            "serve_shed_total", "Frames shed by admission control"
        )
        self.degraded = metrics.counter(
            "serve_degraded_total", "Frames degraded to the buffered gaze"
        )

    def frame_counter(self, path: str):
        counter = self.frames.get(path)
        if counter is None:
            counter = self.metrics.counter(
                "serve_frames_total", "Completed frames by serving path", path=path
            )
            self.frames[path] = counter
        return counter


def publish_fault_metrics(faults: FaultReport, metrics: MetricsRegistry) -> None:
    """Fault/degradation telemetry -> registry (counters + dwell gauges)."""
    for key, value in faults.summary().items():
        if key == "widened_delta_theta_deg":
            metrics.gauge(
                "faults_widened_delta_theta_deg",
                "Worst foveal-radius operating point the watchdog commanded",
            ).set(value)
        else:
            counter = metrics.counter(f"faults_{key}_total")
            counter.inc(value - counter.value)
    for level, seconds in faults.degradation_dwell_s.items():
        metrics.gauge(
            "watchdog_dwell_seconds",
            "Fleet-total seconds spent at each degradation level",
            level=level,
        ).set(seconds)


def fleet_summary_metrics(report: FleetReport) -> dict[str, float]:
    """One flat metrics dict per run: the fleet summary plus, for chaos
    runs, the fault counters under a ``faults_`` prefix.

    This is the run identity every downstream consumer agrees on —
    ``repro.exp`` ledgers, summary-SLO verdicts (``--slo`` on the CLIs),
    and the bench history gate all read these names.
    """
    metrics = dict(report.summary())
    if report.faults is not None:
        for key, value in report.faults.summary().items():
            metrics[f"faults_{key}"] = value
    if report.shards is not None:
        metrics.update(report.shards.summary())
    if report.net is not None:
        for key, value in report.net.summary().items():
            metrics[f"net_{key}" if not key.startswith("net_") else key] = (
                value
            )
    return metrics


def publish_fleet_metrics(report: FleetReport, metrics: MetricsRegistry) -> None:
    """End-of-run aggregates -> registry.

    Together with the live :class:`ServeInstruments` stream this makes
    the registry the single source of the ``metrics.prom`` export.
    """
    gauges = (
        ("serve_sessions", float(len(report.sessions))),
        ("serve_duration_seconds", report.duration_s),
        ("serve_worker_utilization", report.worker_utilization),
        ("serve_mean_batch_size", report.mean_batch_size),
        ("serve_throughput_fps", report.throughput_fps),
        ("serve_predict_goodput_fps", report.predict_goodput_fps),
    )
    for name, value in gauges:
        metrics.gauge(name).set(value)
    pending = metrics.counter(
        "serve_pending_total", "Frames still queued at shutdown"
    )
    pending.inc(report.pending_at_shutdown - pending.value)
    lost = metrics.counter(
        "serve_lost_input_total", "Frames the sensors never delivered"
    )
    lost.inc(report.lost_input_frames - lost.value)
    if report.shards is not None:
        lost_shard = metrics.counter(
            "serve_lost_shard_total", "Frames lost with killed shards"
        )
        lost_shard.inc(report.lost_shard_frames - lost_shard.value)
        for name, value in report.shards.summary().items():
            metrics.gauge(f"fleet_{name}").set(float(value))
    if report.net is not None:
        lost_net = metrics.counter(
            "serve_lost_net_total", "Frames lost to transport exhaustion"
        )
        lost_net.inc(report.lost_net_frames - lost_net.value)
        for name, value in report.net.summary().items():
            name = name if name.startswith("net_") else f"net_{name}"
            if name.endswith("_total"):
                # Live counters (transport, detector) already own these
                # names: bring them up to the end-of-run value.
                counter = metrics.counter(name)
                counter.inc(value - counter.value)
            else:
                metrics.gauge(name).set(float(value))
    if report.faults is not None:
        publish_fault_metrics(report.faults, metrics)


def format_fault_report(faults: FaultReport) -> str:
    """The fault/degradation section of a chaos run's report."""
    lines = [
        "Faults injected: "
        f"{faults.input_dropped} frames dropped at sensor, "
        f"{faults.occluded_frames} occluded, "
        f"{faults.noise_burst_frames} in noise bursts, "
        f"{faults.mipi_corrupted_frames} MIPI-corrupted",
        "Serving faults: "
        f"{faults.batch_failures} batch failures "
        f"({faults.worker_crash_failures} crash, "
        f"{faults.worker_stall_timeouts} stall-timeout) | "
        f"{faults.frames_requeued} frames requeued, "
        f"{faults.retries_scheduled} retries, "
        f"{faults.retry_exhausted_degraded} retry-exhausted degraded, "
        f"{faults.deadline_degraded} deadline-degraded",
        "Recovery: "
        f"{faults.breaker_opens} breaker opens "
        f"({len(faults.breaker_transitions)} transitions) | "
        f"watchdog degraded {faults.watchdog_reuse_frames} frames to reuse, "
        f"{faults.watchdog_full_res_frames} to full-res, "
        f"{faults.occlusion_degraded} occlusion-degraded, "
        f"widened delta-theta to {faults.widened_delta_theta_deg:.2f} deg",
    ]
    if faults.soft_errors_injected:
        lines.append(
            "Soft errors: "
            f"{faults.soft_errors_injected} upsets injected | "
            f"guard detected {faults.sdc_detected} "
            f"({faults.sdc_recomputed} recomputed clean, "
            f"{faults.sdc_fallback_degraded} degraded to reuse), "
            f"{faults.sdc_escaped} escaped as silent data corruption"
        )
    if faults.degradation_dwell_s:
        dwell = ", ".join(
            f"{name}:{seconds:.2f}s"
            for name, seconds in sorted(faults.degradation_dwell_s.items())
            if seconds > 0
        )
        lines.append(f"Degradation dwell (fleet-total): {dwell}")
    if faults.breaker_transitions:
        first = faults.breaker_transitions[0]
        lines.append(
            f"First breaker transition: worker {first[1]} "
            f"{first[2]}->{first[3]} at {first[0]:.3f}s"
        )
    return "\n".join(lines)


def format_fleet_report(report: FleetReport, max_session_rows: int = 8) -> str:
    """Human-readable serving report: fleet aggregates, batch occupancy,
    the fault/degradation section (chaos runs), and the first
    ``max_session_rows`` per-session rows."""
    s = report.summary()
    lines = [
        f"Fleet: {len(report.sessions)} sessions, {report.n_workers} workers, "
        f"max batch {report.max_batch}, {report.duration_s:.1f}s window, "
        f"deadline {fmt_ms(report.deadline_s)}",
        f"Throughput {s['throughput_fps']:.0f} frames/s "
        f"(fresh predictions {s['predict_goodput_fps']:.0f}/s) | "
        f"latency p50/p95/p99 {s['p50_ms']:.2f}/{s['p95_ms']:.2f}/{s['p99_ms']:.2f} ms",
        f"Deadline misses {s['miss_rate']:.2%}, shed {s['shed_rate']:.2%}, "
        f"degraded {s['degrade_rate']:.2%} | worker utilization "
        f"{s['worker_utilization']:.0%}, mean batch {s['mean_batch']:.2f}",
    ]
    if (
        report.pending_at_shutdown
        or report.lost_input_frames
        or report.lost_shard_frames
        or report.lost_net_frames
    ):
        accounting = (
            f"Accounting: {report.pending_at_shutdown} pending at shutdown, "
            f"{report.lost_input_frames} lost to input faults"
        )
        if report.lost_shard_frames:
            accounting += (
                f", {report.lost_shard_frames} lost with killed shards"
            )
        if report.lost_net_frames:
            accounting += (
                f", {report.lost_net_frames} lost to transport exhaustion"
            )
        lines.append(accounting)
    if report.shards is not None:
        lines.append("")
        lines.append(report.shards.format())
    if report.net is not None:
        lines.append("")
        lines.append(report.net.format())
    if report.faults is not None:
        lines.append("")
        lines.append(format_fault_report(report.faults))
    if report.batch_occupancy:
        occupancy = ", ".join(
            f"{b}:{c}" for b, c in sorted(report.batch_occupancy.items())
        )
        lines.append(f"Batch occupancy (size:count): {occupancy}")

    headers = ["Session", "Frames", "p50(ms)", "p99(ms)", "Miss", "Shed", "Degr", "Pred%"]
    rows = []
    for stats in report.sessions[:max_session_rows]:
        total = max(stats.total_frames, 1)
        rows.append(
            [
                stats.session_id,
                stats.total_frames,
                f"{stats.percentile_ms(50):.2f}" if stats.completed else "-",
                f"{stats.percentile_ms(99):.2f}" if stats.completed else "-",
                f"{stats.miss_rate:.1%}",
                stats.shed,
                stats.degraded,
                f"{stats.counts['predict'] / total:.0%}",
            ]
        )
    table = table_to_text(headers, rows, min_width=7)
    if len(report.sessions) > max_session_rows:
        table += f"\n... and {len(report.sessions) - max_session_rows} more sessions"
    return "\n".join(lines) + "\n\n" + table
