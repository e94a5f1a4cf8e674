"""Fleet-level telemetry: the event log and the report's shard section.

The :class:`FleetLog` accumulates what the fleet controller *did*
(failovers, migrations, rebalance actions) as the run executes; at
``finish()`` it is frozen, together with per-shard rows, into a
:class:`FleetSection` attached to the ordinary
:class:`~repro.serve.telemetry.FleetReport`.  The section is duck-typed
(``format()`` / ``summary()``) and serialized by the dataclass codec
(:mod:`repro.recover.configio`), so the single-runtime telemetry module
renders and serializes it without importing this package.  Net-transport
runs additionally freeze the
:class:`~repro.serve.fleet.transport.FleetTransport`'s protocol counters
and detector transitions into a :class:`NetSection` with the same
duck-typed surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.system.metrics import table_to_text


@dataclass
class FleetLog:
    """Mutable control-plane event log of one fleet run."""

    #: ``{"at_s", "shard_id", "rehomed_sessions", "lost_frames"}``
    failovers: list[dict] = field(default_factory=list)
    #: ``{"at_s", "session_id", "from", "to", "moved_frames", "reason"}``
    migrations: list[dict] = field(default_factory=list)
    migrations_planned: int = 0
    migrations_skipped: int = 0
    rebalance_spawns: int = 0
    rebalance_drains: int = 0

    def record_failover(
        self, at_s: float, shard_id: int, rehomed: int, lost: int
    ) -> None:
        self.failovers.append(
            {
                "at_s": at_s,
                "shard_id": shard_id,
                "rehomed_sessions": rehomed,
                "lost_frames": lost,
            }
        )

    def record_migration(
        self,
        at_s: float,
        session_id: int,
        source: int,
        target: int,
        moved_frames: int,
        reason: str = "plan",
    ) -> None:
        self.migrations.append(
            {
                "at_s": at_s,
                "session_id": session_id,
                "from": source,
                "to": target,
                "moved_frames": moved_frames,
                "reason": reason,
            }
        )


@dataclass
class FleetSection:
    """Frozen shard section of a fleet run's report.

    ``shard_rows`` carries one dict per shard (id order): id, status
    (``alive`` / ``killed`` / ``retired``), lifecycle instants, final
    session count, frames completed/degraded *on that shard*, frames
    lost with it, migration/re-homing traffic, and utilization.
    """

    vnodes: int
    shards_started: int
    shard_rows: list[dict]
    log: FleetLog
    rehome_breaker_degraded: int = 0

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def shards_killed(self) -> int:
        return sum(1 for row in self.shard_rows if row["status"] == "killed")

    @property
    def shards_spawned(self) -> int:
        return sum(
            1 for row in self.shard_rows if row["spawned_at_s"] is not None
        )

    @property
    def shards_drained(self) -> int:
        return sum(1 for row in self.shard_rows if row["status"] == "retired")

    @property
    def shards_serving(self) -> int:
        return sum(1 for row in self.shard_rows if row["status"] == "alive")

    @property
    def rehomed_sessions(self) -> int:
        return sum(f["rehomed_sessions"] for f in self.log.failovers)

    @property
    def failover_lost_frames(self) -> int:
        return sum(f["lost_frames"] for f in self.log.failovers)

    def summary(self) -> dict[str, float]:
        """Flat metrics merged into ``fleet_summary_metrics`` — the names
        ``repro.exp`` ledgers and summary SLOs read."""
        return {
            "shards_started": float(self.shards_started),
            "shards_spawned": float(self.shards_spawned),
            "shards_killed": float(self.shards_killed),
            "shards_drained": float(self.shards_drained),
            "shards_serving": float(self.shards_serving),
            "rehomed_sessions": float(self.rehomed_sessions),
            "failover_lost_frames": float(self.failover_lost_frames),
            "migrations_planned": float(self.log.migrations_planned),
            "migrations_completed": float(len(self.log.migrations)),
            "migrations_skipped": float(self.log.migrations_skipped),
            "rehome_breaker_degraded": float(self.rehome_breaker_degraded),
            "rebalance_spawns": float(self.log.rebalance_spawns),
            "rebalance_drains": float(self.log.rebalance_drains),
        }

    # ------------------------------------------------------------------
    # Rendering (embedded in format_fleet_report)
    # ------------------------------------------------------------------
    def format(self) -> str:
        lines = [
            f"Fleet topology: {self.shards_started} shards started "
            f"(+{self.shards_spawned} spawned, {self.shards_killed} killed, "
            f"{self.shards_drained} drained) -> {self.shards_serving} serving "
            f"| ring: {self.vnodes} vnodes/shard"
        ]
        if self.log.failovers:
            for event in self.log.failovers:
                lines.append(
                    f"Failover: shard {event['shard_id']} killed at "
                    f"{event['at_s']:.3f}s -> "
                    f"{event['rehomed_sessions']} sessions re-homed, "
                    f"{event['lost_frames']} in-flight frames lost"
                )
        else:
            lines.append("Failover: none")
        lines.append(
            f"Migrations: {len(self.log.migrations)} completed of "
            f"{self.log.migrations_planned} planned "
            f"({self.log.migrations_skipped} skipped) | re-home breaker "
            f"degraded {self.rehome_breaker_degraded} frames"
        )
        if self.log.rebalance_spawns or self.log.rebalance_drains:
            lines.append(
                f"Rebalancer: {self.log.rebalance_spawns} spawns, "
                f"{self.log.rebalance_drains} drains"
            )
        headers = [
            "Shard", "Status", "Sessions", "Done", "Degr",
            "Lost", "In", "Out", "Rehomed", "Util",
        ]
        rows = []
        for row in self.shard_rows:
            rows.append(
                [
                    row["shard_id"],
                    row["status"],
                    row["sessions"],
                    row["completed"],
                    row["degraded"],
                    row["lost_frames"],
                    row["migrations_in"],
                    row["migrations_out"],
                    row["rehomed_in"],
                    f"{row['utilization']:.0%}",
                ]
            )
        return "\n".join(lines) + "\n" + table_to_text(headers, rows, min_width=6)


@dataclass
class NetSection:
    """Frozen transport/detector section of a net-mode fleet report.

    ``counters`` is the transport's full counter dict (see
    ``repro.serve.fleet.transport.COUNTER_NAMES``); ``transitions`` the
    detector's suspect/heal timeline; ``detect_latencies`` the
    kill-to-suspicion delays of real failovers.
    """

    drop_rate: float
    dup_rate: float
    delay_s: float
    jitter_s: float
    n_partitions: int
    n_gray: int
    on_exhaust: str
    counters: dict[str, int]
    transitions: list[dict] = field(default_factory=list)
    detect_latencies: list[float] = field(default_factory=list)

    @classmethod
    def from_transport(cls, config, transport) -> "NetSection":
        return cls(
            drop_rate=config.link.drop_rate,
            dup_rate=config.link.dup_rate,
            delay_s=config.link.delay_s,
            jitter_s=config.link.jitter_s,
            n_partitions=len(config.partitions),
            n_gray=len(config.gray),
            on_exhaust=config.on_exhaust,
            counters=dict(transport.counters),
            transitions=[dict(t) for t in transport.transitions],
            detect_latencies=list(transport.detect_latencies),
        )

    def summary(self) -> dict[str, float]:
        """Flat metrics merged into ``fleet_summary_metrics`` under the
        ``net_`` prefix — what exp ledgers and the bench gate read."""
        c = self.counters
        return {
            "retransmits_total": float(c["retransmits"]),
            "frames_deduped_total": float(c["frames_deduped"]),
            "failover_detect_s": (
                max(self.detect_latencies) if self.detect_latencies else 0.0
            ),
            "heal_bounce_sessions": float(c["heal_bounce_sessions"]),
            "suspected_total": float(c["suspected"]),
            "false_suspects": float(c["false_suspects"]),
            "heals_total": float(c["heals"]),
            "exhausted_degraded": float(c["exhausted_degraded"]),
            "exhausted_lost": float(c["exhausted_lost"]),
            "late_discards": float(c["late_discards"]),
            "dead_letters": float(c["dead_letters"]),
            "net_messages_total": float(
                c["data_sent"] + c["acks_sent"] + c["heartbeats_sent"]
            ),
        }

    # ------------------------------------------------------------------
    # Rendering (embedded in format_fleet_report)
    # ------------------------------------------------------------------
    def format(self) -> str:
        c = self.counters
        lines = [
            f"Transport: {c['data_sent']} data msgs "
            f"({c['retransmits']} retransmits, "
            f"{c['dup_injected']} dup-injected), "
            f"{c['acks_sent']} acks, {c['heartbeats_sent']} heartbeats "
            f"| dropped {c['data_dropped']}+{c['acks_dropped']}"
            f"+{c['heartbeats_dropped']}",
            f"Exactly-once: {c['frames_applied']} applied, "
            f"{c['frames_deduped']} duplicates deduped, "
            f"{c['dead_letters']} dead-lettered, "
            f"{c['late_discards']} late copies discarded",
            f"Exhaustion: {c['exhausted_degraded']} degraded after retries, "
            f"{c['exhausted_lost']} lost (policy {self.on_exhaust})",
        ]
        detector = (
            f"Detector: {c['suspected']} suspected "
            f"({c['false_suspects']} false), {c['heals']} healed, "
            f"{c['heal_bounce_sessions']} sessions bounced back"
        )
        if self.detect_latencies:
            detector += (
                f" | failover detected in {max(self.detect_latencies):.3f}s"
            )
        lines.append(detector)
        if self.n_partitions or self.n_gray:
            lines.append(
                f"Partitions: {self.n_partitions} windows | "
                f"gray-slow: {self.n_gray}"
            )
        return "\n".join(lines)
