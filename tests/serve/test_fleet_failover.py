"""Shard failover under chaos: the fleet-wide conservation property.

The seeded grid sweeps (shard count, kill schedule, migration rate) and
asserts the exact frame ledger on every cell: each session's generated
frames are accounted once across every shard they visited, and frame
loss is bounded by what was physically on the dead shard at kill time.
One configuration pins exact counts so any behavioural drift is loud.
"""

from __future__ import annotations

import pytest

from repro.faults.netfaults import ShardKill
from repro.recover import fleet_report_bytes
from repro.serve import ServeConfig
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.fleet import (
    FailoverConfig,
    FleetConfig,
    FleetRuntime,
    run_fleet,
)

KILL_SCHEDULES = {
    "none": (),
    "one": (ShardKill(shard_id=0, at_s=0.2),),
    "two": (ShardKill(shard_id=1, at_s=0.15), ShardKill(shard_id=0, at_s=0.3)),
}


def heavy_serve(n_sessions: int = 24) -> ServeConfig:
    return ServeConfig(
        n_sessions=n_sessions,
        duration_s=0.4,
        n_workers=1,
        reuse_displacement_deg=0.05,
        queue_budget_deadlines=0.8,
        seed=0,
    )


class TestConservationGrid:
    @pytest.mark.parametrize("n_shards", [2, 3, 5])
    @pytest.mark.parametrize("schedule", sorted(KILL_SCHEDULES))
    @pytest.mark.parametrize("migration_rate_hz", [0.0, 8.0])
    def test_ledger_is_exact(self, n_shards, schedule, migration_rate_hz):
        kills = KILL_SCHEDULES[schedule]
        if len(kills) >= n_shards:
            pytest.skip("kill schedule would empty the fleet")
        config = FleetConfig(
            serve=heavy_serve(),
            n_shards=n_shards,
            kills=kills,
            migration_rate_hz=migration_rate_hz,
        )
        # finish() itself raises on any ledger leak; re-derive it here so
        # the test documents the invariant rather than trusting the code
        # under test to self-report.
        report = run_fleet(config)
        expected = {
            s.session_id: s.n_frames for s in FleetRuntime(config).sessions
        }
        assert len(report.sessions) == len(expected)
        for stats in report.sessions:
            buckets = (
                stats.completed + stats.shed + stats.pending
                + stats.lost_input + stats.lost_shard
            )
            assert stats.total_frames == expected[stats.session_id]
            assert buckets == expected[stats.session_id]
        if not kills:
            assert sum(s.lost_shard for s in report.sessions) == 0
        assert report.shards.shards_killed == len(kills)
        assert report.shards.shards_serving == n_shards - len(kills)


class TestBoundedLoss:
    def test_only_dead_shard_residents_lose_frames(self):
        # No migrations: a session can only lose frames if the killed
        # shard was its home.  Future arrivals re-home with the session;
        # loss is strictly the batcher queue + in-flight batch at kill.
        config = FleetConfig(
            serve=heavy_serve(32), n_shards=4,
            kills=(ShardKill(shard_id=2, at_s=0.25),),
        )
        runtime = FleetRuntime(config)
        runtime.start()
        home = dict(runtime._session_shard)
        report = run_fleet(config)
        for stats in report.sessions:
            if stats.lost_shard:
                assert home[stats.session_id] == 2
        (failover,) = report.shards.log.failovers
        assert failover["lost_frames"] == sum(
            s.lost_shard for s in report.sessions
        )
        # Re-homed sessions keep completing on the survivors.
        rehomed = [s for s in report.sessions if home[s.session_id] == 2]
        assert sum(s.completed for s in rehomed) > 0

    def test_kill_schedule_is_deterministic(self):
        config = FleetConfig(
            serve=heavy_serve(), n_shards=3,
            kills=(ShardKill(shard_id=1, at_s=0.2),),
            migration_rate_hz=6.0,
        )
        assert fleet_report_bytes(run_fleet(config)) == fleet_report_bytes(
            run_fleet(config)
        )


class TestBreakerBackToBackKills:
    """Two kills inside one ``guard_s`` window: the second wave of
    refugees must flow into the breaker the first wave already opened —
    reusing its cooldown clock, never resetting it."""

    COOLDOWN = 0.04
    KILLS = (ShardKill(shard_id=2, at_s=0.2), ShardKill(shard_id=3, at_s=0.26))

    def config(self) -> FleetConfig:
        return FleetConfig(
            serve=ServeConfig(
                n_sessions=48, duration_s=0.6, n_workers=1,
                reuse_displacement_deg=0.05, queue_budget_deadlines=0.4,
                seed=0,
            ),
            n_shards=4,
            kills=self.KILLS,
            failover=FailoverConfig(
                breaker_threshold=3, breaker_cooldown_s=self.COOLDOWN,
                guard_s=0.3,
            ),
        )

    def test_second_kill_reuses_the_open_breaker(self):
        runtime = FleetRuntime(self.config())
        runtime.start()
        while runtime.step():
            pass
        report = runtime.finish()
        second_kill = self.KILLS[1].at_s
        survivors = [s for s in runtime.shards.values() if s.alive]
        assert len(survivors) == 2
        for shard in survivors:
            transitions = shard.rehome_breaker.transitions
            assert shard.breaker_degraded > 0
            # The first wave opened the breaker before the second kill...
            first_open = transitions[0]
            assert first_open[1:] == ("CLOSED", "OPEN")
            assert first_open[0] < second_kill
            # ...and the second kill landed inside an OPEN window, so
            # its refugees met an already-open breaker.
            assert any(
                to == "OPEN" and t <= second_kill < t + self.COOLDOWN
                for t, _, to in transitions
            )
            # No reset: every OPEN closes into HALF_OPEN at *exactly*
            # open-instant + cooldown on the sim clock — degradations
            # from the second wave never extend the window.
            for (t, _, to), nxt in zip(transitions, transitions[1:]):
                if to == "OPEN":
                    assert nxt[1:] == ("OPEN", "HALF_OPEN")
                    assert nxt[0] == pytest.approx(t + self.COOLDOWN)
        # The report total also counts frames shard 3 degraded while
        # guarding the first wave before it was killed itself.
        assert report.shards.rehome_breaker_degraded == sum(
            s.breaker_degraded for s in runtime.shards.values()
        )
        assert report.shards.rehome_breaker_degraded > sum(
            s.breaker_degraded for s in survivors
        ) > 0

    def test_open_breaker_ignores_failures_without_extending_cooldown(self):
        # The unit-level contract the fleet behaviour rests on, driven
        # by explicit sim-clock instants.
        breaker = CircuitBreaker(failure_threshold=3, cooldown_s=0.5)
        for _ in range(3):
            breaker.record_failure(1.0)
        assert breaker.state(1.0) is BreakerState.OPEN
        assert breaker.reopen_s == 1.5
        # A later failure burst (the second kill's refugees) while OPEN
        # must not push the reopen instant out.
        breaker.record_failure(1.2)
        breaker.record_failure(1.3)
        assert breaker.reopen_s == 1.5
        assert not breaker.allow(1.49)
        # At exactly the reopen instant one probe is admitted.
        assert breaker.allow(1.5)
        assert breaker.state(1.5) is BreakerState.HALF_OPEN
        breaker.note_dispatch(1.5)
        assert not breaker.allow(1.51)  # probe in flight
        breaker.record_failure(1.6)     # probe failed: re-open
        assert breaker.state(1.6) is BreakerState.OPEN
        assert breaker.reopen_s == pytest.approx(2.1)
        breaker.record_success(2.2)
        assert breaker.state(2.3) is BreakerState.CLOSED


class TestPinnedCounts:
    """Exact counts of one reference config (seed 0, 32 sessions, 4
    shards, shard 2 killed at 0.25s, 10 Hz migrations).  These change
    only when routing, batching, or the failover protocol changes —
    update deliberately, never to silence the test."""

    def report(self):
        config = FleetConfig(
            serve=ServeConfig(
                n_sessions=32, duration_s=0.6, n_workers=1,
                reuse_displacement_deg=0.05, queue_budget_deadlines=0.8,
                seed=0,
            ),
            n_shards=4,
            kills=(ShardKill(shard_id=2, at_s=0.25),),
            migration_rate_hz=10.0,
        )
        return run_fleet(config)

    def test_exact_failover_counts(self):
        report = self.report()
        summary = report.shards.summary()
        assert summary["rehomed_sessions"] == 9.0
        assert summary["failover_lost_frames"] == 2.0
        assert summary["migrations_planned"] == 6.0
        assert summary["migrations_completed"] == 6.0
        assert summary["migrations_skipped"] == 0.0
        assert summary["shards_serving"] == 3.0
        assert report.shards.log.failovers == [
            {"at_s": 0.25, "shard_id": 2, "rehomed_sessions": 9,
             "lost_frames": 2}
        ]

    def test_exact_frame_ledger(self):
        report = self.report()
        assert sum(s.total_frames for s in report.sessions) == 1920
        assert sum(s.completed for s in report.sessions) == 1918
        assert sum(s.lost_shard for s in report.sessions) == 2
        assert sorted(
            s.session_id for s in report.sessions if s.lost_shard
        ) == [6, 25]
