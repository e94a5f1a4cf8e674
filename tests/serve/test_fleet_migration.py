"""Live session migration and the hysteretic rebalancer."""

from __future__ import annotations

import pytest

from repro.serve import ServeConfig
from repro.serve.fleet import (
    FleetConfig,
    FleetRuntime,
    RebalancerConfig,
    SessionMigration,
    run_fleet,
)


def serve_template(**overrides) -> ServeConfig:
    defaults = dict(n_sessions=16, duration_s=0.4, n_workers=1, seed=0)
    defaults.update(overrides)
    return ServeConfig(**defaults)


def placement_of(config: FleetConfig) -> dict[int, int]:
    """session id -> initial shard, per the config's ring."""
    runtime = FleetRuntime(config)
    runtime.start()
    return dict(runtime._session_shard)


class TestPlannedMigration:
    def test_pinned_target_moves_the_session(self):
        base = FleetConfig(serve=serve_template(), n_shards=3)
        home = placement_of(base)
        target = next(s for s in range(3) if s != home[5])
        config = FleetConfig(
            serve=serve_template(),
            n_shards=3,
            migrations=(SessionMigration(at_s=0.2, session_id=5, to_shard=target),),
        )
        report = run_fleet(config)
        log = report.shards.log
        assert log.migrations == [
            {
                "at_s": 0.2, "session_id": 5, "from": home[5], "to": target,
                "moved_frames": log.migrations[0]["moved_frames"],
                "reason": "plan",
            }
        ]
        rows = {r["shard_id"]: r for r in report.shards.shard_rows}
        assert rows[home[5]]["migrations_out"] == 1
        assert rows[target]["migrations_in"] == 1
        # The moved session loses nothing: migration drains and requeues.
        moved = next(s for s in report.sessions if s.session_id == 5)
        assert moved.lost_shard == 0
        assert moved.total_frames == moved.completed + moved.shed + moved.pending

    def test_migration_to_current_shard_is_skipped(self):
        base = FleetConfig(serve=serve_template(), n_shards=3)
        home = placement_of(base)
        config = FleetConfig(
            serve=serve_template(),
            n_shards=3,
            migrations=(
                SessionMigration(at_s=0.2, session_id=5, to_shard=home[5]),
            ),
        )
        report = run_fleet(config)
        assert report.shards.log.migrations_skipped == 1
        assert report.shards.log.migrations == []

    def test_ring_picks_target_when_unpinned(self):
        base = FleetConfig(serve=serve_template(), n_shards=3)
        home = placement_of(base)
        config = FleetConfig(
            serve=serve_template(),
            n_shards=3,
            migrations=(SessionMigration(at_s=0.2, session_id=5),),
        )
        report = run_fleet(config)
        (entry,) = report.shards.log.migrations
        assert entry["from"] == home[5]
        assert entry["to"] != home[5]

    def test_seeded_migration_plan_is_reproducible(self):
        config = FleetConfig(
            serve=serve_template(), n_shards=4,
            migration_rate_hz=10.0, migration_seed=3,
        )
        a = run_fleet(config).shards.log.migrations
        b = run_fleet(config).shards.log.migrations
        assert a == b
        assert len(a) > 0


class TestRebalancer:
    def predict_heavy(self) -> FleetConfig:
        # Everything lands on the inference pool; two shards overload and
        # the autoscaler has headroom to spawn.
        return FleetConfig(
            serve=serve_template(
                n_sessions=32,
                duration_s=0.6,
                reuse_displacement_deg=0.05,
                queue_budget_deadlines=0.8,
            ),
            n_shards=2,
            rebalancer=RebalancerConfig(
                interval_s=0.1,
                p95_high_s=0.5e-3,
                p95_low_s=0.1e-3,
                cooldown_s=0.1,
            ),
        )

    def test_hot_fleet_spawns_shards_and_conserves_frames(self):
        report = run_fleet(self.predict_heavy())
        section = report.shards
        assert section.log.rebalance_spawns > 0
        assert section.shards_spawned == section.log.rebalance_spawns
        rows = section.shard_rows
        assert len(rows) == 2 + section.log.rebalance_spawns
        # Migration accounting balances across the whole fleet.
        assert sum(r["migrations_out"] for r in rows) == sum(
            r["migrations_in"] for r in rows
        )
        # finish() enforces the ledger; spot-check the totals anyway.
        total = sum(s.total_frames for s in report.sessions)
        assert total == sum(
            s.completed + s.shed + s.pending + s.lost_input + s.lost_shard
            for s in report.sessions
        )

    def test_disabled_rebalancer_never_spawns(self):
        config = FleetConfig(serve=serve_template(), n_shards=2)
        report = run_fleet(config)
        assert report.shards.log.rebalance_spawns == 0
        assert report.shards.log.rebalance_drains == 0
        assert len(report.shards.shard_rows) == 2


class TestShardMembership:
    """A shard's members are keyed by session id, in membership order."""

    @staticmethod
    def two_shards():
        runtime = FleetRuntime(FleetConfig(serve=serve_template(), n_shards=2))
        runtime.start()
        return runtime.shards[0], runtime.shards[1]

    @staticmethod
    def ids(shard) -> list[int]:
        return [s.session_id for s in shard.fleet]

    def test_migrate_out_and_in_keep_membership_order(self):
        a, b = self.two_shards()
        a_ids, b_ids = self.ids(a), self.ids(b)
        moved = a_ids[1]
        b.admit_migrated(a.extract_session(moved, 0.1), 0.1)
        assert self.ids(a) == [sid for sid in a_ids if sid != moved]
        assert self.ids(b) == b_ids + [moved]
        back = b_ids[0]
        a.admit_migrated(b.extract_session(back, 0.2), 0.2)
        assert self.ids(a) == [sid for sid in a_ids if sid != moved] + [back]
        assert self.ids(b) == b_ids[1:] + [moved]
        # Same-instant ARRIVALs pop in membership order.
        for shard in (a, b):
            assert [s.session_id for s in shard._arrival_order()] == self.ids(shard)

    def test_duplicate_admission_is_refused(self):
        a, b = self.two_shards()
        sid = self.ids(a)[0]
        payload = a.extract_session(sid, 0.1)
        b.admit_migrated(payload, 0.1)
        with pytest.raises(ValueError, match=f"^session {sid} already on shard 1$"):
            b.admit_migrated(payload, 0.1)
        with pytest.raises(ValueError, match=f"^session {sid} already on shard 1$"):
            b.join(payload.session)
        assert self.ids(b).count(sid) == 1

    def test_release_of_a_non_member_is_refused(self):
        a, b = self.two_shards()
        with pytest.raises(KeyError, match="not on shard 0"):
            a.release(self.ids(b)[0])

    def test_fleet_is_a_copy(self):
        a, _ = self.two_shards()
        before = self.ids(a)
        a.fleet.append(a.fleet[0])
        assert self.ids(a) == before
