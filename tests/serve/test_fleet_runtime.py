"""FleetRuntime: merged event order, conservation, snapshot roundtrip."""

from __future__ import annotations

import pytest

from repro.faults.netfaults import ShardKill
from repro.recover import fleet_report_bytes
from repro.serve import ServeConfig
from repro.serve.fleet import FleetConfig, FleetRuntime, run_fleet


def fleet_config(**overrides) -> FleetConfig:
    serve = overrides.pop(
        "serve", ServeConfig(n_sessions=16, duration_s=0.4, n_workers=1, seed=0)
    )
    return FleetConfig(serve=serve, **overrides)


class TestBasicRun:
    def test_report_merges_all_shards(self):
        config = fleet_config(n_shards=3)
        report = run_fleet(config)
        assert len(report.sessions) == 16
        assert [s.session_id for s in report.sessions] == list(range(16))
        # Worker pools are per shard; the report aggregates them.
        assert report.n_workers == 3 * config.serve.n_workers
        section = report.shards
        assert section is not None
        assert len(section.shard_rows) == 3
        assert section.shards_serving == 3

    def test_every_frame_is_accounted(self):
        report = run_fleet(fleet_config(n_shards=4))
        runtime_sessions = FleetRuntime(fleet_config(n_shards=4)).sessions
        for stats in report.sessions:
            assert stats.total_frames == runtime_sessions[stats.session_id].n_frames

    def test_single_shard_fleet_matches_conservation(self):
        report = run_fleet(fleet_config(n_shards=1))
        assert sum(s.total_frames for s in report.sessions) == sum(
            s.completed + s.shed + s.pending for s in report.sessions
        )


class TestDeterminism:
    def test_two_runs_are_byte_identical(self):
        config = fleet_config(
            n_shards=4,
            kills=(ShardKill(shard_id=1, at_s=0.2),),
            migration_rate_hz=8.0,
        )
        a = run_fleet(config)
        b = run_fleet(config)
        assert fleet_report_bytes(a) == fleet_report_bytes(b)

    def test_control_events_precede_shard_events(self):
        # A kill scheduled at t=0 must be the very first popped event:
        # control reshapes the topology the data plane then runs on.
        config = fleet_config(
            n_shards=2, kills=(ShardKill(shard_id=0, at_s=0.0),)
        )
        runtime = FleetRuntime(config)
        runtime.start()
        time_s, kind, _ = runtime.peek_event()
        assert time_s == 0.0
        assert kind == 1  # _K_KILL; shard kinds start at the stride (4)

    def test_shard_event_kinds_are_namespaced(self):
        runtime = FleetRuntime(fleet_config(n_shards=2))
        runtime.start()
        _, kind, _ = runtime.peek_event()
        # No control events pending -> the head is a shard event, whose
        # journal kind encodes the shard id above the control range 1..3.
        assert kind >= 4


class TestLifecycle:
    def test_finish_requires_drained_heaps(self):
        runtime = FleetRuntime(fleet_config(n_shards=2))
        runtime.start()
        runtime.step()
        with pytest.raises(RuntimeError, match="events still pending"):
            runtime.finish()

    def test_start_is_idempotent(self):
        runtime = FleetRuntime(fleet_config(n_shards=2))
        runtime.start()
        events = runtime.peek_event()
        runtime.start()
        assert runtime.peek_event() == events
        assert len(runtime.shards) == 2


class TestQueueWaitWindow:
    def test_fleet_without_rebalancer_keeps_no_window(self):
        # Only the rebalancer reads a shard's queue-wait window, so a
        # fleet without one neither fills nor checkpoints it.
        runtime = FleetRuntime(fleet_config(n_shards=3))
        runtime.start()
        while runtime.step():
            if runtime.events_processed % 25 == 0:
                for entry in runtime.state_dict()["shards"]:
                    assert entry["state"]["shard"]["wait_samples"] == []
        runtime.finish()
        shards = runtime.shards.values()
        assert sum(shard.completed_frames for shard in shards) > 0
        assert all(shard.wait_samples == [] for shard in shards)


class TestSnapshotRoundtrip:
    def test_mid_run_state_dict_resumes_byte_identically(self):
        config = fleet_config(
            n_shards=3,
            kills=(ShardKill(shard_id=2, at_s=0.15),),
            migration_rate_hz=5.0,
        )
        reference = run_fleet(config)

        runtime = FleetRuntime(config)
        runtime.start()
        for _ in range(50):  # of 94 events
            assert runtime.step()
        snapshot = runtime.state_dict()

        clone = FleetRuntime(config)
        clone.load_state(snapshot)
        assert clone.events_processed == runtime.events_processed
        while clone.step():
            pass
        assert fleet_report_bytes(clone.finish()) == fleet_report_bytes(reference)

    def test_snapshot_is_json_serializable(self):
        # The checkpoint store persists this dict as canonical JSON;
        # load_state accepts the decoded form (tuples come back as
        # lists), which the byte-identical resume tests exercise.
        import json

        runtime = FleetRuntime(fleet_config(n_shards=2))
        runtime.start()
        for _ in range(50):
            runtime.step()
        json.dumps(runtime.state_dict())
