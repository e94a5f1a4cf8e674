"""Whole-fleet durability: checkpoint, kill, restore, byte-verify."""

from __future__ import annotations

import json

import pytest

from repro.faults import ProcessKill, SimulatedCrash
from repro.faults.netfaults import ShardKill
from repro.recover import (
    CheckpointStore,
    RecoveryError,
    canonical_bytes,
    fleet_report_bytes,
)
from repro.recover.manager import restore_runtime, resume, run_with_checkpoints
from repro.recover.manager import build_runtime
from repro.serve import ServeConfig
from repro.serve.fleet import FleetConfig, FleetRuntime, run_fleet
from tests.serve import test_fleet_migration


def chaos_fleet() -> FleetConfig:
    return FleetConfig(
        serve=ServeConfig(
            n_sessions=16, duration_s=0.5, n_workers=1,
            reuse_displacement_deg=0.05, seed=0,
        ),
        n_shards=3,
        kills=(ShardKill(shard_id=1, at_s=0.2),),
        migration_rate_hz=5.0,
    )


class TestFleetCrashRecovery:
    def test_kill_restore_resume_is_byte_identical(self, tmp_path):
        config = chaos_fleet()
        reference = run_fleet(config)
        with pytest.raises(SimulatedCrash):
            run_with_checkpoints(
                FleetRuntime(config), tmp_path, every=200,
                kill=ProcessKill(at_event=700),
            )
        report = resume(tmp_path)
        assert fleet_report_bytes(report) == fleet_report_bytes(reference)

    def test_kill_across_the_shard_kill_event(self, tmp_path):
        # Crash *after* the failover fired: the snapshot must carry the
        # reshaped topology (dead shard, re-homed sessions) faithfully.
        config = chaos_fleet()
        runtime = FleetRuntime(config)
        runtime.start()
        events_to_kill = 0
        while True:
            head = runtime.peek_event()
            assert head is not None, "kill event never surfaced"
            events_to_kill += 1
            time_s, kind, _ = head
            runtime.step()
            if kind == 1:  # the shard-kill control event
                break
        kill_at = events_to_kill + 50
        with pytest.raises(SimulatedCrash):
            run_with_checkpoints(
                FleetRuntime(config), tmp_path, every=100,
                kill=ProcessKill(at_event=kill_at),
            )
        report = resume(tmp_path)
        assert fleet_report_bytes(report) == fleet_report_bytes(
            run_fleet(config)
        )

    def test_format_6_checkpoint_is_refused(self, tmp_path):
        # A format-6 fleet's event indices count the merged global order:
        # replaying its journal tail in shard-major order would apply
        # other events than the ones logged.  Restore refuses it.
        with pytest.raises(SimulatedCrash):
            run_with_checkpoints(
                FleetRuntime(chaos_fleet()), tmp_path, every=200,
                kill=ProcessKill(at_event=700),
            )
        store = CheckpointStore(tmp_path)
        for index in store.indices():
            manifest = store.manifest_path(index)
            doc = json.loads(manifest.read_bytes())
            doc["format_version"] = 6
            manifest.write_bytes(canonical_bytes(doc))
        with pytest.raises(
            RecoveryError, match="is format 6; this build reads only 10 — rerun"
        ):
            resume(tmp_path)

    def test_checkpoint_kind_is_fleet(self, tmp_path):
        with pytest.raises(SimulatedCrash):
            run_with_checkpoints(
                FleetRuntime(chaos_fleet()), tmp_path, every=100,
                kill=ProcessKill(at_event=300),
            )
        checkpoint, skipped = CheckpointStore(tmp_path).latest_valid()
        assert skipped == []
        assert checkpoint.kind == "fleet"
        restored = restore_runtime(tmp_path)
        assert isinstance(restored.runtime, FleetRuntime)
        assert restored.runtime.events_processed >= 300

    def test_kill_after_a_rebalancer_spawn(self, tmp_path):
        # The latest checkpoint holds a shard the rebalancer spawned; the
        # restored scan order must include it for the journal replay and
        # the resumed run to regenerate the same events.
        config = test_fleet_migration.TestRebalancer().predict_heavy()
        runtime = FleetRuntime(config)
        runtime.start()
        while len(runtime.shards) == config.n_shards:
            assert runtime.step(), "the rebalancer never spawned"
        every = runtime.events_processed + 10
        with pytest.raises(SimulatedCrash):
            run_with_checkpoints(
                FleetRuntime(config), tmp_path, every=every,
                kill=ProcessKill(at_event=every + 300),
            )
        checkpoint, _ = CheckpointStore(tmp_path).latest_valid()
        assert checkpoint.event_index == every
        assert len(checkpoint.state["shards"]) == config.n_shards + 1
        restored = FleetRuntime.restore(tmp_path)
        assert restored.events_processed == every + 300
        spawned = config.n_shards
        assert restored.shards[spawned].spawned_at_s is not None
        assert restored._order[spawned] is restored.shards[spawned]
        report = resume(tmp_path)
        assert fleet_report_bytes(report) == fleet_report_bytes(
            run_fleet(config)
        )

    def test_fleet_rejects_inference_override(self, tmp_path):
        with pytest.raises(SimulatedCrash):
            run_with_checkpoints(
                FleetRuntime(chaos_fleet()), tmp_path, every=100,
                kill=ProcessKill(at_event=200),
            )
        checkpoint, _ = CheckpointStore(tmp_path).latest_valid()
        with pytest.raises(RecoveryError, match="inference hook"):
            build_runtime(checkpoint, None, lambda batch: None, None)


class TestRecoverProbe:
    def test_fleet_target_probe_verifies(self):
        from repro.recover.cli import run_from_config

        probe = run_from_config(
            {
                "target": "fleet",
                "serve": {"n_sessions": 8, "duration_s": 0.3},
                "n_shards": 2,
                "kills": [{"shard_id": 0, "at_s": 0.15}],
                "kill_at_event": 25,
                "checkpoint_every": 10,
            }
        )
        assert probe.killed
        assert probe.verified
        assert probe.report.shards is not None

    def test_unknown_target_rejected(self):
        from repro.recover.cli import resolve_run_config

        with pytest.raises(ValueError, match="'serve', 'chaos', or 'fleet'"):
            resolve_run_config({"target": "warehouse"})
