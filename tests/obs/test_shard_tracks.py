"""Shard-scoped trace tracks: no pid collisions across shard runtimes."""

from __future__ import annotations

import pytest

from repro.obs import (
    PID_WORKERS,
    SHARD_PID_STRIDE,
    Obs,
    ObsConfig,
    ScopedTracer,
    shard_pid,
)


class TestShardPid:
    def test_blocks_are_disjoint(self):
        pids = {
            shard_pid(shard, pid)
            for shard in range(4)
            for pid in (0, PID_WORKERS, SHARD_PID_STRIDE - 1)
        }
        assert len(pids) == 12

    def test_block_layout(self):
        assert shard_pid(0, 0) == SHARD_PID_STRIDE
        assert shard_pid(2, 7) == 3 * SHARD_PID_STRIDE + 7

    def test_rejects_out_of_block_pid(self):
        with pytest.raises(ValueError, match="outside the per-shard block"):
            shard_pid(0, SHARD_PID_STRIDE)

    def test_rejects_negative_shard(self):
        with pytest.raises(ValueError, match="non-negative"):
            shard_pid(-1, 0)


class TestScopedTracer:
    def test_two_shards_record_on_distinct_tracks(self):
        obs = Obs(ObsConfig())
        for shard in (0, 1):
            scoped = obs.scoped(shard)
            scoped.tracer.declare_track(PID_WORKERS, "workers")
            scoped.tracer.record_span(
                "dispatch", 0.1, 0.01, cat="serve", pid=PID_WORKERS
            )
        pids = sorted({span.pid for span in obs.tracer.spans()})
        assert pids == [
            shard_pid(0, PID_WORKERS), shard_pid(1, PID_WORKERS)
        ]

    def test_process_names_gain_shard_prefix(self):
        obs = Obs(ObsConfig())
        obs.scoped(3).tracer.declare_track(PID_WORKERS, "workers")
        names = {
            track.process_name for track in obs.tracer.tracks.values()
        }
        assert any(name.startswith("shard3.") for name in names)

    def test_metrics_registry_is_shared(self):
        # Instruments dedupe by name, so N shards incrementing the same
        # counter produce the fleet-wide aggregate for free.
        obs = Obs(ObsConfig())
        obs.scoped(0).metrics.counter("serve_frames_total").inc(2)
        obs.scoped(1).metrics.counter("serve_frames_total").inc(3)
        assert obs.metrics.counter("serve_frames_total").value == 5

    def test_disabled_obs_scopes_to_null(self):
        obs = Obs(ObsConfig(enabled=False))
        scoped = obs.scoped(1)
        assert not scoped.enabled
        scoped.tracer.record_span("x", 0.0, 0.1, cat="serve")  # no-op


class TestFleetTraces:
    def test_fleet_run_emits_namespaced_shard_tracks(self):
        from repro.faults.netfaults import ShardKill
        from repro.serve import ServeConfig
        from repro.serve.fleet import FleetConfig, run_fleet

        obs = Obs(ObsConfig())
        config = FleetConfig(
            serve=ServeConfig(
                n_sessions=8, duration_s=0.3,
                reuse_displacement_deg=0.05, seed=0,
            ),
            n_shards=2,
            kills=(ShardKill(shard_id=0, at_s=0.15),),
        )
        run_fleet(config, obs=obs)
        pids = {span.pid for span in obs.tracer.spans()}
        blocks = {pid // SHARD_PID_STRIDE for pid in pids if pid >= SHARD_PID_STRIDE}
        assert {1, 2} <= blocks  # both shards recorded in their own block
        names = [span.name for span in obs.tracer.spans()]
        assert "fleet.failover" in names
        assert "shard.kill" in names
