"""Discrete-event serving loop: determinism, bypass, admission, batching."""

import numpy as np
import pytest

from repro.serve import (
    AdmissionPolicy,
    BatchServiceModel,
    FaultyWorkerPool,
    ServeConfig,
    ServeRuntime,
    WorkerFaultSchedule,
    WorkerPool,
    WorkerStall,
    build_fleet,
    serve_fleet,
)

#: Light load: mostly reuse frames, pool rarely contended.
LIGHT = ServeConfig(n_sessions=8, duration_s=0.5, n_workers=2, seed=1)

#: Heavy load: tiny reuse threshold makes almost every frame predict-path,
#: far beyond what one worker serves sequentially.
HEAVY = ServeConfig(
    n_sessions=24,
    duration_s=0.5,
    n_workers=1,
    reuse_displacement_deg=0.05,
    queue_budget_deadlines=0.8,
    seed=1,
)


class TestDeterminism:
    def test_identical_runs_identical_reports(self):
        a = serve_fleet(HEAVY)
        b = serve_fleet(HEAVY)
        assert a.summary() == b.summary()
        for sa, sb in zip(a.sessions, b.sessions):
            assert sa.latencies_s == sb.latencies_s
            assert sa.counts == sb.counts

    def test_accounting_is_conservative(self):
        report = serve_fleet(HEAVY)
        expected = HEAVY.n_sessions * HEAVY.frames_per_session
        assert report.total_frames == expected
        assert report.completed_frames + sum(s.shed for s in report.sessions) == expected


class TestBypassPaths:
    def test_bypass_frames_never_touch_the_pool(self):
        config = ServeConfig(
            n_sessions=4, duration_s=0.5, reuse_displacement_deg=1e9, seed=2
        )
        fleet = build_fleet(config)
        report = serve_fleet(config, fleet=fleet)
        # With an infinite reuse threshold the only predict frames are the
        # per-session cold starts; everything else bypasses the batcher.
        n_predict = sum(s.counts["predict"] for s in report.sessions)
        assert n_predict == sum(
             sum(1 for d in sess.decisions if d == "predict") for sess in fleet
        )
        assert sum(report.batch_occupancy.values()) <= n_predict
        dispatched = sum(b * c for b, c in report.batch_occupancy.items())
        assert dispatched == n_predict

    def test_bypass_latency_constants(self):
        report = serve_fleet(LIGHT)
        reuse_lat = LIGHT.reuse_bypass_s
        for stats in report.sessions:
            # Most frames are reuse/saccade: their latencies equal the
            # configured bypass constants exactly.
            bypassed = [
                lat for lat in stats.latencies_s
                if abs(lat - reuse_lat) < 1e-12
                or abs(lat - LIGHT.saccade_bypass_s) < 1e-12
            ]
            assert len(bypassed) >= stats.counts["reuse"]


class TestAdmission:
    def test_degrade_caps_latency_tail(self):
        report = serve_fleet(HEAVY)
        assert report.degrade_rate > 0.05
        assert report.shed_rate == 0.0
        assert report.deadline_miss_rate < 0.05

    def test_shed_drops_frames(self):
        config = ServeConfig(
            n_sessions=HEAVY.n_sessions,
            duration_s=HEAVY.duration_s,
            n_workers=HEAVY.n_workers,
            reuse_displacement_deg=HEAVY.reuse_displacement_deg,
            queue_budget_deadlines=HEAVY.queue_budget_deadlines,
            admission=AdmissionPolicy.SHED,
            seed=HEAVY.seed,
        )
        report = serve_fleet(config)
        assert report.shed_rate > 0.05
        assert report.degrade_rate == 0.0
        assert report.completed_frames < report.total_frames

    def test_always_admits_everything_with_long_tail(self):
        config = ServeConfig(
            n_sessions=HEAVY.n_sessions,
            duration_s=HEAVY.duration_s,
            n_workers=HEAVY.n_workers,
            reuse_displacement_deg=HEAVY.reuse_displacement_deg,
            admission=AdmissionPolicy.ALWAYS,
            seed=HEAVY.seed,
        )
        report = serve_fleet(config)
        assert report.shed_rate == 0.0
        assert report.degrade_rate == 0.0
        degraded = serve_fleet(HEAVY)
        assert report.latency_percentile_ms(99) > degraded.latency_percentile_ms(99)


class TestBatching:
    def test_contention_fills_batches(self):
        report = serve_fleet(HEAVY)
        assert report.mean_batch_size > 1.5
        assert max(report.batch_occupancy) <= HEAVY.max_batch

    def test_sequential_baseline_only_singleton_batches(self):
        report = serve_fleet(HEAVY.sequential_baseline())
        assert set(report.batch_occupancy) == {1}
        assert report.mean_batch_size == 1.0

    def test_batching_beats_sequential_at_equal_miss_rate(self):
        """The tentpole claim: same fleet, same pool, same admission budget —
        cross-session batching serves strictly more fresh predictions."""
        fleet = build_fleet(HEAVY)
        batched = serve_fleet(HEAVY, fleet=fleet)
        sequential = serve_fleet(HEAVY.sequential_baseline(), fleet=fleet)
        assert batched.predict_goodput_fps > sequential.predict_goodput_fps
        assert batched.deadline_miss_rate <= sequential.deadline_miss_rate + 1e-9

    def test_custom_service_model(self):
        slow = BatchServiceModel(fixed_s=8e-3, per_sample_s=1e-3)
        report = serve_fleet(HEAVY, service=slow)
        fast = serve_fleet(HEAVY)
        assert report.predict_goodput_fps < fast.predict_goodput_fps


class TestInferenceHook:
    def test_hook_shapes_and_keys(self):
        calls = []

        def fake_inference(batch):
            calls.append(len(batch))
            return np.zeros((len(batch), 2))

        config = ServeConfig(n_sessions=4, duration_s=0.2, seed=4)
        report = serve_fleet(config, inference=fake_inference)
        assert report.predictions is not None
        n_served = sum(s.counts["predict"] - s.shed for s in report.sessions)
        assert len(report.predictions) == n_served == sum(calls)
        for (sid, frame), gaze in report.predictions.items():
            assert 0 <= sid < 4
            assert gaze.shape == (2,)

    def test_hook_bad_shape_rejected(self):
        config = ServeConfig(n_sessions=2, duration_s=0.2, seed=4)
        with pytest.raises(ValueError, match="inference hook"):
            serve_fleet(config, inference=lambda batch: np.zeros((1, 3)))

    def test_no_hook_no_predictions(self):
        assert serve_fleet(LIGHT).predictions is None


class TestRuntimeValidation:
    def test_fleet_size_mismatch(self):
        fleet = build_fleet(ServeConfig(n_sessions=2, duration_s=0.1))
        with pytest.raises(ValueError, match="fleet"):
            ServeRuntime(ServeConfig(n_sessions=3, duration_s=0.1), fleet=fleet)

    def test_pool_size_mismatch(self):
        with pytest.raises(ValueError, match="pool has 3 workers, config says 2"):
            ServeRuntime(LIGHT, pool=WorkerPool(3, BatchServiceModel()))

    def test_failed_batch_needs_a_handler(self):
        # A plain runtime handed a pool that fails batches refuses the
        # first failure instead of recording its frames as served.
        stall = WorkerStall(worker_id=0, start_s=0.0, stop_s=1.0)
        pool = FaultyWorkerPool(
            1, BatchServiceModel(), WorkerFaultSchedule(stalls=(stall,))
        )
        with pytest.raises(RuntimeError, match="does not handle batch failures"):
            ServeRuntime(HEAVY, pool=pool).run()

    def test_shards_hold_part_of_the_fleet(self):
        # The whole-fleet size check binds runtimes that own their
        # ledger; a shard records into its fleet's ledger instead.
        from repro.serve import FleetConfig, FleetRuntime, ShardRuntime

        config = ServeConfig(n_sessions=3, duration_s=0.1)
        fleet = build_fleet(config)
        subset = ShardRuntime(0, config, sessions=fleet[:2])
        assert [s.session_id for s in subset.fleet] == [0, 1]
        assert sorted(subset.stats) == [0, 1]
        assert ShardRuntime(1, config).fleet == []
        owner = FleetRuntime(FleetConfig(serve=config, n_shards=2))
        spawned = owner._new_shard([], spawned_at_s=0.05)
        assert spawned.fleet == [] and spawned.stats is owner.stats
