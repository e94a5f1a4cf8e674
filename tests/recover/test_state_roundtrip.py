"""state_dict/load_state: every stateful component round-trips exactly."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.faults import default_chaos_scenario
from repro.faults.runtime import chaos_runtime
from repro.recover import canonical_bytes, fleet_report_bytes
from repro.recover.configio import decode, encode
from repro.serve import (
    BatchServiceModel,
    DynamicBatcher,
    ServeConfig,
    ServeRuntime,
    WorkerPool,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.request import FrameRequest
from repro.serve.telemetry import FaultReport, SessionStats
from repro.system.watchdog import TrackingWatchdog


def serve_config() -> ServeConfig:
    # A 0.05 deg reuse threshold sends most frames to the pool, so the
    # run has hundreds of events (bypass frames are not events).
    return ServeConfig(
        n_sessions=6, duration_s=0.5, n_workers=2, seed=1,
        reuse_displacement_deg=0.05,
    )


def chaos_config():
    base = default_chaos_scenario(seed=3)
    return replace(
        base, serve=replace(base.serve, n_sessions=4, duration_s=0.5, n_workers=2)
    )


def request(frame: int = 0) -> FrameRequest:
    return FrameRequest(
        session_id=1,
        frame_index=frame,
        arrival_s=0.01 * frame,
        deadline_s=0.01 * frame + 0.0125,
        path="predict",
        seq=frame,
    )


class TestComponents:
    def test_frame_request_roundtrip(self):
        original = request(4)
        assert FrameRequest.from_dict(original.to_dict()) == original

    def test_batcher_roundtrip(self):
        batcher = DynamicBatcher(8, 0.002)
        for frame in range(5):
            batcher.enqueue(request(frame))
        batcher.take()
        batcher.enqueue(request(9))
        state = batcher.state_dict()
        other = DynamicBatcher(8, 0.002)
        other.load_state(state)
        assert other.state_dict() == state
        assert len(other) == len(batcher)

    def test_pool_roundtrip(self):
        pool = WorkerPool(2, BatchServiceModel())
        pool.dispatch(pool.workers[0], 3, 0.0)
        state = pool.state_dict()
        other = WorkerPool(2, BatchServiceModel())
        other.load_state(state)
        assert other.state_dict() == state

    def test_pool_rejects_wrong_worker_count(self):
        pool = WorkerPool(2, BatchServiceModel())
        state = pool.state_dict()
        with pytest.raises(ValueError, match="2 workers"):
            WorkerPool(3, BatchServiceModel()).load_state(state)

    def test_session_stats_roundtrip(self):
        stats = SessionStats(3)
        stats.record("predict", 0.001, 0.0125)
        stats.record("reuse", 0.02, 0.0125)
        stats.shed = 2
        state = stats.state_dict()
        other = SessionStats(3)
        other.load_state(state)
        assert other.state_dict() == state

    def test_session_stats_rejects_wrong_session(self):
        state = SessionStats(3).state_dict()
        with pytest.raises(ValueError, match="session"):
            SessionStats(4).load_state(state)

    def test_fault_report_roundtrip(self):
        report = FaultReport()
        report.input_dropped = 5
        report.breaker_transitions.append((0.25, 1, "closed", "open"))
        report.degradation_dwell_s["NOMINAL"] = 1.5
        state = json.loads(canonical_bytes(encode(report)))
        assert decode(FaultReport, state) == report

    def test_breaker_roundtrip(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown_s=0.1)
        breaker.record_failure(0.05)
        breaker.record_failure(0.06)  # trips open
        state = breaker.state_dict()
        other = CircuitBreaker(failure_threshold=2, cooldown_s=0.1)
        other.load_state(state)
        assert other.state_dict() == state
        assert other.state(0.07) is breaker.state(0.07)

    def test_watchdog_roundtrip(self):
        profile = default_chaos_scenario().profile
        watchdog = TrackingWatchdog(profile)
        for step in range(6):
            watchdog.observe(0.01 * step, error_deg=3.0, confidence=0.4)
        state = watchdog.state_dict()
        other = TrackingWatchdog(profile)
        other.load_state(state)
        assert other.state_dict() == state
        assert other.level is watchdog.level


class TestRuntimeSnapshot:
    @pytest.mark.parametrize("snapshot_at", [1, 50, 200])
    def test_serve_snapshot_resumes_bit_identical(self, snapshot_at):
        baseline = fleet_report_bytes(ServeRuntime(serve_config()).run())

        donor = ServeRuntime(serve_config())
        donor.start()
        for _ in range(snapshot_at):
            assert donor.step()
        state = donor.state_dict()

        heir = ServeRuntime(serve_config())
        heir.load_state(state)
        while heir.step():
            pass
        assert fleet_report_bytes(heir.finish()) == baseline

    @pytest.mark.parametrize("snapshot_at", [1, 120])
    def test_chaos_snapshot_resumes_bit_identical(self, snapshot_at):
        baseline = fleet_report_bytes(chaos_runtime(chaos_config()).run())

        donor = chaos_runtime(chaos_config())
        donor.start()
        for _ in range(snapshot_at):
            assert donor.step()
        state = donor.state_dict()

        heir = chaos_runtime(chaos_config())
        heir.load_state(state)
        while heir.step():
            pass
        assert fleet_report_bytes(heir.finish()) == baseline

    def test_snapshot_is_json_canonicalizable(self):
        runtime = chaos_runtime(chaos_config())
        runtime.start()
        for _ in range(40):
            runtime.step()
        canonical_bytes(runtime.state_dict())  # must not raise (no NaN etc.)

    def test_snapshot_is_stable_across_roundtrip(self):
        donor = ServeRuntime(serve_config())
        donor.start()
        for _ in range(80):
            donor.step()
        state = donor.state_dict()
        heir = ServeRuntime(serve_config())
        heir.load_state(state)
        assert canonical_bytes(heir.state_dict()) == canonical_bytes(state)
