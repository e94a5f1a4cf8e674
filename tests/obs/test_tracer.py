"""Tracer core: span recording, ring buffer, null tracer."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    PID_SESSION_BASE,
    SIM_CLOCK,
    NullTracer,
    Tracer,
    session_pid,
    spans_jsonl,
)


class TestSpanRecording:
    def test_record_span_stores_sim_record(self):
        tracer = Tracer()
        tracer.record_span("frame", 1.0, 0.5, cat="serve", pid=7, args={"k": 1})
        (span,) = tracer.spans()
        assert span.name == "frame"
        assert span.ts_s == 1.0
        assert span.dur_s == 0.5
        assert span.end_s == pytest.approx(1.5)
        assert span.pid == 7
        assert json.loads(spans_jsonl(tracer))["clock"] == SIM_CLOCK
        assert span.ph == "X"
        assert span.args == {"k": 1}

    def test_negative_duration_rejected(self):
        tracer = Tracer()
        with pytest.raises(ValueError, match="negative duration"):
            tracer.record_span("bad", 0.0, -1e-6)

    def test_instant_has_zero_duration_and_i_phase(self):
        tracer = Tracer()
        tracer.instant("watchdog.NOMINAL->WIDENED", 2.0, pid=3)
        (span,) = tracer.spans()
        assert span.ph == "i"
        assert span.dur_s == 0.0

    def test_contains_is_same_track_temporal_nesting(self):
        tracer = Tracer()
        tracer.record_span("parent", 0.0, 1.0, pid=1)
        tracer.record_span("child", 0.25, 0.5, pid=1)
        tracer.record_span("other_track", 0.25, 0.5, pid=2)
        parent, child, other = tracer.spans()
        assert parent.contains(child)
        assert not child.contains(parent)
        assert not parent.contains(other)


class TestRingBuffer:
    def test_capacity_drops_oldest_and_counts(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.record_span(f"s{i}", float(i), 0.1)
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert [s.name for s in tracer.spans()] == ["s2", "s3", "s4"]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            Tracer(capacity=0)


class TestSlowest:
    def test_ranking_is_deterministic(self):
        tracer = Tracer()
        tracer.record_span("a", 0.0, 0.3)
        tracer.record_span("b", 1.0, 0.5)
        tracer.record_span("c", 2.0, 0.3)
        tracer.instant("i", 3.0)  # instants never rank
        names = [s.name for s in tracer.slowest(3)]
        assert names == ["b", "a", "c"]  # ties broken by start time


class TestTracks:
    def test_declare_track_names_process_and_threads(self):
        tracer = Tracer()
        tracer.declare_track(1, "workers", tid=0, thread_name="worker-0")
        tracer.declare_track(1, "workers", tid=1, thread_name="worker-1")
        info = tracer.tracks[1]
        assert info.process_name == "workers"
        assert info.thread_names == {0: "worker-0", 1: "worker-1"}

    def test_session_pid_offsets(self):
        assert session_pid(0) == PID_SESSION_BASE
        assert session_pid(3) == PID_SESSION_BASE + 3


class TestNullTracer:
    def test_everything_is_a_noop(self):
        tracer = NullTracer()
        assert not tracer.enabled
        tracer.record_span("x", 0.0, 1.0)
        tracer.instant("y", 0.0)
        tracer.declare_track(1, "p")
        assert tracer.spans() == []
        assert tracer.slowest() == []
        assert tracer.tracks == {}
        assert len(tracer) == 0

    def test_shared_singleton(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled
