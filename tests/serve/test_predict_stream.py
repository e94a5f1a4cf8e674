"""The predict-frame stream is cut from path-code columns.

A fleet keeps its Algorithm-1 paths as ``uint8`` codes: the predict
frames are one mask over the concatenated code rows, each shard is
handed its rows of the stream by numpy indexing, and a runtime's
arrival cursor holds those rows.  The oracle is the string path this
replaces: every frame's path as a Python string, one compare per frame,
one ``FrameRequest`` per predict frame and one append per request to
partition the stream across shards.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import default_chaos_scenario
from repro.faults.runtime import build_chaos_fleet, chaos_runtime
from repro.serve import ServeConfig, ServeRuntime, build_fleet, fleet_requests
from repro.serve.fleet import FleetConfig, FleetRuntime
from repro.serve.request import BypassColumns, BypassFrames, FrameRequest
from repro.serve.runtime import _ARRIVAL
from repro.serve.telemetry import new_ledger
from repro.system.session import PATHS, SessionConfig, decide_paths
from tests.serve.test_arrival_seeding import cursor_entries


def string_fleet_requests(fleet, deadline_s, decisions=None):
    """The string-based stream: each frame's path as a string, compared
    one by one; ``decisions`` defaults to each session's own."""
    if decisions is None:
        decisions = [s.decisions for s in fleet]
    arrivals = np.concatenate([s.arrivals for s in fleet])
    sids = np.repeat([s.session_id for s in fleet], [s.n_frames for s in fleet])
    frames = np.concatenate([np.arange(s.n_frames) for s in fleet])
    paths = [path for row in decisions for path in row]
    order = np.lexsort((frames, sids, arrivals))
    keep = np.fromiter((p == "predict" for p in paths), bool, len(paths))[order]
    order, seqs = order[keep], np.flatnonzero(keep)
    return [
        FrameRequest(sid, f, arrival, arrival + deadline_s, paths[i], seq)
        for i, sid, f, arrival, seq in zip(
            order.tolist(),
            sids[order].tolist(),
            frames[order].tolist(),
            arrivals[order].tolist(),
            seqs.tolist(),
        )
    ]


def string_bypass(session) -> BypassFrames:
    """A session's backlog cut from its decision strings."""
    frames = [f for f, path in enumerate(session.decisions) if path != "predict"]
    return BypassFrames(
        frames,
        session.arrivals[frames].tolist(),
        [session.decisions[f] for f in frames],
    )


def pushed(requests, seq0: int = 0) -> list:
    """The heap one push per request builds, payloads as dicts."""
    return [
        (r.arrival_s, _ARRIVAL, seq0 + i, r.to_dict())
        for i, r in enumerate(requests)
    ]




@st.composite
def serve_configs(draw) -> ServeConfig:
    """Small fleets; zero stagger makes every session arrive at the
    same instants, and the reuse threshold sweeps the predict share."""
    return ServeConfig(
        n_sessions=draw(st.integers(1, 9)),
        duration_s=draw(st.sampled_from([0.03, 0.08, 0.15, 0.6])),
        n_workers=1,
        stagger_s=draw(st.sampled_from([0.0, 0.0005, 0.004, 0.01])),
        reuse_displacement_deg=draw(st.sampled_from([0.05, 0.3, 1.0])),
        seed=draw(st.integers(0, 40)),
    )


@st.composite
def shuffled_subsets(draw):
    """A fleet, and a non-empty subset of it in shuffled order: a
    shard's slice, whose ids need not be dense or sorted."""
    config = draw(serve_configs())
    fleet = build_fleet(config)
    ids = draw(
        st.lists(
            st.integers(0, config.n_sessions - 1),
            min_size=1,
            max_size=config.n_sessions,
            unique=True,
        )
    )
    return config, fleet, [fleet[i] for i in draw(st.permutations(ids))]


class TestStreamOracle:
    @settings(max_examples=60, deadline=None)
    @given(case=shuffled_subsets())
    def test_stream_equals_string_path(self, case):
        config, _, subset = case
        stream = fleet_requests(subset, config.deadline_s)
        expected = string_fleet_requests(subset, config.deadline_s)
        assert len(stream) == len(expected)
        assert [r.to_dict() for r in stream] == [r.to_dict() for r in expected]

    @settings(max_examples=60, deadline=None)
    @given(case=shuffled_subsets())
    def test_runtime_heap_equals_string_path(self, case):
        config, _, subset = case
        runtime = ServeRuntime(config, fleet=subset, stats=new_ledger(subset))
        runtime._event_seq = 3
        runtime.start()
        expected = pushed(string_fleet_requests(subset, config.deadline_s), 3)
        assert cursor_entries(runtime) == expected
        assert runtime._event_seq == 3 + len(expected)

    @settings(max_examples=30, deadline=None)
    @given(
        serve=serve_configs(),
        n_shards=st.integers(1, 5),
        ring_seed=st.integers(0, 5),
    )
    def test_shard_heaps_equal_string_partition(self, serve, n_shards, ring_seed):
        fleet = FleetRuntime(
            FleetConfig(serve=serve, n_shards=n_shards, ring_seed=ring_seed)
        )
        fleet.start()
        slices: dict[int, list] = {shard_id: [] for shard_id in fleet.shards}
        for request in string_fleet_requests(fleet.sessions, serve.deadline_s):
            slices[fleet._session_shard[request.session_id]].append(request)
        for shard_id, shard in fleet.shards.items():
            assert cursor_entries(shard) == pushed(slices[shard_id])
            assert shard._event_seq == len(slices[shard_id])

    @settings(max_examples=60, deadline=None)
    @given(case=shuffled_subsets())
    def test_bypass_from_codes_equals_string_backlog(self, case):
        config, _, subset = case
        columns = BypassColumns(subset, config)
        for session in subset:
            lo, hi = columns.bounds[session.session_id]
            expected = string_bypass(session)
            assert columns.frames[lo:hi].tolist() == expected.frames
            assert columns.arrivals[lo:hi].tolist() == expected.arrivals
            assert PATHS[columns.codes[lo:hi]].tolist() == expected.paths


class TestCodeRows:
    def test_rows_are_read_only_views_of_one_stack(self):
        fleet = build_fleet(ServeConfig(n_sessions=3, duration_s=0.1, seed=2))
        assert all(s.codes.dtype == np.uint8 for s in fleet)
        assert fleet[0].codes.base is fleet[1].codes.base is not None
        with pytest.raises(ValueError):
            fleet[1].codes[0] = 0

    def test_empty_fleet_has_an_empty_stream(self):
        stream = fleet_requests([], 0.01)
        assert len(stream) == 0 and list(stream) == []


class TestChaosFleetCodes:
    @pytest.fixture(scope="class")
    def chaos(self):
        base = default_chaos_scenario(seed=4)
        return replace(base, serve=replace(base.serve, n_sessions=6, duration_s=0.5))

    def test_stream_is_cut_from_its_own_decisions(self, chaos):
        fleet, _ = build_chaos_fleet(chaos)
        config = SessionConfig(
            reuse_displacement_deg=chaos.serve.reuse_displacement_deg,
            post_saccade_low_res=chaos.serve.post_saccade_low_res,
        )
        own = [decide_paths(s.track, config) for s in fleet]
        clean = [s.decisions for s in build_fleet(chaos.serve)]
        # The faults move decisions, so a stale clean row would show.
        assert own != clean
        assert [s.decisions for s in fleet] == own
        deadline_s = chaos.serve.deadline_s
        expected = string_fleet_requests(fleet, deadline_s, own)
        assert [r.to_dict() for r in fleet_requests(fleet, deadline_s)] == [
            r.to_dict() for r in expected
        ]

    def test_heap_holds_the_delivered_own_stream(self, chaos):
        # The cursor the heap's head entry stands for.
        runtime = chaos_runtime(chaos)
        runtime.start()
        deadline_s = chaos.serve.deadline_s
        delivered = runtime.chaos.delivered(
            string_fleet_requests(runtime.fleet, deadline_s)
        )
        assert cursor_entries(runtime) == [
            (t, _ARRIVAL, i, r.to_dict()) for i, (t, r) in enumerate(delivered)
        ]

