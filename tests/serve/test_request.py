"""Fleet construction and global request ordering."""

import numpy as np
import pytest

from repro.serve import ServeConfig, build_fleet, fleet_requests
from repro.system.session import PATHS


@pytest.fixture(scope="module")
def config():
    return ServeConfig(n_sessions=4, duration_s=0.5, fps=100.0, seed=3)


@pytest.fixture(scope="module")
def fleet(config):
    return build_fleet(config)


class TestBuildFleet:
    def test_fleet_shape(self, config, fleet):
        assert len(fleet) == 4
        for i, session in enumerate(fleet):
            assert session.session_id == i
            assert session.n_frames == config.frames_per_session
            assert len(session.codes) == session.n_frames
            assert session.start_s == pytest.approx(i * config.stagger_s)

    def test_sessions_are_independent_traces(self, fleet):
        assert not np.allclose(fleet[0].track.gaze_deg, fleet[1].track.gaze_deg)

    def test_decisions_use_algorithm1_vocabulary(self, fleet):
        for session in fleet:
            assert set(PATHS[session.codes].tolist()) <= {"saccade", "reuse", "predict"}

    def test_deterministic_rebuild(self, config, fleet):
        again = build_fleet(config)
        for a, b in zip(fleet, again):
            np.testing.assert_array_equal(a.track.gaze_deg, b.track.gaze_deg)
            assert PATHS[a.codes].tolist() == PATHS[b.codes].tolist()

    def test_arrival_clock(self, fleet):
        session = fleet[2]
        assert session.arrivals[0] == pytest.approx(session.start_s)
        assert session.arrivals[10] == pytest.approx(session.start_s + 0.1)


def predict_frames(sessions) -> int:
    return sum(PATHS[s.codes].tolist().count("predict") for s in sessions)


class TestFleetRequests:
    def test_global_arrival_order_and_seq(self, config, fleet):
        # Only predict frames become requests; seq is the frame's rank
        # among all frames in (arrival, session, frame) order.
        requests = fleet_requests(fleet, config.deadline_s)
        everything = sorted(
            (float(s.arrivals[f]), s.session_id, f)
            for s in fleet
            for f in range(s.n_frames)
        )
        predict = [
            (rank, key)
            for rank, key in enumerate(everything)
            if PATHS[fleet[key[1]].codes[key[2]]] == "predict"
        ]
        assert 0 < len(requests) == predict_frames(fleet) < len(everything)
        assert [
            (r.seq, (r.arrival_s, r.session_id, r.frame_index)) for r in requests
        ] == predict

    def test_absolute_deadlines(self, config, fleet):
        for r in fleet_requests(fleet, config.deadline_s)[:50]:
            assert r.deadline_s == pytest.approx(r.arrival_s + config.deadline_s)

    def test_paths_match_session_decisions(self, config, fleet):
        for r in fleet_requests(fleet, config.deadline_s)[:200]:
            assert r.path == PATHS[fleet[r.session_id].codes[r.frame_index]]

    @pytest.mark.parametrize("order", [[1, 0], [2, 3], [3, 1]])
    def test_reordered_sparse_fleet_takes_each_sessions_paths(
        self, config, fleet, order
    ):
        # A shard's slice of the fleet: any order, ids not dense.
        subset = [fleet[i] for i in order]
        requests = fleet_requests(subset, config.deadline_s)
        assert len(requests) == predict_frames(subset)
        assert {r.session_id for r in requests} == set(order)
        for r in requests:
            assert r.path == PATHS[fleet[r.session_id].codes[r.frame_index]]

    def test_arrivals_bit_equal_session_clock(self, config, fleet):
        for r in fleet_requests(fleet, config.deadline_s):
            session = fleet[r.session_id]
            assert r.arrival_s == session.arrivals[r.frame_index]
            assert r.deadline_s == r.arrival_s + config.deadline_s

    def test_arrival_ties_order_by_session_then_frame(self):
        config = ServeConfig(
            n_sessions=3, duration_s=0.1, fps=100.0, seed=3, stagger_s=0.0
        )
        fleet = build_fleet(config)
        requests = fleet_requests(list(reversed(fleet)), config.deadline_s)
        keys = [(r.arrival_s, r.session_id, r.frame_index) for r in requests]
        assert keys == sorted(keys)
        # Zero stagger: sessions tie at every instant, in id order.
        tied = [
            (a.session_id, b.session_id)
            for a, b in zip(requests, requests[1:])
            if a.arrival_s == b.arrival_s
        ]
        assert tied and all(first < second for first, second in tied)
        for r in requests:
            assert r.arrival_s == fleet[r.session_id].arrivals[r.frame_index]
