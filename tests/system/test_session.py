"""Frame-by-frame session simulation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eye import OculomotorModel
from repro.eye.events import EventMix, MovementType
from repro.eye.motion import GazeTrack, TrackStack, velocities_from_gaze
from repro.render import RES_1080P, RES_720P, scene_by_name
from repro.system import Schedule, TrackerSystemProfile, decide_paths
from repro.system.session import SessionConfig, SessionReport, simulate_session


def make_track(gaze, labels=None, openness=None, fps=100.0):
    gaze = np.asarray(gaze, dtype=float)
    n = gaze.shape[0]
    labels = (
        np.full(n, MovementType.FIXATION, dtype=np.int64)
        if labels is None
        else np.asarray(labels, dtype=np.int64)
    )
    openness = np.ones(n) if openness is None else np.asarray(openness, dtype=float)
    return GazeTrack(
        gaze_deg=gaze,
        labels=labels,
        openness=openness,
        velocity_deg_s=velocities_from_gaze(gaze, 1.0 / fps),
        fps=fps,
    )


@pytest.fixture(scope="module")
def track():
    return OculomotorModel(seed=17).generate(600)


@pytest.fixture
def polo_profile():
    return TrackerSystemProfile(
        "POLO", 0.012, 2.92, td_saccade_s=0.0002, td_reuse_s=0.0002
    )


@pytest.fixture
def baseline_profile():
    return TrackerSystemProfile("ResNet-34", 0.05, 13.15)


SCENE = scene_by_name("C")


class TestSimulateSession:
    def test_timeline_shape(self, track, polo_profile):
        report = simulate_session(polo_profile, track, SCENE, RES_1080P)
        assert report.frame_latency_s.shape == (600,)
        assert len(report.decisions) == 600
        assert (report.frame_latency_s > 0).all()

    def test_event_mix_reflects_behaviour(self, track, polo_profile):
        report = simulate_session(polo_profile, track, SCENE, RES_1080P)
        assert report.event_mix.p_saccade > 0.02  # saccades occurred
        assert report.event_mix.p_reuse > 0.3  # fixations dominate

    def test_baseline_always_predicts(self, track, baseline_profile):
        report = simulate_session(baseline_profile, track, SCENE, RES_1080P)
        assert set(report.decisions) == {"predict"}
        assert report.event_mix.p_predict == 1.0

    def test_polo_faster_than_baseline(self, track, polo_profile, baseline_profile):
        polo = simulate_session(polo_profile, track, SCENE, RES_1080P)
        base = simulate_session(baseline_profile, track, SCENE, RES_1080P)
        assert polo.mean_latency_s < 0.6 * base.mean_latency_s

    def test_parallel_schedule_reduces_latency(self, track, polo_profile):
        seq = simulate_session(polo_profile, track, SCENE, RES_1080P)
        par = simulate_session(
            polo_profile, track, SCENE, RES_1080P, schedule=Schedule.PARALLEL
        )
        assert par.mean_latency_s <= seq.mean_latency_s

    def test_post_saccadic_window_extends_cheap_frames(self, track, polo_profile):
        with_window = simulate_session(
            polo_profile, track, SCENE, RES_1080P, config=SessionConfig()
        )
        without = simulate_session(
            polo_profile,
            track,
            SCENE,
            RES_1080P,
            config=SessionConfig(post_saccade_low_res=False),
        )
        assert with_window.event_mix.p_saccade >= without.event_mix.p_saccade

    def test_deadline_miss_rate(self, track, polo_profile, baseline_profile):
        # At 100 fps (10 ms deadline), everything misses; the summary must
        # report it honestly.
        report = simulate_session(baseline_profile, track, SCENE, RES_720P)
        assert report.deadline_miss_rate == 1.0
        summary = report.summary()
        assert set(summary) >= {"mean_ms", "p99_ms", "miss_rate"}

    def test_empty_track_rejected(self, polo_profile):
        from repro.eye.motion import GazeTrack

        empty = GazeTrack(
            gaze_deg=np.zeros((0, 2)),
            labels=np.zeros(0, dtype=np.int64),
            openness=np.zeros(0),
            velocity_deg_s=np.zeros(0),
            fps=100.0,
        )
        with pytest.raises(ValueError):
            simulate_session(polo_profile, empty, SCENE, RES_1080P)


class TestSessionReport:
    def _mix(self):
        return EventMix.from_counts(n_saccade=0, n_reuse=1, n_predict=1)

    def test_empty_timeline_rejected(self):
        with pytest.raises(ValueError, match="non-empty latency timeline"):
            SessionReport(
                frame_latency_s=np.zeros(0),
                decisions=[],
                event_mix=self._mix(),
                deadline_s=0.01,
                fps=100.0,
            )

    def test_mismatched_decisions_rejected(self):
        with pytest.raises(ValueError, match="decisions length"):
            SessionReport(
                frame_latency_s=np.array([0.001, 0.002]),
                decisions=["predict"],
                event_mix=self._mix(),
                deadline_s=0.01,
                fps=100.0,
            )

    def test_timeline_coerced_to_float64(self):
        report = SessionReport(
            frame_latency_s=[1, 2],
            decisions=["reuse", "predict"],
            event_mix=self._mix(),
            deadline_s=0.01,
            fps=100.0,
        )
        assert report.frame_latency_s.dtype == np.float64
        assert report.mean_latency_s == pytest.approx(1.5)


class TestDecidePaths:
    def test_matches_simulated_session(self, track, polo_profile):
        report = simulate_session(polo_profile, track, SCENE, RES_1080P)
        assert decide_paths(track) == report.decisions

    def test_no_event_gating_means_all_predict(self, track):
        decisions = decide_paths(track, supports_event_gating=False)
        assert set(decisions) == {"predict"}


class TestDecidePathsEdgeCases:
    def test_first_frame_always_predicts(self):
        # No anchor exists yet, so even a perfectly still eye pays one
        # fresh prediction up front.
        track = make_track(np.zeros((4, 2)))
        decisions = decide_paths(track, SessionConfig(reuse_displacement_deg=1.0))
        assert decisions == ["predict", "reuse", "reuse", "reuse"]

    def test_displacement_exactly_at_threshold_predicts(self):
        # The reuse test is strict (<): landing exactly on the boundary
        # is out of budget and must refresh the prediction.
        config = SessionConfig(reuse_displacement_deg=1.0)
        at_boundary = make_track([[0.0, 0.0], [1.0, 0.0]])
        assert decide_paths(at_boundary, config) == ["predict", "predict"]
        inside = make_track([[0.0, 0.0], [1.0 - 1e-9, 0.0]])
        assert decide_paths(inside, config) == ["predict", "reuse"]

    def test_anchor_is_last_prediction_not_last_frame(self):
        # Drift of 0.6°/frame with a 1° budget: reuse holds only while
        # the *cumulative* displacement from the anchor stays inside.
        config = SessionConfig(reuse_displacement_deg=1.0)
        track = make_track([[0.0, 0.0], [0.6, 0.0], [1.2, 0.0]])
        assert decide_paths(track, config) == ["predict", "reuse", "predict"]

    def test_blink_occluded_frames_follow_anchor_logic(self):
        # A blink is not a saccade: near the anchor it reuses, far from
        # it (eye reopened elsewhere) it refreshes.
        config = SessionConfig(reuse_displacement_deg=1.0)
        labels = [MovementType.FIXATION, MovementType.BLINK, MovementType.BLINK]
        near = make_track(
            [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]], labels=labels,
            openness=[1.0, 0.05, 0.05],
        )
        assert decide_paths(near, config) == ["predict", "reuse", "reuse"]
        far = make_track(
            [[0.0, 0.0], [0.1, 0.0], [5.0, 0.0]], labels=labels,
            openness=[1.0, 0.05, 0.05],
        )
        assert decide_paths(far, config) == ["predict", "reuse", "predict"]

    def test_saccade_onset_wins_over_reuse_at_zero_displacement(self):
        # Frame 2 is labelled saccade while still at the anchor: the
        # saccade path takes priority over an in-budget displacement.
        labels = [MovementType.FIXATION, MovementType.FIXATION, MovementType.SACCADE]
        track = make_track(np.zeros((3, 2)), labels=labels)
        decisions = decide_paths(track, SessionConfig(reuse_displacement_deg=1.0))
        assert decisions == ["predict", "reuse", "saccade"]

    def test_post_saccade_window_respects_flag(self):
        # One saccade frame, then stillness: with the 50 ms low-acuity
        # window on, the following frames ride the saccade path; with it
        # off they fall back to the displacement rule.
        labels = [MovementType.SACCADE] + [MovementType.FIXATION] * 6
        track = make_track(np.zeros((7, 2)), labels=labels)
        on = decide_paths(track, SessionConfig(post_saccade_low_res=True))
        assert on[:6] == ["saccade"] * 6  # saccade + 5-frame window at 100 fps
        assert on[6] == "predict"  # first ungated frame, no anchor yet
        off = decide_paths(track, SessionConfig(post_saccade_low_res=False))
        assert off == ["saccade", "predict"] + ["reuse"] * 5

    def test_empty_track_rejected(self):
        empty = GazeTrack(
            gaze_deg=np.zeros((0, 2)),
            labels=np.zeros(0, dtype=np.int64),
            openness=np.zeros(0),
            velocity_deg_s=np.zeros(0),
            fps=100.0,
        )
        with pytest.raises(ValueError, match="empty gaze track"):
            decide_paths(empty)


def scalar_decide_paths(track, config, supports_event_gating=True):
    """Reference: Algorithm 1 frame by frame, one ``np.linalg.norm`` each."""
    decisions = []
    anchor = None  # gaze at the last fresh prediction
    for i in range(len(track)):
        if not supports_event_gating:
            path = "predict"
        elif track.labels[i] == MovementType.SACCADE or (
            config.post_saccade_low_res and track.post_saccade[i]
        ):
            path = "saccade"
        elif (
            anchor is not None
            and float(np.linalg.norm(track.gaze_deg[i] - anchor))
            < config.reuse_displacement_deg
        ):
            path = "reuse"
        else:
            path = "predict"
        if path == "predict":
            anchor = track.gaze_deg[i]
        decisions.append(path)
    return decisions


@st.composite
def gated_stacks(draw, max_rows=6):
    """Equal-length tracks, a threshold and flags for the decide_paths
    oracle tests.

    Three gaze families: free floats; a lattice of step ``u`` with the
    threshold at ``5u``, so (5, 0) and (3, 4) moves land exactly on it;
    and free floats with the threshold set to one frame's
    ``np.linalg.norm`` from frame 0 of one row (exactly on it in numpy's
    rounding).
    """
    n_rows = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, 40))
    family = draw(st.sampled_from(["free", "lattice", "norm"]))
    fps = draw(st.sampled_from([60.0, 100.0, 120.0]))
    if family == "lattice":
        u = draw(st.integers(1, 256)) / 256.0
        cells = st.lists(st.integers(-8, 8), min_size=2 * n, max_size=2 * n)
        rows = [
            np.array(draw(cells), dtype=float).reshape(n, 2) * u for _ in range(n_rows)
        ]
        threshold = 5.0 * u
    else:
        coords = st.lists(
            st.floats(-10.0, 10.0, allow_nan=False), min_size=2 * n, max_size=2 * n
        )
        rows = [np.array(draw(coords)).reshape(n, 2) for _ in range(n_rows)]
        threshold = draw(st.floats(0.01, 5.0))
        if family == "norm" and n > 1:
            gaze = rows[draw(st.integers(0, n_rows - 1))]
            j = draw(st.integers(1, n - 1))
            distance = float(np.linalg.norm(gaze[j] - gaze[0]))
            if distance > 0:
                threshold = distance
    kinds = st.lists(st.sampled_from(list(MovementType)), min_size=n, max_size=n)
    tracks = [
        make_track(gaze, labels=[int(m) for m in draw(kinds)], fps=fps) for gaze in rows
    ]
    config = SessionConfig(
        reuse_displacement_deg=threshold,
        post_saccade_low_res=draw(st.booleans()),
    )
    return tracks, config, draw(st.booleans())


def gated_tracks():
    """One track, a threshold and flags (:func:`gated_stacks`' one-row case)."""
    return gated_stacks(max_rows=1).map(lambda case: (case[0][0], *case[1:]))


class TestDecidePathsOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=gated_tracks())
    def test_matches_scalar_loop(self, case):
        track, config, gating = case
        assert decide_paths(track, config, supports_event_gating=gating) == (
            scalar_decide_paths(track, config, supports_event_gating=gating)
        )

    @settings(max_examples=200, deadline=None)
    @given(case=gated_stacks())
    def test_stack_matches_scalar_loop_row_by_row(self, case):
        tracks, config, gating = case
        assert decide_paths(
            TrackStack.of(tracks), config, supports_event_gating=gating
        ) == [
            scalar_decide_paths(track, config, supports_event_gating=gating)
            for track in tracks
        ]

    def test_matches_scalar_loop_on_generated_traces(self, track):
        for threshold in (0.01, 0.05, 1.0, 5.0):
            for post_saccade in (True, False):
                config = SessionConfig(threshold, post_saccade)
                assert decide_paths(track, config) == scalar_decide_paths(
                    track, config
                )

    def test_diagonal_step_on_threshold_predicts(self):
        # A (3, 4) move against a 5-unit threshold, all in exact binary
        # fractions, lands exactly on the boundary.
        config = SessionConfig(reuse_displacement_deg=0.625)
        track = make_track([[0.0, 0.0], [0.375, 0.5], [0.375, 0.5]])
        assert decide_paths(track, config) == ["predict", "predict", "reuse"]


class TestSessionReportDegradedMix:
    def test_report_with_degraded_path_frames(self):
        # A chaos-style timeline: some frames served full-res (no gaze
        # stage) and some degraded to reuse; the aggregates must hold.
        latencies = np.array([1e-4, 1e-4, 5e-3, 1.2e-2, 1e-4])
        report = SessionReport(
            frame_latency_s=latencies,
            decisions=["reuse", "full_res", "predict", "predict", "reuse"],
            event_mix=EventMix.from_counts(0, 3, 2),
            deadline_s=0.01,
            fps=100.0,
        )
        assert report.deadline_miss_rate == pytest.approx(0.2)
        assert report.mean_latency_s == pytest.approx(latencies.mean())
        summary = report.summary()
        assert summary["miss_rate"] == pytest.approx(0.2)
        assert summary["p_predict"] == pytest.approx(0.4)
