"""Oculomotor model: §2.1's behavioural statistics."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eye import (
    MovementType,
    OculomotorConfig,
    OculomotorModel,
    segments_from_labels,
)
from repro.eye.motion import POST_SACCADE_S, GazeTrack, generate_tracks
from repro.serve.config import ServeConfig
from repro.serve.request import build_fleet
from repro.system.session import PATHS, SessionConfig, decide_paths
from repro.utils.rng import RngMixin
from tests.eye.test_events import scalar_post_saccade_mask


@pytest.fixture(scope="module")
def track():
    return OculomotorModel(seed=3).generate(3000)  # 30 s at 100 fps


class TestTrajectoryStatistics:
    def test_lengths_consistent(self, track):
        assert len(track) == 3000
        assert track.gaze_deg.shape == (3000, 2)
        assert track.labels.shape == (3000,)
        assert track.openness.shape == (3000,)

    def test_gaze_within_field(self, track):
        limit = OculomotorConfig().field_deg / 2 + 1.0  # tremor slack
        assert np.abs(track.gaze_deg).max() <= limit

    def test_saccade_rate_one_to_three_per_second(self, track):
        segments = segments_from_labels(track.labels)
        n_saccades = sum(1 for s in segments if s.kind == MovementType.SACCADE)
        duration_s = len(track) / track.fps
        rate = n_saccades / duration_s
        assert 0.7 <= rate <= 3.5

    def test_saccade_durations_in_published_range(self, track):
        segments = segments_from_labels(track.labels)
        for seg in segments:
            if seg.kind == MovementType.SACCADE:
                ms = seg.length / track.fps * 1000
                assert 15.0 <= ms <= 220.0

    def test_saccade_frames_have_high_velocity(self, track):
        saccadic = track.labels == MovementType.SACCADE
        fixating = track.labels == MovementType.FIXATION
        assert track.velocity_deg_s[saccadic].mean() > 5 * max(
            track.velocity_deg_s[fixating].mean(), 1e-6
        )

    def test_fixation_durations_plausible(self, track):
        segments = segments_from_labels(track.labels)
        fixations = [s for s in segments if s.kind == MovementType.FIXATION]
        # Blinks can split fixations, so only check the upper bound and
        # that typical fixations are not degenerate.
        lengths_ms = np.array([s.length / track.fps * 1000 for s in fixations])
        assert np.median(lengths_ms) >= 100.0
        assert lengths_ms.max() <= 700.0

    def test_post_saccade_mask_follows_saccades(self, track):
        mask = track.post_saccade
        saccadic = track.labels == MovementType.SACCADE
        # post-saccadic frames are never themselves saccadic
        assert not np.any(mask & saccadic)
        # each saccade end is followed by at least one flagged frame
        ends = np.flatnonzero(saccadic[:-1] & ~saccadic[1:])
        for end in ends:
            assert mask[end + 1] or track.labels[end + 1] != MovementType.FIXATION

    def test_blinks_close_the_eye(self):
        config = OculomotorConfig(blink_rate_hz=2.0)
        track = OculomotorModel(config, seed=11).generate(2000)
        assert (track.openness < 0.2).any()
        assert (track.labels[track.openness < 0.2] == MovementType.BLINK).all()

    def test_pursuit_segments_have_moderate_velocity(self):
        config = OculomotorConfig(pursuit_probability=0.6)
        track = OculomotorModel(config, seed=2).generate(2000)
        pursuit = track.labels == MovementType.PURSUIT
        assert pursuit.any()
        speeds = track.velocity_deg_s[pursuit]
        assert 1.0 < np.median(speeds) < 40.0


class TestDeterminismAndValidation:
    def test_seeded_reproducibility(self):
        a = OculomotorModel(seed=9).generate(500)
        b = OculomotorModel(seed=9).generate(500)
        np.testing.assert_allclose(a.gaze_deg, b.gaze_deg)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            OculomotorModel(seed=0).generate(0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OculomotorConfig(fps=0)
        with pytest.raises(ValueError):
            OculomotorConfig(pursuit_probability=1.5)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=50))
    def test_any_length_fully_labelled(self, n_frames, seed):
        track = OculomotorModel(seed=seed).generate(n_frames)
        assert len(track) == n_frames
        valid_labels = {int(m) for m in MovementType}
        assert set(np.unique(track.labels)).issubset(valid_labels)
        assert np.isfinite(track.gaze_deg).all()


# ----------------------------------------------------------------------
# Oracle: the per-segment generator that ``generate`` replaced, verbatim
# (numpy calls per segment, scalar ``rng.uniform`` draws).  ``generate``
# must match it bit for bit and consume the same draws.
# ----------------------------------------------------------------------
def _scalar_minimum_jerk(n: int) -> np.ndarray:
    tau = np.linspace(0.0, 1.0, n)
    return 10 * tau**3 - 15 * tau**4 + 6 * tau**5


def _scalar_velocities(gaze: np.ndarray, dt: float) -> np.ndarray:
    deltas = np.linalg.norm(np.diff(gaze, axis=0), axis=1) / dt
    return np.concatenate([[0.0], deltas])


class _ScalarOculomotorModel(RngMixin):
    def __init__(self, config, seed=None):
        super().__init__(seed)
        self.config = config

    def generate(self, n_frames):
        cfg = self.config
        dt = 1.0 / cfg.fps

        gaze = np.zeros((n_frames, 2))
        labels = np.zeros(n_frames, dtype=np.int64)
        openness = np.ones(n_frames)

        position = self.rng.uniform(-cfg.field_deg / 2, cfg.field_deg / 2, size=2)
        t = 0
        while t < n_frames:
            roll = self.rng.random()
            if roll < cfg.pursuit_probability:
                t, position = self._emit_pursuit(gaze, labels, position, t, n_frames)
            else:
                t, position = self._emit_fixation(gaze, labels, position, t, n_frames)
                if t < n_frames:
                    t, position = self._emit_saccade(gaze, labels, position, t, n_frames)

        self._baseline_openness(openness, n_frames)
        self._overlay_blinks(openness, n_frames)
        velocity = _scalar_velocities(gaze, dt)
        labels[openness < 0.2] = MovementType.BLINK
        window = max(1, int(round(0.05 * cfg.fps)))
        return gaze, labels, openness, velocity, scalar_post_saccade_mask(labels, window)

    def _emit_fixation(self, gaze, labels, position, t, n_frames):
        cfg = self.config
        duration = self.rng.uniform(*cfg.fixation_duration_s)
        n = max(1, int(round(duration * cfg.fps)))
        stop = min(t + n, n_frames)
        count = stop - t
        drift_dir = self.rng.normal(size=2)
        drift_dir /= np.linalg.norm(drift_dir) + 1e-9
        drift = (
            np.outer(np.arange(count), drift_dir)
            * cfg.drift_speed_deg_s
            / cfg.fps
        )
        tremor = self.rng.normal(0.0, cfg.tremor_std_deg, size=(count, 2))
        gaze[t:stop] = position + drift + tremor
        labels[t:stop] = MovementType.FIXATION
        new_position = gaze[stop - 1].copy() if count else position
        return stop, new_position

    def _emit_saccade(self, gaze, labels, position, t, n_frames):
        cfg = self.config
        target = self._sample_target(position)
        amplitude = float(np.linalg.norm(target - position))
        duration_ms = cfg.main_sequence_intercept_ms + cfg.main_sequence_slope_ms * amplitude
        n = max(2, int(round(duration_ms / 1000.0 * cfg.fps)))
        stop = min(t + n, n_frames)
        count = stop - t
        profile = _scalar_minimum_jerk(n)[:count]
        gaze[t:stop] = position + np.outer(profile, target - position)
        labels[t:stop] = MovementType.SACCADE
        return stop, (target if stop == t + n else gaze[stop - 1].copy())

    def _emit_pursuit(self, gaze, labels, position, t, n_frames):
        cfg = self.config
        duration = self.rng.uniform(*cfg.pursuit_duration_s)
        speed = self.rng.uniform(*cfg.pursuit_speed_deg_s)
        n = max(2, int(round(duration * cfg.fps)))
        stop = min(t + n, n_frames)
        count = stop - t
        direction = self.rng.normal(size=2)
        direction /= np.linalg.norm(direction) + 1e-9
        path = position + np.outer(np.arange(count) * speed / cfg.fps, direction)
        limit = cfg.field_deg / 2
        path = np.clip(path, -limit, limit)
        gaze[t:stop] = path
        labels[t:stop] = MovementType.PURSUIT
        return stop, gaze[stop - 1].copy() if count else position

    def _sample_target(self, position):
        cfg = self.config
        limit = cfg.field_deg / 2
        for _ in range(32):
            amplitude = self.rng.uniform(*cfg.saccade_amplitude_deg)
            angle = self.rng.uniform(0, 2 * np.pi)
            target = position + amplitude * np.array([np.cos(angle), np.sin(angle)])
            if np.all(np.abs(target) <= limit):
                return target
        return np.clip(target, -limit, limit)

    def _baseline_openness(self, openness, n_frames):
        cfg = self.config
        t = 0
        while t < n_frames:
            duration = self.rng.uniform(*cfg.openness_segment_s)
            stop = min(t + max(1, int(round(duration * cfg.fps))), n_frames)
            if self.rng.random() < cfg.squint_probability:
                level = self.rng.uniform(*cfg.squint_level)
            else:
                level = self.rng.uniform(*cfg.normal_level)
            openness[t:stop] = level
            t = stop

    def _overlay_blinks(self, openness, n_frames):
        cfg = self.config
        expected = cfg.blink_rate_hz * n_frames / cfg.fps
        n_blinks = self.rng.poisson(expected)
        for _ in range(n_blinks):
            start = int(self.rng.integers(0, n_frames))
            duration = self.rng.uniform(*cfg.blink_duration_s)
            n = max(2, int(round(duration * cfg.fps)))
            stop = min(start + n, n_frames)
            count = stop - start
            half = count / 2.0
            profile = 1.0 - np.minimum(np.arange(count) + 1, count - np.arange(count)) / half
            openness[start:stop] = np.minimum(openness[start:stop], np.clip(profile, 0.0, 1.0))


def scalar_generate(config, seed, n_frames):
    """``(gaze, labels, openness, velocity, post_saccade, rng)`` from the
    per-segment reference; ``rng`` is left where the draws stopped."""
    model = _ScalarOculomotorModel(config, seed=seed)
    return (*model.generate(n_frames), model.rng)


@st.composite
def oracle_cases(draw):
    """A seed, a length, a frame rate and a config variant.

    The variants reach every branch: no, the default, frequent or only
    pursuits; a 3-degree field, where most saccade targets fall outside
    so ``_sample_target`` uses all 32 tries and clips, and pursuits hit
    the field edge; blinks several times a second; never or always
    squinting.
    """
    config = OculomotorConfig(
        fps=draw(st.sampled_from([30.0, 60.0, 100.0, 120.0, 240.0])),
        pursuit_probability=draw(st.sampled_from([0.0, 0.08, 0.5, 1.0])),
        field_deg=draw(st.sampled_from([22.0, 3.0])),
        blink_rate_hz=draw(st.sampled_from([0.25, 4.0])),
        squint_probability=draw(st.sampled_from([0.22, 0.0, 1.0])),
    )
    return draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 400)), config


class TestGenerateOracle:
    @settings(max_examples=300, deadline=None)
    @given(case=oracle_cases())
    def test_matches_per_segment_generator(self, case):
        seed, n_frames, config = case
        model = OculomotorModel(config, seed=seed)
        track = model.generate(n_frames)
        gaze, labels, openness, velocity, post_saccade, rng = scalar_generate(
            config, seed, n_frames
        )
        np.testing.assert_array_equal(track.gaze_deg, gaze)
        np.testing.assert_array_equal(track.labels, labels)
        np.testing.assert_array_equal(track.openness, openness)
        np.testing.assert_array_equal(track.velocity_deg_s, velocity)
        np.testing.assert_array_equal(track.post_saccade, post_saccade)
        assert track.labels.dtype == labels.dtype
        # Same draws consumed: a shared generator continues identically.
        assert model.rng.bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("pursuit_probability", [0.0, 1.0])
    def test_field_edge_clipping_is_exercised(self, pursuit_probability):
        # In a 3-degree field, saccade targets that miss 32 times and
        # pursuits that reach the edge both land exactly on it.
        config = OculomotorConfig(field_deg=3.0, pursuit_probability=pursuit_probability)
        track = OculomotorModel(config, seed=4).generate(400)
        gaze = scalar_generate(config, 4, 400)[0]
        assert (np.abs(gaze) == 1.5).any()
        np.testing.assert_array_equal(track.gaze_deg, gaze)

    def test_post_saccade_window_is_named_once(self):
        for fps in (30.0, 100.0, 240.0):
            track = OculomotorModel(OculomotorConfig(fps=fps), seed=1).generate(300)
            window = max(1, int(round(POST_SACCADE_S * fps)))
            np.testing.assert_array_equal(
                track.post_saccade, scalar_post_saccade_mask(track.labels, window)
            )
        assert not hasattr(OculomotorConfig(), "post_saccade_s")


class TestGenerateTracksOracle:
    """A stack of traces is the per-segment reference, row by row."""

    @settings(max_examples=150, deadline=None)
    @given(
        case=oracle_cases(),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8, unique=True),
    )
    def test_stack_matches_per_segment_generator(self, case, seeds):
        _, n_frames, config = case
        models = [OculomotorModel(config, seed=seed) for seed in seeds]
        stack = generate_tracks(models, n_frames)
        assert len(stack) == len(seeds)
        assert stack.gaze_deg.shape == (len(seeds), n_frames, 2)
        for i, (model, seed) in enumerate(zip(models, seeds)):
            gaze, labels, openness, velocity, post_saccade, rng = scalar_generate(
                config, seed, n_frames
            )
            np.testing.assert_array_equal(stack.gaze_deg[i], gaze)
            np.testing.assert_array_equal(stack.labels[i], labels)
            np.testing.assert_array_equal(stack.openness[i], openness)
            np.testing.assert_array_equal(stack.velocity_deg_s[i], velocity)
            np.testing.assert_array_equal(stack.post_saccade[i], post_saccade)
            assert model.rng.bit_generator.state == rng.bit_generator.state

    def test_models_must_share_a_config(self):
        models = [
            OculomotorModel(OculomotorConfig(), seed=0),
            OculomotorModel(OculomotorConfig(fps=60.0), seed=1),
        ]
        with pytest.raises(ValueError, match="share one OculomotorConfig"):
            generate_tracks(models, 10)
        with pytest.raises(ValueError, match="at least one model"):
            generate_tracks([], 10)


TRACK_ARRAYS = ("gaze_deg", "labels", "openness", "velocity_deg_s", "post_saccade")


class TestFleetRows:
    CONFIG = ServeConfig(seed=3, n_sessions=6, duration_s=0.5)

    def test_fleet_row_equals_lone_generate(self):
        config = self.CONFIG
        session_config = SessionConfig(
            reuse_displacement_deg=config.reuse_displacement_deg,
            post_saccade_low_res=config.post_saccade_low_res,
        )
        for session in build_fleet(config):
            model = OculomotorModel(
                OculomotorConfig(fps=config.fps),
                seed=config.seed * 10007 + session.session_id,
            )
            lone = model.generate(config.frames_per_session)
            for name in TRACK_ARRAYS:
                np.testing.assert_array_equal(
                    getattr(session.track, name), getattr(lone, name)
                )
            assert PATHS[session.codes].tolist() == decide_paths(lone, session_config)

    @pytest.mark.parametrize("name", TRACK_ARRAYS)
    def test_writing_into_a_session_track_raises(self, name):
        fleet = build_fleet(self.CONFIG)
        before = getattr(fleet[2].track, name).copy()
        with pytest.raises(ValueError, match="read-only"):
            getattr(fleet[1].track, name)[0] = 0
        np.testing.assert_array_equal(getattr(fleet[2].track, name), before)


#: sha256 of ``build_fleet``'s gaze, labels, openness and decisions for the
#: benchmark's three fleet configs at seeds 0 and 1, computed with the
#: per-segment generator.  Any bit of drift in draw order or rounding
#: changes them, even if the reference copy above is edited.
FLEET_TRACE_DIGESTS = {
    ("fleet_bypass", 0): "07d36e596eb599573f06bd4ba0d79dc71fc8c77f88b6373fdf7076c8b61ea397",
    ("fleet_bypass", 1): "c71fd8e76134f67a7734f918362167748697c13432b5c028584f83c55639bf6a",
    ("fleet_predict", 0): "2234f354d30b68130bdc83e599f3b87c100478e0a9a511773133ea60bf481536",
    ("fleet_predict", 1): "213b4fa83222da5c179312e6fb263eda1142c81f04dbc317fd5d375e2f41c28e",
    ("fleet_net", 0): "170846cc0f2030c4b21908f015065b30e2789b154e7ce8a922fa3030e16cf0b9",
    ("fleet_net", 1): "01a642cd71d01d13e8b3a113afd1a9d1fbfd9d2afa853fc7b5bd8e04ab206aba",
}

FLEET_SERVE_CONFIGS = {
    "fleet_bypass": dict(n_sessions=1000, n_workers=2, duration_s=1.5),
    "fleet_predict": dict(
        n_sessions=800, n_workers=2, duration_s=1.5,
        reuse_displacement_deg=0.05, queue_budget_deadlines=0.8,
    ),
    "fleet_net": dict(n_sessions=320, n_workers=2, duration_s=3.0),
}


def fleet_trace_digest(fleet) -> str:
    digest = hashlib.sha256()
    for session in fleet:
        track: GazeTrack = session.track
        digest.update(np.ascontiguousarray(track.gaze_deg, dtype="<f8").tobytes())
        digest.update(np.ascontiguousarray(track.labels, dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(track.openness, dtype="<f8").tobytes())
        digest.update("\n".join(PATHS[session.codes].tolist()).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name, seed", sorted(FLEET_TRACE_DIGESTS))
def test_fleet_traces_are_pinned(name, seed):
    config = ServeConfig(seed=seed, **FLEET_SERVE_CONFIGS[name])
    assert fleet_trace_digest(build_fleet(config)) == FLEET_TRACE_DIGESTS[(name, seed)]
