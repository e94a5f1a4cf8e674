"""End-to-end TFR latency composition (Eqs. 6-8, Fig. 11 schedules)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.eye.events import EventMix
from repro.render import RES_1080P, scene_by_name
from repro.system import (
    Schedule,
    TfrSystem,
    TrackerSystemProfile,
    vive_pro_eye_profile,
)


@pytest.fixture
def system():
    return TfrSystem()


@pytest.fixture
def polo_profile():
    return TrackerSystemProfile(
        "POLO",
        td_predict_s=0.012,
        delta_theta_deg=2.92,
        td_saccade_s=0.0002,
        td_reuse_s=0.0002,
    )


@pytest.fixture
def baseline_profile():
    return TrackerSystemProfile("ResNet-34", td_predict_s=0.045, delta_theta_deg=13.15)


SCENE = scene_by_name("E")


class TestProfiles:
    def test_event_gating_detection(self, polo_profile, baseline_profile):
        assert polo_profile.supports_event_gating
        assert not baseline_profile.supports_event_gating

    def test_td_for_path_fallback(self, baseline_profile):
        assert baseline_profile.td_for_path("saccade") == baseline_profile.td_predict_s
        with pytest.raises(ValueError):
            baseline_profile.td_for_path("warp")

    def test_with_delta_theta(self, polo_profile):
        other = polo_profile.with_delta_theta(1.0)
        assert other.delta_theta_deg == 1.0
        assert other.td_predict_s == polo_profile.td_predict_s

    def test_validation(self):
        with pytest.raises(ValueError):
            TrackerSystemProfile("x", td_predict_s=0.0, delta_theta_deg=1.0)
        with pytest.raises(ValueError):
            TrackerSystemProfile("x", td_predict_s=0.01, delta_theta_deg=-1.0)

    def test_nan_error_rejected_inf_kept(self, polo_profile):
        with pytest.raises(ValueError, match="non-negative"):
            TrackerSystemProfile("x", td_predict_s=0.01, delta_theta_deg=float("nan"))
        with pytest.raises(ValueError, match="non-negative"):
            polo_profile.with_delta_theta(float("nan"))
        worst = TrackerSystemProfile("x", td_predict_s=0.01, delta_theta_deg=float("inf"))
        assert worst.delta_theta_deg == float("inf")


class TestSequentialComposition:
    def test_frame_latency_is_sum_of_stages(self, system, polo_profile):
        frame = system.frame_latency(polo_profile, SCENE, RES_1080P, "predict")
        assert frame.total_s == pytest.approx(
            frame.sensing_s + frame.communication_s + frame.gaze_s + frame.rendering_s
        )
        assert frame.sensing_s == pytest.approx(1e-3)
        assert frame.communication_s < 1e-3

    def test_sensing_and_comm_are_small_fraction(self, system, polo_profile):
        """Fig. 4b: Ts + Tc are a small fraction of the total."""
        frame = system.frame_latency(polo_profile, SCENE, RES_1080P)
        assert (frame.sensing_s + frame.communication_s) / frame.total_s < 0.1

    def test_saccade_path_cheapest(self, system, polo_profile):
        saccade = system.frame_latency(polo_profile, SCENE, RES_1080P, "saccade")
        reuse = system.frame_latency(polo_profile, SCENE, RES_1080P, "reuse")
        predict = system.frame_latency(polo_profile, SCENE, RES_1080P, "predict")
        assert saccade.total_s < reuse.total_s < predict.total_s

    def test_full_resolution_comparator(self, system, polo_profile):
        full = system.full_resolution_latency(SCENE, RES_1080P)
        foveated = system.frame_latency(polo_profile, SCENE, RES_1080P).total_s
        assert full > 2 * foveated


class TestParallelSchedule:
    def test_parallel_never_slower(self, system, polo_profile, baseline_profile):
        for profile in (polo_profile, baseline_profile):
            for path in ("predict", "saccade"):
                seq = system.frame_latency(
                    profile, SCENE, RES_1080P, path, Schedule.SEQUENTIAL
                ).total_s
                par = system.frame_latency(
                    profile, SCENE, RES_1080P, path, Schedule.PARALLEL
                ).total_s
                assert par <= seq + 1e-12

    def test_parallel_hides_fast_gaze_behind_r1(self, system, polo_profile):
        """POLO's Td < Tr1, so the parallel total is R1 + R2 exactly."""
        frame = system.frame_latency(
            polo_profile, SCENE, RES_1080P, "predict", Schedule.PARALLEL
        )
        assert frame.total_s == pytest.approx(frame.r1_s + frame.r2_s)

    def test_parallel_bound_by_slow_gaze(self, system):
        slow = TrackerSystemProfile("slow", td_predict_s=0.2, delta_theta_deg=10.0)
        frame = system.frame_latency(slow, SCENE, RES_1080P, "predict", Schedule.PARALLEL)
        expected = system.ts + system.tc + 0.2 + frame.r2_s
        assert frame.total_s == pytest.approx(expected)


class TestAveragesAndFps:
    def test_event_mix_weighting(self, system, polo_profile):
        mix = EventMix(0.1, 0.7, 0.2)
        parts = {
            path: system.frame_latency(polo_profile, SCENE, RES_1080P, path).total_s
            for path in ("saccade", "reuse", "predict")
        }
        expected = 0.1 * parts["saccade"] + 0.7 * parts["reuse"] + 0.2 * parts["predict"]
        avg = system.average_latency(polo_profile, SCENE, RES_1080P, mix)
        assert avg == pytest.approx(expected)

    def test_baselines_ignore_event_mix(self, system, baseline_profile):
        mix = EventMix(0.1, 0.7, 0.2)
        avg = system.average_latency(baseline_profile, SCENE, RES_1080P, mix)
        predict = system.frame_latency(baseline_profile, SCENE, RES_1080P).total_s
        assert avg == pytest.approx(predict)

    def test_fps_is_reciprocal(self, system, polo_profile):
        mix = EventMix(0.1, 0.7, 0.2)
        avg = system.average_latency(polo_profile, SCENE, RES_1080P, mix)
        assert system.fps_max(polo_profile, SCENE, RES_1080P, mix) == pytest.approx(1 / avg)

    def test_event_mix_improves_average(self, system, polo_profile):
        """Reuse/saccade gating lowers the average below always-predicting."""
        mix = EventMix(0.1, 0.7, 0.2)
        gated = system.average_latency(polo_profile, SCENE, RES_1080P, mix)
        always = system.average_latency(polo_profile, SCENE, RES_1080P, None)
        assert gated < always


class TestCommercialProfile:
    def test_vive_profile_shape(self, system):
        vive = vive_pro_eye_profile()
        assert vive.td_predict_s == pytest.approx(0.050)
        assert not vive.supports_event_gating
        frame = system.frame_latency(vive, SCENE, RES_1080P)
        assert frame.total_s > 0.05
