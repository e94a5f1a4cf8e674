"""Acuity falloff and the visible-difference model (Fig. 11e)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.perception import (
    VdpConfig,
    acuity_limited_shading_rate,
    discriminability,
    jnd_score,
    minimum_angle_of_resolution,
    relative_acuity,
    required_theta_f,
)


class TestAcuity:
    def test_foveal_acuity_is_one(self):
        assert relative_acuity(0.0) == pytest.approx(1.0)

    def test_half_resolution_at_e2(self):
        assert relative_acuity(2.3) == pytest.approx(0.5)

    def test_monotone_decline(self):
        ecc = np.array([0.0, 2.0, 5.0, 10.0, 20.0])
        acuity = relative_acuity(ecc)
        assert (np.diff(acuity) < 0).all()

    def test_mar_inverse_of_acuity(self):
        assert minimum_angle_of_resolution(2.3) == pytest.approx(2.0)

    def test_peripheral_shading_rate_supports_16x_drop(self):
        """Around 7 deg the eye needs ~1/16 of foveal shading — the
        paper's peripheral resolution drop."""
        rate = acuity_limited_shading_rate(7.0)
        assert 1 / 25 < rate < 1 / 9

    def test_rejects_negative_eccentricity(self):
        with pytest.raises(ValueError):
            relative_acuity(-1.0)


class TestDiscriminability:
    def test_decreases_with_theta_f(self):
        grid = np.array([3.0, 6.0, 10.0, 15.0])
        probs = discriminability(grid, 5.0)
        assert (np.diff(probs) < 0).all()

    def test_increases_with_error(self):
        assert discriminability(8.0, 10.0) > discriminability(8.0, 2.0)

    def test_bounded_by_peak(self):
        config = VdpConfig()
        probs = discriminability(np.array([0.5, 1.0, 2.0]), 30.0, config)
        assert (probs <= config.peak_probability + 1e-12).all()

    def test_jnd_proportional_to_probability(self):
        config = VdpConfig()
        p = discriminability(7.0, 5.0, config)
        assert jnd_score(7.0, 5.0, config) == pytest.approx(p * config.jnd_per_probability)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            discriminability(0.0, 5.0)
        with pytest.raises(ValueError):
            discriminability(5.0, -1.0)


class TestThresholdInversion:
    def test_fig11e_anchor_point(self):
        """At delta=10 deg the 5% threshold sits near theta_f = 15 deg."""
        threshold = required_theta_f(10.0, 0.05)
        assert threshold == pytest.approx(15.0, abs=2.5)

    def test_inversion_consistency(self):
        for delta in (2.0, 5.0, 10.0):
            theta = required_theta_f(delta, 0.05)
            if theta > 1.0:
                assert discriminability(theta, delta) == pytest.approx(0.05, abs=1e-6)

    def test_threshold_monotone_in_error(self):
        thresholds = [required_theta_f(d, 0.05) for d in (2.0, 5.0, 10.0, 15.0)]
        assert all(a <= b for a, b in zip(thresholds, thresholds[1:]))

    def test_target_validated(self):
        with pytest.raises(ValueError):
            required_theta_f(5.0, 0.5)  # above the peak probability

    def test_error_validated(self):
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="non-negative"):
                required_theta_f(bad, 0.05)
        assert required_theta_f(float("inf"), 0.05) == float("inf")
