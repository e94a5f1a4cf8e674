"""Foveation visible-difference model (FovVideoVDP stand-in; Fig. 11e).

The paper evaluates visual quality with FovVideoVDP: the probability
that an observer can discriminate a foveated rendering (foveal angle
``theta_f``, P95 tracking error ``delta_theta``) from the full-resolution
reference, and the corresponding JND score.

The stand-in is a calibrated psychometric model with a principled core:
a tracking error of ``delta_theta`` displaces the rendered foveal disc
from the true gaze, so high-acuity retina (out to roughly the acuity
margin ``theta_c``) lands on reduced-resolution content whenever
``delta_theta + theta_c > theta_f``.  Detection probability follows a
logistic psychometric function of that unprotected margin.  Constants
are calibrated to Fig. 11e: peak discriminability ~30%, and at
``delta_theta = 10 deg`` the 5% threshold sits near ``theta_f = 15 deg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_in_range, check_positive


@dataclass(frozen=True)
class VdpConfig:
    """Psychometric constants of the visible-difference model."""

    theta_c_deg: float = 4.0  # acuity margin that must stay inside the fovea
    slope_deg: float = 1.6  # psychometric slope
    peak_probability: float = 0.30  # Fig. 11e's maximum discriminability
    jnd_per_probability: float = 4.0  # right-axis scale of Fig. 11e

    def __post_init__(self) -> None:
        check_positive("theta_c_deg", self.theta_c_deg)
        check_positive("slope_deg", self.slope_deg)
        check_in_range("peak_probability", self.peak_probability, 0.0, 1.0)


def discriminability(theta_f_deg, delta_theta_deg, config: "VdpConfig | None" = None):
    """Probability of telling foveated from full-resolution rendering.

    Vectorized over either argument.
    """
    config = config or VdpConfig()
    theta_f = np.asarray(theta_f_deg, dtype=np.float64)
    delta = np.asarray(delta_theta_deg, dtype=np.float64)
    if np.any(theta_f <= 0):
        raise ValueError("theta_f must be positive")
    if np.any(delta < 0):
        raise ValueError("delta_theta must be non-negative")
    margin = delta + config.theta_c_deg - theta_f
    prob = config.peak_probability / (1.0 + np.exp(-margin / config.slope_deg))
    return prob if prob.shape else float(prob)


def jnd_score(theta_f_deg, delta_theta_deg, config: "VdpConfig | None" = None):
    """JND score (right axis of Fig. 11e), proportional to probability."""
    config = config or VdpConfig()
    return discriminability(theta_f_deg, delta_theta_deg, config) * config.jnd_per_probability


def required_theta_f(
    delta_theta_deg: float,
    target_probability: float = 0.05,
    config: "VdpConfig | None" = None,
) -> float:
    """Smallest foveal angle keeping discriminability below the target —
    the §7.1 'human tolerance' operating point (green-triangle series of
    Fig. 12).  Inverts the psychometric function analytically."""
    config = config or VdpConfig()
    check_in_range("target_probability", target_probability, 1e-6, config.peak_probability)
    if not delta_theta_deg >= 0:
        raise ValueError("delta_theta must be non-negative")
    ratio = config.peak_probability / target_probability - 1.0
    margin = -config.slope_deg * math.log(ratio)
    theta_f = delta_theta_deg + config.theta_c_deg - margin
    return max(theta_f, 1.0)
