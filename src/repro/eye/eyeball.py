"""Geometric eye model: mapping gaze direction to image-plane appearance.

A near-eye camera in a VR HMD sits at a fixed pose relative to the eye
(the paper exploits exactly this to justify analytical cropping, §4.2).
Under that fixed pose, the pupil's image-plane position is a smooth,
nearly-affine function of the gaze angles, and the pupil ellipse
foreshortens as the gaze turns away from the camera axis.  This module
captures that mapping with a small number of per-participant parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import default_rng


@dataclass(frozen=True)
class EyeAppearance:
    """Per-participant anatomical / rig parameters.

    Attributes:
        center_x, center_y: image-plane position (pixels) of the pupil when
            gaze is straight ahead; encodes camera mounting offset.
        gain_x, gain_y: pixels of pupil travel per degree of gaze.
        pupil_radius: base pupil radius in pixels.
        iris_radius: iris radius in pixels.
        eye_width, eye_height: palpebral-fissure half-axes in pixels.
        iris_shade, skin_shade, sclera_shade: base intensities in [0, 1].
        lid_droop: fraction of the upper iris covered by the relaxed eyelid.
        camera_tilt_deg: off-axis camera angle; increases foreshortening.
    """

    center_x: float
    center_y: float
    gain_x: float
    gain_y: float
    pupil_radius: float
    iris_radius: float
    eye_width: float
    eye_height: float
    iris_shade: float
    skin_shade: float
    sclera_shade: float
    lid_droop: float
    camera_tilt_deg: float

    @staticmethod
    def sample(rng, width: int, height: int) -> "EyeAppearance":
        """Draw a plausible participant for a ``width``x``height`` sensor."""
        rng = default_rng(rng)
        scale = min(width, height) / 120.0
        # Placement variance reflects a rigidly-mounted HMD eye camera:
        # the rest position shifts by only a few pixels across users
        # (IPD/face-shape differences), and the pixels-per-degree gain by
        # under ten percent (eyeball-radius variation).  These two spreads
        # set the cross-user error floor of appearance-based trackers.
        return EyeAppearance(
            center_x=width / 2 + rng.normal(0, 0.015 * width),
            center_y=height / 2 + rng.normal(0, 0.02 * height),
            gain_x=(1.35 + rng.uniform(-0.10, 0.10)) * scale,
            gain_y=(1.10 + rng.uniform(-0.08, 0.08)) * scale,
            pupil_radius=(9.0 + rng.uniform(-2.0, 4.0)) * scale,
            iris_radius=(26.0 + rng.uniform(-4.0, 6.0)) * scale,
            eye_width=(52.0 + rng.uniform(-6.0, 8.0)) * scale,
            eye_height=(26.0 + rng.uniform(-5.0, 6.0)) * scale,
            iris_shade=float(rng.uniform(0.30, 0.52)),
            skin_shade=float(rng.uniform(0.62, 0.80)),
            sclera_shade=float(rng.uniform(0.80, 0.92)),
            lid_droop=float(rng.uniform(0.0, 0.30)),
            camera_tilt_deg=float(rng.uniform(0.0, 12.0)),
        )


@dataclass(frozen=True)
class PupilPose:
    """Image-plane pupil geometry for one gaze sample."""

    x: float
    y: float
    radius_major: float
    radius_minor: float
    orientation_rad: float


class EyeGeometry:
    """Projects gaze angles to image-plane pupil/iris geometry."""

    def __init__(self, appearance: EyeAppearance):
        self.appearance = appearance

    def pupil_pose(self, gaze_deg: np.ndarray, dilation: float = 1.0) -> PupilPose:
        """Pupil ellipse for gaze ``(theta_x, theta_y)`` in degrees.

        The projection uses the tangent mapping of Eq. 1's display model —
        near-linear within ±25 degrees — plus cosine foreshortening of the
        pupil disc as gaze departs from the (possibly tilted) camera axis.
        """
        a = self.appearance
        theta_x, theta_y = float(gaze_deg[0]), float(gaze_deg[1])
        # Tangent projection, normalized so the small-angle slope equals the
        # per-degree gain.
        x = a.center_x + a.gain_x * math.degrees(math.tan(math.radians(theta_x)))
        y = a.center_y + a.gain_y * math.degrees(math.tan(math.radians(theta_y)))
        off_axis = math.radians(
            math.hypot(theta_x, theta_y + a.camera_tilt_deg)
        )
        squash = max(0.35, math.cos(off_axis))
        radius = a.pupil_radius * float(np.clip(dilation, 0.5, 1.8))
        orientation = math.atan2(theta_y + a.camera_tilt_deg, theta_x) + math.pi / 2
        return PupilPose(
            x=x,
            y=y,
            radius_major=radius,
            radius_minor=radius * squash,
            orientation_rad=orientation,
        )

    def gaze_from_pupil(self, x: float, y: float) -> np.ndarray:
        """Inverse mapping (used by the model-based baselines).

        Inverts the tangent projection; exact when the forward model's
        dilation/foreshortening do not move the center (they do not).
        """
        a = self.appearance
        tx = math.atan(math.radians((x - a.center_x) / a.gain_x))
        ty = math.atan(math.radians((y - a.center_y) / a.gain_y))
        return np.array([math.degrees(tx), math.degrees(ty)])
