"""Foveated-rendering geometry (paper Eq. 1, Fig. 3).

Maps the tracker's error to region sizes:

    r_f = rho * d * tan(theta_i + delta_theta)

Larger tracking error -> larger full-resolution foveal disc -> more rays.
The display model places the gaze at the frame center (the paper's
footnote-1 worst case, giving the maximum region radius) and computes the
pixel population of the foveal / inter-foveal / peripheral regions, from
which the effective ray count follows using the paper's resolution drops
(4x for inter-foveal, 16x for peripheral).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.render.scene import Resolution
from repro.utils.validation import check_in_range, check_positive


@dataclass(frozen=True)
class FoveationConfig:
    """Region parameters (paper defaults: theta_i = 5 deg foveal
    eccentricity, inter-foveal extends 20 deg beyond the foveal angle,
    4x / 16x resolution drops, ~96 deg horizontal display FOV)."""

    theta_foveal_deg: float = 5.0
    inter_extra_deg: float = 20.0
    inter_drop: float = 4.0
    peripheral_drop: float = 16.0
    display_hfov_deg: float = 96.0

    def __post_init__(self) -> None:
        check_in_range("theta_foveal_deg", self.theta_foveal_deg, 0.1, 45.0)
        check_positive("inter_extra_deg", self.inter_extra_deg)
        check_positive("inter_drop", self.inter_drop)
        check_positive("peripheral_drop", self.peripheral_drop)
        check_in_range("display_hfov_deg", self.display_hfov_deg, 30.0, 180.0)


@dataclass(frozen=True)
class RegionPixels:
    """Pixel population of the three rendering regions."""

    foveal: float
    inter: float
    peripheral: float

    @property
    def total(self) -> float:
        return self.foveal + self.inter + self.peripheral


def theta_f(theta_i_deg: float, delta_theta_deg: float) -> float:
    """Resulting foveal eccentricity under tracking error (Eq. 1)."""
    if not delta_theta_deg >= 0:
        raise ValueError(f"tracking error must be non-negative, got {delta_theta_deg}")
    return theta_i_deg + delta_theta_deg


def eccentricity_radius_px(theta_deg: float, resolution: Resolution, hfov_deg: float) -> float:
    """Pixel radius subtended by eccentricity ``theta_deg`` on the display.

    This is Eq. 1 with rho*d expressed through the display geometry:
    a flat display spanning ``hfov_deg`` horizontally over ``width`` px has
    rho*d = (width/2) / tan(hfov/2).
    """
    if theta_deg >= 90.0:
        return float("inf")
    rho_d = (resolution.width / 2.0) / math.tan(math.radians(hfov_deg / 2.0))
    return rho_d * math.tan(math.radians(theta_deg))


def _disc_pixel_count(radius_px: float, resolution: Resolution, grid_step: int = 4) -> float:
    """Pixels of a gaze-centred disc clipped to the display rectangle.

    Counts the centres ``(x, y)`` of the display's ``grid_step``-px cells
    for which ``x*x + y*y <= r*r`` holds in floats, each worth
    ``grid_step**2`` pixels (exact to ~grid_step^2 pixels).  It counts per
    row, not per cell: within a row ``fl(x*x) + y*y`` is monotone in
    ``fl(x*x)``, so one ``searchsorted`` of ``r*r - y*y`` over the sorted
    ``x*x`` finds every row's boundary.  With integer sizes and step every
    coordinate is a multiple of 1/2 and nothing rounds, so that is already
    exact; a fractional size or step can make ``r*r - y*y`` round, so each
    boundary is then stepped until the float predicate agrees.
    """
    if radius_px <= 0:
        return 0.0
    half_w, half_h = resolution.width / 2.0, resolution.height / 2.0
    if radius_px >= math.hypot(half_w, half_h):
        return float(resolution.pixels)
    xs = np.arange(-half_w + grid_step / 2.0, half_w, grid_step)
    ys = np.arange(-half_h + grid_step / 2.0, half_h, grid_step)
    rr = radius_px * radius_px
    x2 = np.sort(xs * xs)
    y2 = ys * ys
    # counts[j] = number of x2 entries with x2 + y2[j] <= rr.
    counts = np.searchsorted(x2, rr - y2, side="right")
    while True:
        up = counts < x2.size
        up[up] = x2[counts[up]] + y2[up] <= rr
        down = counts > 0
        down[down] = x2[counts[down] - 1] + y2[down] > rr
        if not (up.any() or down.any()):
            break
        counts += up
        counts -= down
    return float(counts.sum()) * grid_step * grid_step


def region_pixels(
    delta_theta_deg: float,
    resolution: Resolution,
    config: "FoveationConfig | None" = None,
) -> RegionPixels:
    """Pixel populations of the three regions for a given tracking error."""
    config = config or FoveationConfig()
    angle_f = theta_f(config.theta_foveal_deg, delta_theta_deg)
    angle_i = angle_f + config.inter_extra_deg
    r_f = eccentricity_radius_px(angle_f, resolution, config.display_hfov_deg)
    r_i = eccentricity_radius_px(angle_i, resolution, config.display_hfov_deg)
    foveal = _disc_pixel_count(r_f, resolution)
    inter_total = _disc_pixel_count(r_i, resolution)
    inter = max(inter_total - foveal, 0.0)
    peripheral = max(resolution.pixels - inter_total, 0.0)
    return RegionPixels(foveal=foveal, inter=inter, peripheral=peripheral)


def effective_rays(regions: RegionPixels, config: "FoveationConfig | None" = None) -> float:
    """Ray budget of a foveated frame: full-rate foveal pixels plus
    down-rated inter-foveal and peripheral pixels."""
    config = config or FoveationConfig()
    return (
        regions.foveal
        + regions.inter / config.inter_drop
        + regions.peripheral / config.peripheral_drop
    )


def foveated_ray_fraction(
    delta_theta_deg: float,
    resolution: Resolution,
    config: "FoveationConfig | None" = None,
) -> float:
    """Fraction of full-resolution rays a foveated frame needs."""
    config = config or FoveationConfig()
    regions = region_pixels(delta_theta_deg, resolution, config)
    return effective_rays(regions, config) / resolution.pixels
