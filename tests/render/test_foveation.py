"""Foveation geometry (Eq. 1): radii, regions, ray budgets."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.render import (
    RESOLUTIONS,
    FoveationConfig,
    RES_1080P,
    RES_720P,
    Resolution,
    eccentricity_radius_px,
    effective_rays,
    foveated_ray_fraction,
    region_pixels,
    theta_f,
)
from repro.render.foveation import _disc_pixel_count


class TestThetaF:
    def test_addition(self):
        assert theta_f(5.0, 2.92) == pytest.approx(7.92)

    def test_rejects_negative_error(self):
        with pytest.raises(ValueError):
            theta_f(5.0, -1.0)

    def test_rejects_nan_error(self):
        with pytest.raises(ValueError, match="non-negative"):
            theta_f(5.0, float("nan"))
        with pytest.raises(ValueError, match="non-negative"):
            region_pixels(float("nan"), RES_1080P)

    def test_infinite_error_is_full_screen(self):
        assert theta_f(5.0, float("inf")) == float("inf")
        regions = region_pixels(float("inf"), RES_1080P)
        assert regions.foveal == RES_1080P.pixels
        assert regions.inter == 0.0 and regions.peripheral == 0.0


class TestRadius:
    def test_matches_hand_calculation(self):
        # rho*d = (1920/2)/tan(48 deg); r = rho*d*tan(7.92 deg)
        rho_d = 960 / math.tan(math.radians(48.0))
        expected = rho_d * math.tan(math.radians(7.92))
        got = eccentricity_radius_px(7.92, RES_1080P, 96.0)
        assert got == pytest.approx(expected)

    def test_monotone_in_angle(self):
        radii = [eccentricity_radius_px(a, RES_1080P, 96.0) for a in (5, 10, 20, 40)]
        assert all(a < b for a, b in zip(radii, radii[1:]))

    def test_ninety_degrees_is_infinite(self):
        assert eccentricity_radius_px(90.0, RES_1080P, 96.0) == float("inf")


class TestRegions:
    def test_partition_covers_display(self):
        regions = region_pixels(2.92, RES_1080P)
        assert regions.total == pytest.approx(RES_1080P.pixels, rel=0.01)

    def test_foveal_grows_with_error(self):
        small = region_pixels(2.0, RES_1080P).foveal
        large = region_pixels(13.0, RES_1080P).foveal
        assert large > 3 * small

    def test_zero_error_still_has_fovea(self):
        regions = region_pixels(0.0, RES_1080P)
        assert regions.foveal > 0

    def test_huge_error_caps_at_display(self):
        regions = region_pixels(80.0, RES_1080P)
        assert regions.foveal == pytest.approx(RES_1080P.pixels, rel=0.01)
        assert regions.peripheral == pytest.approx(0.0, abs=RES_1080P.pixels * 0.01)


class TestRayBudget:
    def test_effective_rays_formula(self):
        config = FoveationConfig()
        regions = region_pixels(2.92, RES_1080P, config)
        rays = effective_rays(regions, config)
        expected = regions.foveal + regions.inter / 4 + regions.peripheral / 16
        assert rays == pytest.approx(expected)

    def test_fraction_below_one_and_monotone(self):
        fractions = [foveated_ray_fraction(d, RES_1080P) for d in (0.0, 3.0, 13.0, 24.0)]
        assert all(0.0 < f <= 1.0 for f in fractions)
        assert all(a < b for a, b in zip(fractions, fractions[1:]))

    def test_polo_error_gives_large_savings(self):
        """At POLO's P95 error the ray budget is a small fraction of full."""
        assert foveated_ray_fraction(2.92, RES_1080P) < 0.2

    def test_resolution_consistency(self):
        """The same angular error claims a similar *fraction* across
        resolutions (same FOV -> same angular geometry)."""
        a = foveated_ray_fraction(5.0, RES_720P)
        b = foveated_ray_fraction(5.0, RES_1080P)
        assert a == pytest.approx(b, rel=0.05)


class TestConfigValidation:
    def test_bounds(self):
        with pytest.raises(ValueError):
            FoveationConfig(theta_foveal_deg=0.0)
        with pytest.raises(ValueError):
            FoveationConfig(display_hfov_deg=200.0)


def grid_disc_pixel_count(radius_px: float, resolution: Resolution, grid_step: int = 4) -> float:
    """Reference: the screen-sized meshgrid count that ``_disc_pixel_count``
    must reproduce exactly."""
    if radius_px <= 0:
        return 0.0
    half_w, half_h = resolution.width / 2.0, resolution.height / 2.0
    if radius_px >= math.hypot(half_w, half_h):
        return float(resolution.pixels)
    xs = np.arange(-half_w + grid_step / 2.0, half_w, grid_step)
    ys = np.arange(-half_h + grid_step / 2.0, half_h, grid_step)
    xx, yy = np.meshgrid(xs, ys)
    inside = (xx * xx + yy * yy) <= radius_px * radius_px
    return float(inside.sum()) * grid_step * grid_step


#: The reference allocates the whole grid; keep it within the largest preset
#: at one-pixel cells.
MAX_GRID_CELLS = 2560 * 1440


@st.composite
def disc_cases(draw, fractional=False):
    if fractional:
        grid_step = draw(st.floats(min_value=0.5, max_value=8.0))
        size = st.floats(min_value=0.5, max_value=600.0)
        resolution = Resolution("fractional", draw(size), draw(size))
    else:
        grid_step = draw(st.integers(min_value=1, max_value=8))
        resolution = draw(
            st.one_of(
                st.sampled_from(RESOLUTIONS),
                st.builds(
                    Resolution,
                    st.just("drawn"),
                    st.integers(min_value=1, max_value=2600),
                    st.integers(min_value=1, max_value=2600),
                ),
            )
        )
    assume(math.ceil(resolution.width / grid_step) * math.ceil(resolution.height / grid_step)
           <= MAX_GRID_CELLS)
    half_w, half_h = resolution.width / 2.0, resolution.height / 2.0
    half_diag = math.hypot(half_w, half_h)
    xs = np.arange(-half_w + grid_step / 2.0, half_w, grid_step)
    ys = np.arange(-half_h + grid_step / 2.0, half_h, grid_step)
    choices = [
        st.floats(min_value=0.0, max_value=1.05 * half_diag),
        st.sampled_from([0.0, -1.0, math.inf, half_diag]),
    ]
    if xs.size and ys.size:
        # Exact grid-centre distances: cells that sit on the disc's edge.
        choices.append(
            st.builds(
                lambda i, j: math.hypot(xs[i], ys[j]),
                st.integers(0, xs.size - 1),
                st.integers(0, ys.size - 1),
            )
        )
    radius = draw(st.one_of(*choices))
    return radius, resolution, grid_step


class TestDiscPixelCount:
    @settings(max_examples=300, deadline=None)
    @given(disc_cases())
    def test_matches_meshgrid_count(self, case):
        radius, resolution, grid_step = case
        assert _disc_pixel_count(radius, resolution, grid_step) == grid_disc_pixel_count(
            radius, resolution, grid_step
        )

    @settings(max_examples=300, deadline=None)
    @given(disc_cases(fractional=True))
    def test_matches_meshgrid_count_on_fractional_displays(self, case):
        """Here ``r*r - y*y`` can round, and only the boundary fix-up keeps
        the count exact."""
        radius, resolution, grid_step = case
        assert _disc_pixel_count(radius, resolution, grid_step) == grid_disc_pixel_count(
            radius, resolution, grid_step
        )

    def test_grid_centre_ties_count_as_inside(self):
        # The 4-px cell centres of an 8x8 display are (+-2, +-2): a disc
        # through them holds all four cells, one a hair smaller holds none.
        display = Resolution("8x8", 8, 8)
        assert _disc_pixel_count(math.hypot(2.0, 2.0), display) == 64.0
        assert _disc_pixel_count(math.nextafter(math.hypot(2.0, 2.0), 0.0), display) == 0.0

    def test_display_smaller_than_one_cell_is_empty(self):
        assert _disc_pixel_count(1.0, Resolution("tiny", 3, 2), grid_step=4) == 0.0
