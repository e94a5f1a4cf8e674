"""Property-based invariants of the foveation/rendering models."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render import (
    RES_1080P,
    RESOLUTIONS,
    RenderPipeline,
    foveated_ray_fraction,
    region_pixels,
    scene_by_name,
)

errors = st.floats(min_value=0.0, max_value=40.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RESOLUTIONS), st.floats(min_value=0.0, max_value=60.0, allow_nan=False))
def test_regions_partition_display(resolution, delta):
    regions = region_pixels(delta, resolution)
    assert regions.foveal >= 0 and regions.inter >= 0 and regions.peripheral >= 0
    assert regions.total == resolution.pixels


@settings(max_examples=50, deadline=None)
@given(errors, errors)
def test_ray_fraction_monotone(a, b):
    lo, hi = sorted((a, b))
    assert foveated_ray_fraction(lo, RES_1080P) <= foveated_ray_fraction(
        hi, RES_1080P
    ) + 1e-9


@settings(max_examples=50, deadline=None)
@given(errors)
def test_foveated_never_exceeds_full(delta):
    pipeline = RenderPipeline()
    scene = scene_by_name("E")
    foveated = pipeline.foveated_latency(scene, RES_1080P, delta).total_s
    full = pipeline.full_latency(scene, RES_1080P)
    assert foveated <= full * 1.01


@settings(max_examples=50, deadline=None)
@given(errors)
def test_r1_r2_decomposition_consistent(delta):
    pipeline = RenderPipeline()
    scene = scene_by_name("C")
    breakdown = pipeline.foveated_latency(scene, RES_1080P, delta)
    assert breakdown.r1_s > 0
    assert breakdown.r2_s >= 0
    assert breakdown.total_s == pytest.approx(breakdown.r1_s + breakdown.r2_s)
