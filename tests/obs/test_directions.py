"""Metric directions of the fleet and lossy-transport families.

The bench gate and ``exp compare`` read these directions from
:mod:`repro.obs.directions`: -1 lower is better, +1 higher is better,
0 ungated.
"""

from __future__ import annotations

from repro.obs.directions import metric_direction


def test_fleet_metric_directions():
    assert metric_direction("failover_lost_frames") == -1
    assert metric_direction("rehome_breaker_degraded") == -1
    assert metric_direction("goodput_fps") == +1
    assert metric_direction("p95_ms") == -1
    # Topology descriptors are environment, not quality: ungated.
    assert metric_direction("rehomed_sessions") == 0
    assert metric_direction("shards_serving") == 0


def test_net_metric_directions():
    assert metric_direction("part150ms_retransmit_overhead") == -1
    assert metric_direction("part150ms_frames_lost") == -1
    assert metric_direction("part250ms_heal_s") == -1
    assert metric_direction("part250ms_bounced") == +1
    assert metric_direction("net_retransmits_total") == -1
    assert metric_direction("net_frames_deduped_total") == -1
    assert metric_direction("net_failover_detect_s") == -1
    assert metric_direction("net_heal_bounce_sessions") == +1
    # Environment descriptors stay ungated.
    assert metric_direction("part150ms_suspected") == 0
    assert metric_direction("net_messages_total") == 0
