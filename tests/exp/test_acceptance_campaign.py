"""The serving acceptance claims, checked on ``examples/campaigns/acceptance.json``.

The campaign holds thirteen runs:

* serve: 8, 16, 32 and 64 predict-heavy sessions on one worker, each
  with the dynamic batcher and with the sequential baseline
  (``max_batch: 1, batch_window_s: 0.0``);
* fleet: 96 sessions on four shards, shard 2 killed at 0.5 s;
* net: 24 sessions on three shards over a lossy link, shard 1 cut off
  from 0.2 s for 50, 150 and 250 ms;
* sdc: the default soft-error campaign.

Each run is resolved by the campaign machinery, built from its resolved
dict and run.  Its run id and the digest of its summary metrics are
pinned, and the claims below hold on its report.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.exp.config import load_campaign
from repro.exp.runner import resolve_campaign
from repro.recover.codec import canonical_json
from repro.recover.configio import decode
from repro.recover.kinds import build_runtime
from repro.reliability.campaign import (
    SdcCampaignConfig,
    run_sdc_campaign,
    sdc_summary_metrics,
)
from repro.serve.telemetry import fleet_summary_metrics

CAMPAIGN = (
    Path(__file__).resolve().parents[2]
    / "examples" / "campaigns" / "acceptance.json"
)

#: (run id, first 16 hex digits of the sha256 of the canonical summary
#: metrics) per run, in resolution order.
PINS = [
    ("a07fc24bc397", "fb972024b0e77a11"),  # serve, 8 sessions, batched
    ("7fa7022fc024", "c2bd8283b5056ddb"),  # serve, 16
    ("3319c4b66e39", "a121455828da01f1"),  # serve, 32
    ("d451b43f4df3", "4acfa0f35075ed7a"),  # serve, 64
    ("f05b5513a58c", "63dd0329922db42b"),  # serve, 8 sessions, sequential
    ("a5aef3edfef0", "023a5c062d838af0"),  # serve, 16
    ("efa805d608d3", "f6f3ddf6dcfba0b1"),  # serve, 32
    ("d3f44d45e7ff", "94be8227e272e9d0"),  # serve, 64
    ("7d1568163c63", "b29c6b6636b787e3"),  # fleet, shard 2 killed
    ("e18bdb641d5d", "6a03c4a44181e576"),  # net, 50 ms partition
    ("6551e6a5917b", "22f0fffa809ba52e"),  # net, 150 ms
    ("c658cc68bea8", "196ee366ade6a640"),  # net, 250 ms
    ("c53f7a7f1b23", "ab9fce6aaad19ebb"),  # sdc
]


def _run(spec):
    if spec.runner == "sdc":
        return run_sdc_campaign(decode(SdcCampaignConfig, spec.config["config"]))
    return build_runtime(spec.config).run()


def _summary(spec, report) -> dict:
    if spec.runner == "sdc":
        return sdc_summary_metrics(report)
    return fleet_summary_metrics(report)


@pytest.fixture(scope="module")
def runs():
    name, specs = resolve_campaign(load_campaign(CAMPAIGN))
    assert name == "acceptance"
    return [(spec, _run(spec)) for spec in specs]


def _serve(runs, batched: bool):
    """``{n_sessions: report}`` of the batched or sequential serve runs."""
    return {
        spec.config["config"]["n_sessions"]: report
        for spec, report in runs
        if spec.runner == "serve"
        and (spec.config["config"]["max_batch"] > 1) == batched
    }


def _net(runs):
    """``[(partition, report)]`` of the lossy-transport runs."""
    return [
        (spec.config["config"]["net"]["partitions"][0], report)
        for spec, report in runs
        if spec.runner == "fleet" and "net" in spec.config["config"]
    ]


def test_thirteen_runs_with_pinned_ids_and_summaries(runs):
    got = [
        (
            spec.run_id,
            hashlib.sha256(
                canonical_json(_summary(spec, report)).encode()
            ).hexdigest()[:16],
        )
        for spec, report in runs
    ]
    assert got == PINS


def test_every_frame_ends_in_exactly_one_bucket(runs):
    for spec, report in runs:
        if spec.runner == "sdc":
            continue
        assert sum(s.total_frames for s in report.sessions) == sum(
            s.completed + s.shed + s.pending + s.lost_input
            + s.lost_shard + s.lost_net
            for s in report.sessions
        ), spec.run_id


class TestCrossSessionBatching:
    def test_batched_beats_sequential_where_the_pool_saturates(self, runs):
        batched, sequential = _serve(runs, True), _serve(runs, False)
        assert sorted(batched) == sorted(sequential) == [8, 16, 32, 64]
        for n, report in batched.items():
            baseline = sequential[n]
            assert report.total_frames == baseline.total_frames
            if n >= 16:
                assert report.predict_goodput_fps > baseline.predict_goodput_fps
                assert (
                    report.deadline_miss_rate
                    <= baseline.deadline_miss_rate + 1e-9
                )

    def test_batches_grow_with_contention(self, runs):
        batched = _serve(runs, True)
        assert batched[64].mean_batch_size > batched[8].mean_batch_size


class TestFleetFailover:
    @pytest.fixture(scope="class")
    def report(self, runs):
        (report,) = [
            report for spec, report in runs
            if spec.runner == "fleet" and spec.config["config"]["kills"]
        ]
        return report

    def test_survivors_take_the_dead_shards_sessions(self, report):
        section = report.shards
        assert len(report.sessions) == 96
        assert section.shards_killed == 1
        assert section.shards_serving == 3
        assert section.rehomed_sessions > 0
        assert report.predict_goodput_fps > 0

    def test_loss_is_the_failover_ledgers_and_bounded(self, report):
        total = sum(s.total_frames for s in report.sessions)
        lost = sum(s.lost_shard for s in report.sessions)
        assert lost == report.shards.failover_lost_frames
        assert lost / total < 0.05


class TestLossyTransport:
    def test_partitions_cost_retransmits_not_frames(self, runs):
        windows = _net(runs)
        assert [w["stop_s"] - w["start_s"] for w, _ in windows] == pytest.approx(
            [0.05, 0.15, 0.25]
        )
        for window, report in windows:
            counters = report.net.counters
            assert counters["retransmits"] > 0, window
            assert counters["frames_deduped"] > 0, window
            assert sum(
                s.lost_net + s.lost_shard for s in report.sessions
            ) == 0, window
            assert report.predict_goodput_fps > 0, window

    def test_only_the_longer_partitions_fail_over_and_heal(self, runs):
        (_, short), (_, medium), (long_window, long) = _net(runs)
        # A short partition rides on retransmits alone: no suspicion.
        assert short.net.counters["suspected"] == 0
        for report in (medium, long):
            assert report.net.counters["suspected"] == 1
            assert report.net.counters["heal_bounce_sessions"] > 0
        heals = [
            t["at_s"] for t in long.net.transitions
            if t["kind"] == "heal" and t["shard"] == 1
        ]
        assert heals and heals[0] - long_window["stop_s"] > 0
        assert long.net.counters["false_suspects"] == 1
        assert long.net.counters["heals"] == 1
