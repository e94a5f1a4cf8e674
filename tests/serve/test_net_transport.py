"""Lossy fleet transport: exactly-once delivery and determinism.

The fleet's conservation ledger must close *exactly* while the
router<->shard channel drops, duplicates, delays, and partitions
messages.  These tests pin the protocol's message-accounting identity
(every transmission is dropped or delivered; every delivered copy is
applied once, deduped, dead-lettered, or discarded late), prove
exactly-once application by matching the dedupe counter against the
duplicate-injection counter, and byte-diff double runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.netfaults import ShardKill
from repro.recover import fleet_report_bytes
from repro.serve import ServeConfig
from repro.serve.fleet import (
    FleetConfig,
    FleetRuntime,
    FleetTransport,
    GraySlow,
    LinkProfile,
    NetConfig,
    PartitionWindow,
    run_fleet,
)
from repro.serve.fleet.transport import COUNTER_NAMES, K_NET_SEND, _unit
from repro.serve.request import fleet_requests
from repro.system.session import PATHS

#: ``(seed, key, draw)``: every lossy run's fault pattern rests on these
#: exact sampler values.
UNIT_GOLDEN = (
    (0, ("drop", 0, 0, 0), 0.07320671697407381),
    (1, ("delay", 2, 17, 3), 0.06707830550512521),
    (4, ("dup", 1, 1234, 0), 0.8326998604019749),
    (4, ("dupdelay", 3, 99, 1), 0.3915301440437375),
    (7, ("ackdrop", 2, 511, 2, 1), 0.32769370183440594),
    (1, ("hbdrop", 0, 12), 0.48447861925835434),
    (2, ("hbdelay", 5, 40), 0.961459486760068),
    (123456789, ("drop", 15, 987654, 8), 0.19707580691830676),
    (0, (), 0.48554677893261605),
    (3, ("x",), 0.030881254600377418),
)


@pytest.mark.parametrize("seed,key,draw", UNIT_GOLDEN)
def test_unit_draws_are_pinned(seed, key, draw):
    assert _unit(seed, *key) == draw


#: Every draw purpose and the key fields after it.
DRAW_KEYS = {
    "drop": ("shard", "seq", "attempt"),
    "delay": ("shard", "seq", "attempt"),
    "dup": ("shard", "seq", "attempt"),
    "dupdelay": ("shard", "seq", "attempt"),
    "ackdrop": ("shard", "seq", "attempt", "dup"),
    "ackdelay": ("shard", "seq", "attempt", "dup"),
    "hbdrop": ("shard", "tick"),
    "hbdelay": ("shard", "tick"),
}


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=-(2**63), max_value=2**64),
    purpose=st.sampled_from(sorted(DRAW_KEYS)),
    fields=st.fixed_dictionaries(
        {
            "shard": st.integers(min_value=0, max_value=4096),
            "seq": st.integers(min_value=0, max_value=2**53),
            "attempt": st.integers(min_value=0, max_value=2**31),
            "dup": st.integers(min_value=0, max_value=1),
            "tick": st.integers(min_value=0, max_value=2**40),
        }
    ),
)
def test_prefixed_draw_equals_unit(seed, purpose, fields):
    key = (purpose, *(fields[name] for name in DRAW_KEYS[purpose]))
    transport = FleetTransport(NetConfig(enabled=True, seed=seed))
    assert transport._draw(":".join(map(str, key))) == _unit(seed, *key)


def test_every_draw_of_a_run_is_a_unit_draw(monkeypatch):
    # The transport builds its draw tails inline; each one must spell a
    # well-formed ``(purpose, *ints)`` key so the draw is ``_unit``'s.
    tails = []
    draw = FleetTransport._draw

    def recording_draw(self, tail):
        tails.append(tail)
        return draw(self, tail)

    monkeypatch.setattr(FleetTransport, "_draw", recording_draw)
    config = overlapping_fleet()
    run_fleet(config)
    assert {tail.split(":")[0] for tail in tails} == set(DRAW_KEYS)
    transport = FleetTransport(config.net)
    for tail in tails:
        purpose, *fields = tail.split(":")
        assert len(fields) == len(DRAW_KEYS[purpose])
        key = (purpose, *map(int, fields))
        assert draw(transport, tail) == _unit(config.net.seed, *key)


def net_serve(n_sessions: int = 12, duration_s: float = 0.4) -> ServeConfig:
    return ServeConfig(
        n_sessions=n_sessions,
        duration_s=duration_s,
        n_workers=1,
        reuse_displacement_deg=0.05,
        queue_budget_deadlines=0.8,
        seed=0,
    )


def net_fleet(net: NetConfig, n_shards: int = 3, **serve_kwargs) -> FleetConfig:
    return FleetConfig(
        serve=net_serve(**serve_kwargs), n_shards=n_shards, net=net
    )


def overlapping_fleet() -> FleetConfig:
    """A small lossy fleet whose fault windows overlap: shard 1 sits in
    two partition windows (one shared with shard 0), shard 0 in two gray
    windows whose delay factors multiply, and shard 2 dies silently."""
    return FleetConfig(
        serve=net_serve(),
        n_shards=3,
        kills=(ShardKill(shard_id=2, at_s=0.3),),
        net=NetConfig(
            enabled=True, seed=9,
            link=LinkProfile(
                drop_rate=0.1, dup_rate=0.1, delay_s=5e-4, jitter_s=1e-3
            ),
            partitions=(
                PartitionWindow(start_s=0.1, stop_s=0.2, shard_ids=(1,)),
                PartitionWindow(start_s=0.15, stop_s=0.22, shard_ids=(0, 1)),
            ),
            gray=(
                GraySlow(
                    shard_id=0, start_s=0.05, stop_s=0.12, delay_factor=3.3
                ),
                GraySlow(
                    shard_id=0, start_s=0.08, stop_s=0.14, delay_factor=1.7
                ),
            ),
            ack_timeout_s=4e-3, max_retransmits=8,
        ),
    )


def predict_frames(config: FleetConfig) -> int:
    """Frames the headsets send to the pool: the only ones on the wire."""
    return sum(
        PATHS[s.codes].tolist().count("predict") for s in FleetRuntime(config).sessions
    )


def assert_ledger_closes(config: FleetConfig, report) -> None:
    """Every generated frame sits in exactly one terminal bucket."""
    expected = {
        s.session_id: s.n_frames for s in FleetRuntime(config).sessions
    }
    assert len(report.sessions) == len(expected)
    for stats in report.sessions:
        buckets = (
            stats.completed + stats.shed + stats.pending
            + stats.lost_input + stats.lost_shard + stats.lost_net
        )
        assert stats.total_frames == expected[stats.session_id]
        assert buckets == expected[stats.session_id]


def assert_message_identity(counters: dict) -> None:
    """Every data copy put on the wire has exactly one fate.

    ``data_sent`` counts transmissions (first sends + retransmits); the
    link then either drops the copy or delivers it, and may mint one
    extra duplicate per surviving transmission.  Delivered copies are
    applied once, deduped, dead-lettered, or discarded late — nothing
    else exists.
    """
    delivered = (
        counters["data_sent"] - counters["data_dropped"]
        + counters["dup_injected"]
    )
    assert delivered == (
        counters["frames_applied"] + counters["frames_deduped"]
        + counters["dead_letters"] + counters["late_discards"]
    )


class TestCleanChannel:
    """A fault-free link must behave like the perfect channel."""

    def test_no_faults_means_no_protocol_noise(self):
        config = net_fleet(NetConfig(enabled=True))
        report = run_fleet(config)
        counters = report.net.counters
        assert counters["data_dropped"] == 0
        assert counters["retransmits"] == 0
        assert counters["dup_injected"] == 0
        assert counters["frames_deduped"] == 0
        assert counters["dead_letters"] == 0
        assert counters["exhausted_degraded"] == 0
        assert counters["exhausted_lost"] == 0
        assert counters["suspected"] == 0
        # Every predict frame travelled the wire exactly once and was
        # acked; saccade and reuse frames never left the headset.
        assert counters["frames_applied"] == predict_frames(config)
        assert counters["acked"] == counters["data_sent"]
        assert_ledger_closes(config, report)
        assert sum(s.lost_net for s in report.sessions) == 0

    def test_counter_keys_are_the_declared_set(self):
        report = run_fleet(net_fleet(NetConfig(enabled=True)))
        assert tuple(report.net.counters) == COUNTER_NAMES


class TestExactlyOnce:
    def test_dedupes_exactly_match_injected_duplicates(self):
        # Pure duplication, no drops, ack timeout far above the RTT: the
        # router never retransmits, so the *only* extra copies are the
        # link's injected duplicates — and every one must be deduped.
        net = NetConfig(
            enabled=True, seed=3,
            link=LinkProfile(dup_rate=0.5, delay_s=5e-4),
        )
        config = net_fleet(net)
        report = run_fleet(config)
        counters = report.net.counters
        assert counters["retransmits"] == 0
        assert counters["dup_injected"] > 0
        assert counters["frames_deduped"] == counters["dup_injected"]
        assert counters["frames_applied"] == predict_frames(config)
        assert_message_identity(counters)
        assert_ledger_closes(config, report)

    def test_retransmit_storm_still_applies_once(self):
        # Heavy drop + duplication + jitter reordering: many copies of
        # the same sequence number race to the shard; exactly one
        # applies, and the conservation ledger still closes.
        net = NetConfig(
            enabled=True, seed=7,
            link=LinkProfile(
                drop_rate=0.25, dup_rate=0.25, delay_s=5e-4, jitter_s=2e-3
            ),
            ack_timeout_s=4e-3, max_retransmits=8,
        )
        config = net_fleet(net)
        report = run_fleet(config)
        counters = report.net.counters
        assert counters["retransmits"] > 0
        assert counters["frames_deduped"] > 0
        assert counters["frames_applied"] == predict_frames(config)
        assert counters["exhausted_degraded"] == 0
        assert counters["exhausted_lost"] == 0
        assert_message_identity(counters)
        assert_ledger_closes(config, report)


class TestDeterminism:
    def test_double_run_is_byte_identical(self):
        net = NetConfig(
            enabled=True, seed=11,
            link=LinkProfile(
                drop_rate=0.15, dup_rate=0.15, delay_s=5e-4, jitter_s=1e-3
            ),
            partitions=(
                PartitionWindow(start_s=0.2, stop_s=0.3, shard_ids=(1,)),
            ),
            gray=(GraySlow(shard_id=0, start_s=0.1, stop_s=0.15),),
        )
        config = net_fleet(net)
        assert fleet_report_bytes(run_fleet(config)) == fleet_report_bytes(
            run_fleet(config)
        )

    def test_seed_changes_the_fault_pattern(self):
        def counters(seed):
            net = NetConfig(
                enabled=True, seed=seed,
                link=LinkProfile(drop_rate=0.2, dup_rate=0.2, delay_s=5e-4),
            )
            return run_fleet(net_fleet(net)).net.counters

        a, b = counters(0), counters(1)
        assert (a["data_dropped"], a["dup_injected"]) != (
            b["data_dropped"], b["dup_injected"]
        )


class TestGoldenEventStream:
    """Pins of the overlapping-window fleet's whole run.

    The stream digest hashes ``repr`` of every ``peek_event()``
    ``(time, kind, seq)`` — the triple the write-ahead journal records —
    so any change to the event order, a control seq, or a fault draw
    (including which overlapping gray factors multiply into a delay)
    fails.  Both digests were computed with only predict frames on the
    wire, and the stream digest with the shard-major event order.
    """

    STREAM_SHA256 = (
        "b6d3ff2d8fe1047f052be5e0b8861e071c7d15a42f72a734e6312c77f260d31f"
    )
    REPORT_SHA256 = (
        "d5081d6348124eb033f64a2a878a9f4b4dbde0ec7d80ee94c7bb8bc89ebdbb56"
    )

    def test_event_stream_and_report_are_pinned(self):
        runtime = FleetRuntime(overlapping_fleet())
        runtime.start()
        stream = hashlib.sha256()
        while (head := runtime.peek_event()) is not None:
            stream.update(repr(head).encode())
            runtime.step()
        report = runtime.finish()
        assert stream.hexdigest() == self.STREAM_SHA256
        assert (
            hashlib.sha256(fleet_report_bytes(report)).hexdigest()
            == self.REPORT_SHA256
        )
        # The pins cover every fault path the windows exist for.
        counters = report.net.counters
        assert counters["false_suspects"] == 2
        assert counters["heals"] == 2
        assert counters["suspected"] == 3

    def test_control_heap_holds_at_most_one_send(self):
        config = overlapping_fleet()
        runtime = FleetRuntime(config)
        runtime.start()
        sends_seen = 0
        while True:
            sends = [e for e in runtime._control if e[2] == K_NET_SEND]
            assert len(sends) <= 1
            if sends and runtime.peek_event()[1] == K_NET_SEND:
                sends_seen += 1
            if not runtime.step():
                break
        runtime.finish()
        assert sends_seen == predict_frames(config)


class TestExhaustion:
    def blackhole(self, on_exhaust: str) -> FleetConfig:
        # 100% drop: no frame ever reaches a shard, every retransmit
        # chain exhausts.  The huge phi threshold keeps the (equally
        # starved) failure detector quiet so the test isolates the
        # exhaustion policy.
        net = NetConfig(
            enabled=True,
            link=LinkProfile(drop_rate=1.0, delay_s=5e-4),
            ack_timeout_s=1e-3, max_retransmits=2,
            phi_threshold=1e9,
            on_exhaust=on_exhaust,
        )
        return net_fleet(net, duration_s=0.2, n_sessions=6)

    def test_degrade_policy_serves_every_frame_from_fallback(self):
        config = self.blackhole("degrade")
        report = run_fleet(config)
        counters = report.net.counters
        assert counters["frames_applied"] == 0
        assert counters["exhausted_degraded"] == predict_frames(config)
        assert sum(s.degraded for s in report.sessions) == predict_frames(
            config
        )
        assert sum(s.lost_net for s in report.sessions) == 0
        assert_ledger_closes(config, report)

    def test_degraded_frames_extend_the_run(self):
        # A degrade is served at its frame's last retry timer, after the
        # traffic window: the report's horizon must cover it though no
        # shard ever held the frame.
        config = self.blackhole("degrade")
        config = replace(config, net=replace(config.net, ack_timeout_s=5e-3))
        last = max(
            r.arrival_s
            for r in fleet_requests(
                FleetRuntime(config).sessions, config.serve.deadline_s
            )
        )
        report = run_fleet(config)
        assert report.duration_s > config.serve.duration_s
        assert report.duration_s == pytest.approx(
            last + 5e-3 * (1 + 2 + 4) + config.serve.reuse_bypass_s
        )

    def test_drop_policy_accounts_every_frame_lost(self):
        config = self.blackhole("drop")
        report = run_fleet(config)
        counters = report.net.counters
        predict = predict_frames(config)
        assert counters["exhausted_lost"] == predict
        assert sum(s.lost_net for s in report.sessions) == predict
        # Only the headset-served saccade and reuse frames complete.
        assert sum(s.completed for s in report.sessions) == (
            report.total_frames - predict
        )
        assert_ledger_closes(config, report)

    def test_exhaustion_leaves_no_pending_envelopes(self):
        # finish() hard-fails on unresolved envelopes; a completing run
        # is itself the assertion, but make the invariant explicit.
        runtime = FleetRuntime(self.blackhole("degrade"))
        runtime.start()
        while runtime.step():
            pass
        assert runtime.transport.pending == {}
        runtime.finish()


class TestTransportStateRoundtrip:
    def test_state_survives_serialization_mid_flight(self):
        # Capture the transport mid-run (pending envelopes, dedupe
        # registry, detector estimates all live) and round-trip it.
        config = net_fleet(
            NetConfig(
                enabled=True, seed=5,
                link=LinkProfile(drop_rate=0.3, dup_rate=0.2, delay_s=5e-4),
                partitions=(
                    PartitionWindow(start_s=0.1, stop_s=0.3, shard_ids=(1,)),
                ),
            )
        )
        runtime = FleetRuntime(config)
        runtime.start()
        for _ in range(900):
            if not runtime.step():
                break
        state = runtime.transport.state_dict()
        clone = FleetTransport(config.net)
        clone.load_state(state)
        assert clone.state_dict() == state
        assert clone.pending == runtime.transport.pending
        assert clone.applied == runtime.transport.applied
        assert clone.suspected == runtime.transport.suspected
        assert clone.counters == runtime.transport.counters


class TestConfigGuards:
    def test_net_rejects_live_migration(self):
        with pytest.raises(ValueError, match="does not compose with live"):
            net_fleet(NetConfig(enabled=True)).__class__(
                serve=net_serve(), n_shards=3,
                net=NetConfig(enabled=True), migration_rate_hz=4.0,
            )

    def test_partition_must_name_real_shards(self):
        net = NetConfig(
            enabled=True,
            partitions=(
                PartitionWindow(start_s=0.1, stop_s=0.2, shard_ids=(9,)),
            ),
        )
        with pytest.raises(ValueError, match="partition window names shard 9"):
            net_fleet(net, n_shards=3)

    def test_on_exhaust_is_validated(self):
        with pytest.raises(ValueError, match="on_exhaust"):
            NetConfig(enabled=True, on_exhaust="explode")
