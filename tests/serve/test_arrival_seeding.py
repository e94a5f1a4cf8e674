"""Arrival seeding: the one-assignment heap equals repeated pushes.

``ServeRuntime._seed_arrivals`` replaces one ``heappush`` per frame with
a single list assignment, and ``FleetRuntime.start`` hands every shard
its rows of the global predict stream.  Checkpoints serialize the raw
heap, so both must reproduce the per-frame push path element for element.
Only predict frames are seeded: bypass frames stay per-session backlogs.
"""

from __future__ import annotations

import pytest

from repro.faults.netfaults import ShardKill
from repro.recover.codec import canonical_json
from repro.serve import ServeConfig, fleet_requests
from repro.serve.fleet import FleetConfig, FleetRuntime, NetConfig
from repro.serve.fleet.shard import ShardRuntime
from repro.serve.runtime import _ARRIVAL, ServeRuntime

SERVE = ServeConfig(
    n_sessions=12, duration_s=0.3, n_workers=1, seed=5, reuse_displacement_deg=0.2
)


def push_each(runtime, requests) -> None:
    """The per-frame seeding path the helper replaces."""
    for request in requests:
        runtime._push(request.arrival_s, _ARRIVAL, request)


def fleet_config(net: bool) -> FleetConfig:
    return FleetConfig(
        serve=SERVE,
        n_shards=4,
        kills=(ShardKill(shard_id=1, at_s=0.15),),
        # Under the net transport sessions move only on failover.
        migration_rate_hz=0.0 if net else 10.0,
        net=NetConfig(enabled=True, seed=2) if net else NetConfig(),
    )


class TestServeRuntimeSeeding:
    def test_heap_equals_repeated_push(self):
        runtime = ServeRuntime(SERVE)
        runtime.start()
        oracle = ServeRuntime(SERVE, fleet=runtime.fleet)
        push_each(oracle, fleet_requests(oracle.fleet, SERVE.deadline_s))
        assert runtime._heap == oracle._heap
        assert runtime._event_seq == oracle._event_seq == len(runtime._heap)

    def test_state_dict_equals_repeated_push(self, monkeypatch):
        runtime = ServeRuntime(SERVE)
        runtime.start()
        monkeypatch.setattr(ServeRuntime, "_seed_arrivals", push_each)
        oracle = ServeRuntime(SERVE, fleet=runtime.fleet)
        oracle.start()
        assert canonical_json(runtime.state_dict()) == canonical_json(
            oracle.state_dict()
        )

    def test_seeding_continues_the_event_sequence(self):
        runtime = ServeRuntime(SERVE)
        runtime._event_seq = 7
        requests = fleet_requests(runtime.fleet, SERVE.deadline_s)[:5]
        runtime._seed_arrivals(requests)
        assert [entry[2] for entry in runtime._heap] == [7, 8, 9, 10, 11]
        assert runtime._event_seq == 12

    def test_seeding_requires_an_empty_heap(self):
        runtime = ServeRuntime(SERVE)
        runtime.start()
        with pytest.raises(AssertionError):
            runtime._seed_arrivals([])


class TestShardSeeding:
    def test_each_shard_heap_equals_filtered_repeated_push(self):
        fleet = FleetRuntime(fleet_config(net=False))
        fleet.start()
        all_requests = fleet_requests(fleet.sessions, SERVE.deadline_s)
        seeded = 0
        for shard_id, shard in fleet.shards.items():
            members = {s.session_id for s in shard.fleet}
            oracle = ShardRuntime(shard_id, SERVE)
            push_each(oracle, [r for r in all_requests if r.session_id in members])
            assert shard._heap == oracle._heap
            assert shard._event_seq == oracle._event_seq
            seeded += len(shard._heap)
        assert seeded == len(all_requests)

    @pytest.mark.parametrize("net", [False, True], ids=["direct", "net"])
    def test_fleet_state_dict_equals_repeated_push(self, monkeypatch, net):
        fleet = FleetRuntime(fleet_config(net))
        fleet.start()
        monkeypatch.setattr(ServeRuntime, "_seed_arrivals", push_each)
        oracle = FleetRuntime(fleet_config(net))
        oracle.start()
        assert canonical_json(fleet.state_dict()) == canonical_json(
            oracle.state_dict()
        )
