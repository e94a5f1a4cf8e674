"""Arrival seeding: the cursor pops what a heap of seeded ARRIVALs popped.

A runtime reads the predict frames it seeds at ``start`` from its one
``ArrivalCursor`` over its arrival source; the event heap holds the
work in flight and one entry standing for the cursor's head, which
pops the head and pushes its successor's.  Rows enter the cursor
through ``_add_arrivals`` (seeding, and a fleet shard's migration and
failover in) and leave it through ``ShardRuntime._cut_arrivals``.  The
oracle below keeps the heap seeding the cursor replaced, test-local:
:func:`push_each` pushes one ARRIVAL per added row, and a fleet shard's
migration and failover take those heap entries off
(:func:`cut_from_heap`).

The cursor and the heap cannot be compared entry for entry, so the
checks compare what they produce: the cursor's entries are the heap's
ARRIVALs in pop order, a checkpoint names the rows the heap held as
frame dicts, and, over drawn serve, chaos, fleet, ``--net`` and SLO
runs, every report is byte-identical and the ``peek_event`` streams,
seqs included, are equal."""

from __future__ import annotations

import contextlib
import heapq
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import ChaosConfig, InputFaultConfig, chaos_runtime
from repro.faults.config import RecoveryConfig
from repro.faults.netfaults import ShardKill
from repro.recover.codec import canonical_json
from repro.reliability.softerror import SoftErrorConfig
from repro.serve import FrameRequest, ServeConfig, fleet_requests
from repro.serve.fleet import FleetConfig, FleetRuntime, NetConfig
from repro.serve.fleet.shard import ShardRuntime
from repro.serve.runtime import _ARRIVAL, ServeRuntime
from tests.serve.test_window_arming import (
    builder,
    drive,
    fleet_build,
    fleet_configs,
    serve_configs,
    worker_faults,
)

SERVE = ServeConfig(
    n_sessions=12, duration_s=0.3, n_workers=1, seed=5, reuse_displacement_deg=0.2
)


# ----------------------------------------------------------------------
# The oracle: seeded arrivals on the heap
# ----------------------------------------------------------------------
def push_each(runtime: ServeRuntime, blocks) -> None:
    """The seeding the cursor replaced: one ARRIVAL push per row, block
    by block.  A migrated block carries the requests
    :func:`cut_from_heap` took off the source's heap."""
    for times, rows in blocks:
        for time_s, row in zip(times, rows):
            request = row if isinstance(row, FrameRequest) else (
                runtime._requests[row]
            )
            runtime._push(time_s, _ARRIVAL, request)


def cut_from_heap(shard: ShardRuntime, session_ids) -> dict:
    """Migration and failover out: each session's ARRIVALs, taken off
    the heap and sorted by ``(arrival_s, seq)``, as ``(times,
    requests)``."""
    cut = {sid: [] for sid in session_ids}
    keep = []
    for entry in shard._heap:
        mine = entry[1] == _ARRIVAL and entry[3].session_id in cut
        (cut[entry[3].session_id] if mine else keep).append(entry)
    heapq.heapify(keep)
    shard._heap = keep
    for entries in cut.values():
        entries.sort(key=lambda entry: (entry[3].arrival_s, entry[3].seq))
    return {
        sid: ([entry[0] for entry in entries], [entry[3] for entry in entries])
        for sid, entries in cut.items()
    }


def heap_seeded() -> contextlib.ExitStack:
    """Seeded arrivals on the heap, moved by heap surgery: the event
    loop before the cursor."""
    stack = contextlib.ExitStack()
    for owner, name, oracle in (
        (ServeRuntime, "_add_arrivals", push_each),
        (ShardRuntime, "_cut_arrivals", cut_from_heap),
    ):
        stack.enter_context(mock.patch.object(owner, name, oracle))
    return stack


def cursor_entries(runtime: ServeRuntime) -> list:
    """The cursor's entries as heap entries, in pop order, payloads as
    dicts."""
    requests = runtime._requests or []
    cursor = runtime._arrivals
    return sorted(
        (time_s, _ARRIVAL, seq, requests[row].to_dict())
        for time_s, row, seq in zip(
            cursor.times[::-1], cursor.rows[::-1], cursor.seqs[::-1]
        )
    )


def cursor_heads(runtime: ServeRuntime) -> list:
    """The heap's cursor entries: at most one, the cursor's head."""
    return [entry for entry in runtime._heap if entry[3] is runtime._arrivals]


def heap_arrivals(runtime: ServeRuntime) -> list:
    """The heap's ARRIVALs in pop order, payloads as dicts."""
    return [
        (time_s, kind, seq, request.to_dict())
        for time_s, kind, seq, request in sorted(runtime._heap)
        if kind == _ARRIVAL
    ]


def checkpointed_arrivals(state: dict, runtime: ServeRuntime) -> list:
    """A snapshot's cursor (its head entry's rows and seqs) as heap
    entries, in pop order: the rows are rows of ``runtime``'s source."""
    requests = runtime._requests
    return sorted(
        (requests[row].arrival_s, _ARRIVAL, seq, requests[row].to_dict())
        for _, kind, _, payload in state["heap"]
        if kind == _ARRIVAL and "rows" in payload
        for row, seq in zip(payload["rows"], payload["seqs"])
    )


def head_entries(runtime: ServeRuntime) -> list:
    """The cursor's head entry, as a checkpoint writes it."""
    return [
        [c.times[-1], _ARRIVAL, c.seqs[-1],
         {"rows": c.rows[::-1], "seqs": c.seqs[::-1]}]
        for *_, c in cursor_heads(runtime)
    ]


def fleet_config(net: bool) -> FleetConfig:
    return FleetConfig(
        serve=SERVE,
        n_shards=4,
        kills=(ShardKill(shard_id=1, at_s=0.15),),
        # Under the net transport sessions move only on failover.
        migration_rate_hz=0.0 if net else 10.0,
        net=NetConfig(enabled=True, seed=2) if net else NetConfig(),
    )


def started(make):
    runtime = make()
    runtime.start()
    return runtime


def oracle(make):
    with heap_seeded():
        return started(make)


# ----------------------------------------------------------------------
# Seeding
# ----------------------------------------------------------------------
class TestServeRuntimeSeeding:
    def test_heap_equals_repeated_push(self):
        runtime = started(lambda: ServeRuntime(SERVE))
        reference = oracle(lambda: ServeRuntime(SERVE, fleet=runtime.fleet))
        # The heap holds the cursor head's entry, and nothing else yet.
        cursor = runtime._arrivals
        assert runtime._heap == [cursor.head_entry()]
        assert cursor_entries(runtime) == heap_arrivals(reference)
        assert runtime._event_seq == reference._event_seq == len(cursor)
        assert runtime.peek_event() == reference.peek_event()

    def test_state_dict_equals_repeated_push(self):
        runtime = started(lambda: ServeRuntime(SERVE))
        reference = oracle(lambda: ServeRuntime(SERVE, fleet=runtime.fleet))
        state = json.loads(canonical_json(runtime.state_dict()))
        expected = json.loads(canonical_json(reference.state_dict()))
        assert checkpointed_arrivals(state, runtime) == [
            tuple(entry) for entry in expected.pop("heap")
        ]
        assert state.pop("heap") == head_entries(runtime)
        assert state == expected

    def test_seeding_continues_the_event_sequence(self):
        runtime = ServeRuntime(SERVE)
        runtime._requests, times = runtime._arrival_source()
        runtime._event_seq = 7
        runtime._add_arrivals([(times[:5], range(5))])
        assert runtime._arrivals.seqs[::-1] == [7, 8, 9, 10, 11]
        assert runtime._event_seq == 12

    def test_added_blocks_merge_into_the_one_cursor(self):
        # Blocks number their rows in block order and merge with the
        # cursor's entries by (time, seq): the pops one push per row
        # gives, from one head entry.
        runtime, reference = ServeRuntime(SERVE), ServeRuntime(SERVE)
        runtime._requests, times = runtime._arrival_source()
        reference._requests = runtime._requests
        calls = [
            [(times[7:9], [7, 8]), ([], []), (times[:3], [0, 1, 2])],
            [(times[5:6], [5]), (times[3:5], [3, 4])],
        ]
        for blocks in calls:
            runtime._add_arrivals(blocks)
            with heap_seeded():
                reference._add_arrivals(blocks)
        assert cursor_entries(runtime) == heap_arrivals(reference)
        assert runtime._event_seq == reference._event_seq == 8
        assert runtime._heap == [runtime._arrivals.head_entry()]

    def test_chaos_seeds_its_delivered_frames(self):
        config = ChaosConfig(
            serve=SERVE,
            input_faults=InputFaultConfig(frame_drop_rate=0.1, bit_error_rate=1e-8),
            fault_seed=3,
        )
        runtime = started(lambda: chaos_runtime(config))
        reference = oracle(lambda: chaos_runtime(config))
        assert cursor_entries(runtime) == heap_arrivals(reference)
        delivered = runtime.chaos.delivered(
            list(fleet_requests(runtime.fleet, SERVE.deadline_s))
        )
        # Retransmitted frames arrive late: the cursor orders them by
        # delivery, not capture.
        assert [e[0] for e in cursor_entries(runtime)] == [t for t, _ in delivered]
        assert any(t > r.arrival_s for t, r in delivered)


class TestShardSeeding:
    def test_each_shard_heap_equals_filtered_repeated_push(self):
        fleet = started(lambda: FleetRuntime(fleet_config(net=False)))
        reference = oracle(lambda: FleetRuntime(fleet_config(net=False)))
        seeded = 0
        for shard_id, shard in fleet.shards.items():
            assert cursor_entries(shard) == heap_arrivals(reference.shards[shard_id])
            assert shard._event_seq == reference.shards[shard_id]._event_seq
            seeded += len(shard._arrivals)
        assert seeded == len(fleet_requests(fleet.sessions, SERVE.deadline_s))

    @pytest.mark.parametrize("net", [False, True], ids=["direct", "net"])
    def test_fleet_state_dict_equals_repeated_push(self, net):
        fleet = started(lambda: FleetRuntime(fleet_config(net)))
        reference = oracle(lambda: FleetRuntime(fleet_config(net)))
        state = json.loads(canonical_json(fleet.state_dict()))
        expected = json.loads(canonical_json(reference.state_dict()))
        for shard, want in zip(state["shards"], expected["shards"]):
            runtime = fleet.shards[shard["shard_id"]]
            got, want = shard["state"], want["state"]
            assert checkpointed_arrivals(got, runtime) == [
                tuple(entry) for entry in want.pop("heap")
            ]
            assert got.pop("heap") == head_entries(runtime)
        assert state == expected


def test_fleet_checkpoint_stores_arrivals_as_two_int_columns():
    # Mid-run, past a kill and some migrations: every future arrival is
    # a row id and a seq of a cursor, and the only frame dicts left are
    # frames in flight (queued or in a dispatched batch).
    fleet = started(lambda: FleetRuntime(fleet_config(net=False)))
    while fleet.peek_event()[0] < 0.2:
        fleet.step()
    state = json.loads(canonical_json(fleet.state_dict()))
    future, cursors = 0, []
    for shard in state["shards"]:
        snapshot = shard["state"]
        cursors.append(0)
        for _, kind, _, payload in snapshot["heap"]:
            if kind == _ARRIVAL and "rows" in payload:
                rows, seqs = payload["rows"], payload["seqs"]
                assert len(rows) == len(seqs)
                assert all(type(value) is int for value in rows + seqs)
                future += len(rows)
                cursors[-1] += 1
        in_flight = len(snapshot["batcher"]["queue"]) + sum(
            len(payload["batch"]) for _, kind, _, payload in snapshot["heap"]
            if kind == 0
        )
        assert json.dumps(snapshot).count('"frame_index"') == in_flight
    assert future > 0
    # A migrated or re-homed session's rows merge into its new shard's
    # one cursor.
    assert max(cursors) <= 1


def test_every_shard_heap_holds_at_most_one_cursor_entry():
    # A kill re-homes its sessions and migrations move them; their rows
    # merge into each target's one cursor, so a shard's heap never holds
    # a second ARRIVAL entry.
    fleet = started(lambda: FleetRuntime(fleet_config(net=False)))
    rehomed_rows = 0
    while fleet.step():
        for shard in fleet.shards.values():
            arrivals = [entry for entry in shard._heap if entry[1] == _ARRIVAL]
            cursor = shard._arrivals
            assert arrivals == ([cursor.head_entry()] if cursor else [])
            if fleet.log.failovers and not rehomed_rows and shard.rehomed_in:
                rehomed_rows = len(cursor)
    assert fleet.log.failovers and fleet.log.migrations
    assert rehomed_rows > 0


# ----------------------------------------------------------------------
# The heap-seeded oracle under Hypothesis
# ----------------------------------------------------------------------
def assert_matches_oracle(build) -> None:
    old_report, old_slo, old = drive(build, heap_seeded(), seqs=True)
    new_report, new_slo, new = drive(build, seqs=True)
    assert new_report == old_report
    assert new_slo == old_slo
    assert new == old


@settings(max_examples=25, deadline=None)
@given(serve=serve_configs, slo=st.booleans())
def test_serve_matches_the_heap_seeded_oracle(serve, slo):
    assert_matches_oracle(builder(
        lambda obs: ServeRuntime(serve, obs=obs), serve.deadline_s, slo
    ))


@settings(max_examples=25, deadline=None)
@given(data=st.data(), serve=serve_configs, slo=st.booleans(),
       soft=st.booleans())
def test_chaos_matches_the_heap_seeded_oracle(data, serve, slo, soft):
    # Retries join the heap as ARRIVALs and tie with cursor arrivals.
    config = ChaosConfig(
        serve=serve,
        input_faults=InputFaultConfig(
            frame_drop_rate=data.draw(st.sampled_from([0.0, 0.1])),
            bit_error_rate=data.draw(st.sampled_from([0.0, 1e-8])),
        ),
        worker_faults=data.draw(worker_faults(serve.n_workers)),
        recovery=RecoveryConfig(
            breaker_threshold=data.draw(st.integers(1, 3)),
            max_retries=data.draw(st.integers(0, 2)),
            dispatch_timeout_s=0.02,
        ),
        soft_errors=(
            SoftErrorConfig(fit_per_mbit=500.0, acceleration=2e11)
            if soft else SoftErrorConfig.inactive()
        ),
        fault_seed=data.draw(st.integers(0, 5)),
    )
    assert_matches_oracle(builder(
        lambda obs: chaos_runtime(config, obs=obs), serve.deadline_s, slo
    ))


@settings(max_examples=25, deadline=None)
@given(config=fleet_configs(), slo=st.booleans())
def test_fleet_matches_the_heap_seeded_oracle(config, slo):
    # Kills, planned and rate-driven migrations, rebalancer spawns and
    # drains move cursor rows between shards.
    assert_matches_oracle(fleet_build(config, slo))


@settings(max_examples=15, deadline=None)
@given(config=fleet_configs(net=True), slo=st.booleans())
def test_net_fleet_matches_the_heap_seeded_oracle(config, slo):
    assert_matches_oracle(fleet_build(config, slo))
