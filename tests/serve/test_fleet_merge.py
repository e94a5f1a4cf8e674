"""The fleet's heads index merges shard heads in exactly the scan's order.

``FleetRuntime`` picks its next event from the control heap and a lazily
validated heap of shard heads.  The reference below is the linear scan
it replaced: peek the control heap and every shard, take the smallest
``(time, rank)`` with control at rank -1 and shards ranked by id.  Each
test steps a fleet one event at a time and checks that the two agree at
every event, through kills, migrations, rebalancer spawns and the lossy
transport.
"""

from __future__ import annotations

import dataclasses

from repro.faults.netfaults import ShardKill
from repro.recover import fleet_report_bytes
from repro.recover.codec import canonical_json
from repro.serve import ServeConfig
from repro.serve.fleet import (
    FleetConfig,
    FleetRuntime,
    GraySlow,
    LinkProfile,
    NetConfig,
    PartitionWindow,
    SessionMigration,
    run_fleet,
)
from tests.serve import test_fleet_migration

_SHARD_KIND_STRIDE = 4


def _next_source(runtime: FleetRuntime) -> "tuple[float, int, int] | None":
    """The reference merge: journal ``(time_s, kind, seq)`` of the next
    event by a sorted scan over the control heap and every shard."""
    best_key = None
    best = None
    if runtime._control:
        time_s, seq, kind, _ = runtime._control[0]
        best_key = (time_s, -1)
        best = (time_s, kind, seq)
    for shard_id in sorted(runtime.shards):
        head = runtime.shards[shard_id].peek_event()
        if head is None:
            continue
        time_s, kind, seq = head
        key = (time_s, shard_id)
        if best_key is None or key < best_key:
            best_key = key
            best = (time_s, (shard_id + 1) * _SHARD_KIND_STRIDE + kind, seq)
    return best


def assert_index_invariant(runtime: FleetRuntime) -> None:
    """Every non-empty shard is indexed at its head time, and stale
    entries stay bounded by the events the shards still hold."""
    heads = set(runtime._heads)
    events = 0
    for shard_id, shard in runtime.shards.items():
        assert shard.heads is runtime._heads
        events += len(shard._heap)
        if shard._heap:
            assert (shard._heap[0][0], shard_id) in heads
    # A head that an earlier event pushed from outside the shard's step
    # (a migration, a transport delivery) displaces keeps its entry and
    # is indexed again once it is the head again: one spare per shard.
    assert len(runtime._heads) <= events + 2 * len(runtime.shards)


def drive(runtime: FleetRuntime) -> None:
    """Step ``runtime`` to the end, checking the merge at every event."""
    events = 0
    while True:
        assert_index_invariant(runtime)
        expected = _next_source(runtime)
        assert runtime.peek_event() == expected, f"event {events}"
        if expected is None:
            break
        assert runtime.step()
        events += 1
    assert not runtime.step()


def started(config: FleetConfig) -> FleetRuntime:
    runtime = FleetRuntime(config)
    runtime.start()
    return runtime


def serve(**overrides) -> ServeConfig:
    defaults = dict(
        n_sessions=16, duration_s=0.4, n_workers=1,
        reuse_displacement_deg=0.05, queue_budget_deadlines=0.8, seed=0,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def kill_fleet() -> FleetConfig:
    return FleetConfig(
        serve=serve(), n_shards=4, kills=(ShardKill(shard_id=1, at_s=0.2),)
    )


def migration_fleet() -> FleetConfig:
    return FleetConfig(
        serve=serve(),
        n_shards=4,
        migrations=(
            SessionMigration(at_s=0.1, session_id=3),
            SessionMigration(at_s=0.15, session_id=5, to_shard=0),
            SessionMigration(at_s=0.15, session_id=6, to_shard=2),
        ),
        migration_rate_hz=20.0,
        migration_seed=1,
    )


def rebalancer_fleet() -> FleetConfig:
    return test_fleet_migration.TestRebalancer().predict_heavy()


def drain_fleet() -> FleetConfig:
    """The predict-heavy rebalancer fleet with fewer predict frames and a
    band just above the batch window: one spawn, then a drain."""
    config = rebalancer_fleet()
    return dataclasses.replace(
        config,
        serve=dataclasses.replace(config.serve, reuse_displacement_deg=0.3),
        rebalancer=dataclasses.replace(
            config.rebalancer, p95_high_s=2.5e-3, p95_low_s=2.1e-3
        ),
    )


def net_fleet() -> FleetConfig:
    return FleetConfig(
        serve=serve(duration_s=0.5),
        n_shards=3,
        kills=(ShardKill(shard_id=2, at_s=0.35),),
        net=NetConfig(
            enabled=True, seed=3,
            link=LinkProfile(
                drop_rate=0.1, dup_rate=0.1, delay_s=5e-4, jitter_s=1e-3
            ),
            partitions=(
                PartitionWindow(start_s=0.1, stop_s=0.2, shard_ids=(1,)),
            ),
            gray=(GraySlow(shard_id=0, start_s=0.22, stop_s=0.3),),
            ack_timeout_s=4e-3, max_retransmits=8,
        ),
    )


class TestMergeOrderMatchesScan:
    def test_shard_kill(self):
        runtime = started(kill_fleet())
        drive(runtime)
        assert runtime.shards[1].killed_at_s == 0.2

    def test_explicit_and_rate_driven_migrations(self):
        runtime = started(migration_fleet())
        drive(runtime)
        assert len(runtime.log.migrations) > 3

    def test_rebalancer_spawn(self):
        runtime = started(rebalancer_fleet())
        drive(runtime)
        assert runtime.log.rebalance_spawns > 0

    def test_rebalancer_spawn_then_drain(self):
        runtime = started(drain_fleet())
        drive(runtime)
        assert runtime.log.rebalance_spawns == 1
        assert runtime.log.rebalance_drains == 1
        assert runtime.shards[2].retired_at_s is not None

    def test_net_partition_gray_slow_and_silent_kill(self):
        runtime = started(net_fleet())
        drive(runtime)
        assert runtime.transport.counters["suspected"] >= 1
        assert runtime.shards[2].killed_at_s == 0.35

    def test_drained_index_is_empty_and_report_unchanged(self):
        config = kill_fleet()
        runtime = started(config)
        drive(runtime)
        assert runtime._heads == []
        assert fleet_report_bytes(runtime.finish()) == fleet_report_bytes(
            run_fleet(config)
        )


class TestPeekIsIdempotent:
    def test_second_peek_changes_nothing(self):
        for config in (
            kill_fleet(), rebalancer_fleet(), drain_fleet(), net_fleet()
        ):
            runtime = started(config)
            events = 0
            while runtime.peek_event() is not None:
                if events % 97 == 0:
                    before = canonical_json(runtime.state_dict())
                    first = runtime.peek_event()
                    assert runtime.peek_event() == first
                    assert canonical_json(runtime.state_dict()) == before
                runtime.step()
                events += 1


class TestRestoredIndex:
    def test_load_state_after_a_spawn_rebuilds_the_index(self):
        config = rebalancer_fleet()
        runtime = started(config)
        while len(runtime.shards) == config.n_shards:
            assert runtime.step(), "the rebalancer never spawned"
        for _ in range(50):
            runtime.step()
        clone = FleetRuntime(config)
        clone.load_state(runtime.state_dict())
        assert {sid for _, sid in clone._heads} == {
            sid for sid, shard in clone.shards.items() if shard._heap
        }
        drive(clone)
        assert fleet_report_bytes(clone.finish()) == fleet_report_bytes(
            run_fleet(config)
        )
