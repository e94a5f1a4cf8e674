"""The fleet's shard-major event order changes no report.

``FleetRuntime.step`` drains shards one after another between control
events.  The reference driver below applies the same events in global
time order instead — control first at equal time, then shards by id —
with the SLO boundaries evaluated right after the first event at or
after them.  Every test checks that the two orders produce byte-identical
reports through kills, migrations, rebalancer spawns and drains, SLO
paging and the lossy transport, that a checkpoint taken at any event
index (mid-window included) restores to the same report, and that
``peek_event`` has no side effects.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.faults import ProcessKill, SimulatedCrash
from repro.faults.netfaults import ShardKill
from repro.obs import Obs, ObsConfig
from repro.obs.slo import SloEngine, default_slo_config
from repro.recover import fleet_report_bytes
from repro.recover.manager import resume, run_with_checkpoints
from repro.recover.codec import canonical_json
from repro.serve import AdmissionPolicy, ServeConfig
from repro.serve.fleet import (
    FleetConfig,
    FleetRuntime,
    GraySlow,
    LinkProfile,
    NetConfig,
    PartitionWindow,
    RebalancerConfig,
    SessionMigration,
    run_fleet,
)
from repro.serve.runtime import evaluate_slo_through
from tests.serve import test_fleet_migration


def global_step(runtime: FleetRuntime) -> bool:
    """Apply the globally earliest event, as the merged order did."""
    head = None
    for shard_id in sorted(runtime.shards):
        heap = runtime.shards[shard_id]._heap
        if heap and (head is None or heap[0][0] < head[0]):
            head = (heap[0][0], shard_id)
    control = runtime._control
    if control and (head is None or control[0][0] <= head[0]):
        now, shard, key = control[0][0], None, (control[0][0], -1)
    elif head is None:
        return False
    else:
        now, shard = head[0], runtime.shards[head[1]]
        key = shard._head_key(head[1])
    slo = runtime.slo
    if slo is not None and slo.due(now):
        evaluate_slo_through(slo, runtime._lanes(), key)
    if shard is None:
        runtime._apply_control()
    else:
        shard.step()
    runtime.events_processed += 1
    if slo is not None:
        slo.maybe_evaluate(now)
    return True


def run(config: FleetConfig, step, slo: bool = False):
    """Run ``config`` with ``step``; return the report bytes, the
    runtime and, with ``slo``, the SLO engine."""
    obs = Obs(ObsConfig()) if slo else None
    runtime = FleetRuntime(config, obs=obs)
    engine = None
    if slo:
        engine = SloEngine(default_slo_config(config.serve.deadline_s), obs)
        runtime.attach_slo(engine)
    runtime.start()
    while step(runtime):
        pass
    report = runtime.finish()
    return fleet_report_bytes(report), runtime, engine


def assert_orders_agree(config: FleetConfig) -> FleetRuntime:
    expected, reference, _ = run(config, global_step)
    got, runtime, _ = run(config, FleetRuntime.step)
    assert got == expected
    assert runtime.events_processed == reference.events_processed
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


def drain_fleet() -> FleetConfig:
    """The predict-heavy rebalancer fleet with fewer predict frames and a
    band just above the batch window: one spawn, then a drain."""
    config = test_fleet_migration.TestRebalancer().predict_heavy()
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


def paging_fleet() -> FleetConfig:
    """The kill fleet with every predict frame admitted against a third
    of a frame's deadline: the default SLO pages."""
    return dataclasses.replace(
        kill_fleet(),
        serve=serve(deadline_frames=0.3, admission=AdmissionPolicy.ALWAYS),
    )


def small_fleet() -> FleetConfig:
    """About 300 events with a shard kill and rebalancer spawns."""
    return FleetConfig(
        serve=serve(n_sessions=8, duration_s=0.2),
        n_shards=2,
        kills=(ShardKill(shard_id=0, at_s=0.15),),
        rebalancer=RebalancerConfig(
            interval_s=0.05, p95_high_s=0.5e-3, p95_low_s=0.1e-3,
            cooldown_s=0.1,
        ),
    )


class TestShardMajorMatchesGlobalOrder:
    def test_shard_kill(self):
        runtime = assert_orders_agree(kill_fleet())
        assert runtime.shards[1].killed_at_s == 0.2

    def test_stepped_equals_run_fleet(self):
        # Stepping to the end drains every shard and the control heap,
        # and reports what the one-call driver reports.
        config = kill_fleet()
        got, runtime, _ = run(config, FleetRuntime.step)
        assert not runtime._control
        assert all(not shard._heap for shard in runtime.shards.values())
        assert got == fleet_report_bytes(run_fleet(config))

    def test_explicit_and_rate_driven_migrations(self):
        runtime = assert_orders_agree(migration_fleet())
        assert len(runtime.log.migrations) > 3

    def test_rebalancer_spawn(self):
        runtime = assert_orders_agree(
            test_fleet_migration.TestRebalancer().predict_heavy()
        )
        assert runtime.log.rebalance_spawns > 0

    def test_rebalancer_spawn_then_drain(self):
        runtime = assert_orders_agree(drain_fleet())
        assert runtime.log.rebalance_spawns == 1
        assert runtime.log.rebalance_drains == 1
        assert runtime.shards[2].retired_at_s is not None

    def test_net_partition_gray_slow_and_silent_kill(self):
        runtime = assert_orders_agree(net_fleet())
        assert runtime.transport.counters["suspected"] >= 1
        assert runtime.shards[2].killed_at_s == 0.35

    def test_slo_widen_pages_at_the_same_boundaries(self):
        # SLO boundaries close every window: the engine must read the
        # same registry at each one as under the global order.
        config = paging_fleet()
        expected, _, reference = run(config, global_step, slo=True)
        got, _, engine = run(config, FleetRuntime.step, slo=True)
        assert got == expected
        assert engine.history == reference.history
        assert engine.verdicts == reference.verdicts
        assert engine.config.objectives[0].on_page == "widen"
        assert sum(v.pages for v in engine.verdicts) > 0


class TestRestoreAtEveryEvent:
    def test_every_event_index_restores_byte_identically(self):
        # Restoring recomputes the window cursor from the state alone,
        # so a checkpoint in the middle of a shard's sweep resumes with
        # the same events.
        config = small_fleet()
        expected, reference, _ = run(config, FleetRuntime.step)
        assert reference.log.rebalance_spawns > 0
        assert reference.shards[0].killed_at_s == 0.15
        runtime = FleetRuntime(config)
        runtime.start()
        events = 0
        while True:
            clone = FleetRuntime(config)
            clone.load_state(json.loads(canonical_json(runtime.state_dict())))
            assert clone.peek_event() == runtime.peek_event(), events
            while clone.step():
                pass
            assert fleet_report_bytes(clone.finish()) == expected, events
            if not runtime.step():
                break
            events += 1
        assert events == reference.events_processed


    def test_journal_replay_restores_byte_identically(self, tmp_path):
        # The recover path: a checkpoint every 25 events and the journal
        # tail after it, replayed with peek_event cross-checks, for a
        # kill at every 15th event index.
        config = small_fleet()
        expected, reference, _ = run(config, FleetRuntime.step)
        for kill_at in range(1, reference.events_processed, 15):
            directory = tmp_path / str(kill_at)
            with pytest.raises(SimulatedCrash):
                run_with_checkpoints(
                    FleetRuntime(config), directory, every=25,
                    kill=ProcessKill(at_event=kill_at),
                )
            assert fleet_report_bytes(resume(directory)) == expected, kill_at


class TestPeekIsIdempotent:
    @pytest.mark.parametrize(
        "config", [kill_fleet(), drain_fleet(), net_fleet()],
        ids=["kill", "drain", "net"],
    )
    def test_second_peek_changes_nothing(self, config):
        runtime = FleetRuntime(config)
        runtime.start()
        events = 0
        while runtime.peek_event() is not None:
            if events % 97 == 0:
                before = canonical_json(runtime.state_dict())
                first = runtime.peek_event()
                assert runtime.peek_event() == first
                assert canonical_json(runtime.state_dict()) == before
            runtime.step()
            events += 1
