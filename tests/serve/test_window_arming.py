"""One batch window per deadline drops only windows that dispatch nothing.

``ServeRuntime._dispatch_and_arm`` arms a WINDOW event at the queue
head's deadline only while that deadline is ahead and not the one armed
last (``DynamicBatcher.arm_window``).  The rule it replaced, kept below
as :func:`arm_every_admission`, armed one after every admission that
left a frame queued: again for a deadline already pending, and for one
already passed, where only a free worker is missing and the next
COMPLETE (or pool wake-up) retries the dispatch anyway.

The oracle runs each drawn config under both rules, over serve, chaos
(worker crashes, stalls and spikes behind breakers), soft errors, an
SLO engine, fleets with kills, migrations and rebalancing, and the
lossy ``--net`` transport, and checks that

* the reports (and the SLO verdicts and history) are byte-identical, and
* the new event stream is the old one with some WINDOW events removed,
  each of which dispatched no batch; seqs aside, the events kept are
  the old ones in order, each dispatching as it did.

The old rule armed windows at passed deadlines, which popped in their
runtime's past.  The oracle's copy fires those at once instead: in the
past, a faulty pool could hand a frame to a worker that had crashed
since, before the frame arrived, so the old reports were not always
right (:func:`test_the_old_rule_dispatched_in_the_past`).

The second half checks the event clock: every runtime's popped events,
and each fleet shard's events together with the control events the
fleet applies, come in non-decreasing time.
"""

from __future__ import annotations

import contextlib
import json
from collections import defaultdict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    ChaosConfig,
    InputFaultConfig,
    LatencySpike,
    WorkerCrash,
    WorkerFaultSchedule,
    WorkerStall,
    chaos_runtime,
)
from repro.faults.config import RecoveryConfig
from repro.faults.netfaults import ShardKill
from repro.obs import Obs, ObsConfig
from repro.obs.slo import SloEngine, default_slo_config
from repro.recover import fleet_report_bytes
from repro.reliability.softerror import SoftErrorConfig
from repro.serve import AdmissionPolicy, ServeConfig
from repro.serve.fleet import (
    FleetConfig,
    FleetRuntime,
    LinkProfile,
    NetConfig,
    PartitionWindow,
    RebalancerConfig,
    SessionMigration,
)
from repro.serve.runtime import _WINDOW, ServeRuntime


def arm_every_admission(self: ServeRuntime, now: float) -> None:
    """The old rule: a window at the head's deadline after every
    admission that leaves a frame queued, less its one fault: a passed
    deadline's window fires now rather than in the runtime's past (see
    :func:`test_the_old_rule_dispatched_in_the_past`)."""
    self._try_dispatch(now)
    if len(self.batcher) > 0 and self.batcher.window_s > 0:
        deadline = self.batcher.next_deadline_s()
        if deadline is not None:
            self._push(max(deadline, now), _WINDOW, None)


def arm_in_the_past(self: ServeRuntime, now: float) -> None:
    """The old rule as it ran: a passed deadline's window is armed at
    that deadline, behind the runtime's clock."""
    self._try_dispatch(now)
    if len(self.batcher) > 0 and self.batcher.window_s > 0:
        deadline = self.batcher.next_deadline_s()
        if deadline is not None:
            self._push(deadline, _WINDOW, None)


def old_rules() -> contextlib.ExitStack:
    """Arm a window after every admission."""
    rules = contextlib.ExitStack()
    rules.enter_context(mock.patch.object(
        ServeRuntime, "_dispatch_and_arm", arm_every_admission
    ))
    return rules


def taken(runtime) -> int:
    """Frames taken off the runtime's batchers so far."""
    if isinstance(runtime, FleetRuntime):
        return sum(s.batcher.taken_total for s in runtime.shards.values())
    return runtime.batcher.taken_total


def is_window(runtime, kind: int) -> bool:
    """Whether a ``peek_event`` kind is a WINDOW (a fleet encodes the
    shard in it: ``(shard_id + 1) * 4 + shard_kind``)."""
    if isinstance(runtime, FleetRuntime):
        return kind >= 4 and kind % 4 == _WINDOW
    return kind == _WINDOW


def drive(build, rules=None, seqs: bool = False):
    """Run ``build()``'s runtime under ``rules`` (a context manager; the
    runtime's own rules when None); return its report and SLO bytes, and
    each event as ``(time, kind, dispatched, window)``, with its seq
    after its kind when ``seqs``."""
    with rules if rules is not None else contextlib.nullcontext():
        runtime, engine = build()
        runtime.start()
        stream = []
        while (head := runtime.peek_event()) is not None:
            before = taken(runtime)
            runtime.step()
            stream.append((
                *(head if seqs else head[:2]), taken(runtime) > before,
                is_window(runtime, head[1]),
            ))
        report = fleet_report_bytes(runtime.finish())
    slo = engine.verdicts_json() + engine.history_jsonl() if engine else ""
    return report, slo, stream


def assert_only_idle_windows_dropped(old: list, new: list) -> None:
    """``new`` is ``old`` with some WINDOW events that dispatched nothing
    removed (greedy subsequence match: an equal event is always kept)."""
    kept = iter(new)
    pending = next(kept, None)
    for event in old:
        if event == pending:
            pending = next(kept, None)
        else:
            *_, dispatched, window = event
            assert window and not dispatched, f"dropped {event}, not an idle window"
    assert pending is None, f"{pending} is not in the old stream"


def assert_rules_agree(build, rules=old_rules) -> tuple[list, list]:
    old_report, old_slo, old = drive(build, rules())
    new_report, new_slo, new = drive(build)
    assert new_report == old_report
    assert new_slo == old_slo
    assert_only_idle_windows_dropped(old, new)
    return old, new


# ----------------------------------------------------------------------
# Drawn configs
# ----------------------------------------------------------------------
serve_configs = st.builds(
    ServeConfig,
    n_sessions=st.integers(2, 10),
    duration_s=st.sampled_from([0.1, 0.2, 0.3]),
    n_workers=st.integers(1, 3),
    max_batch=st.integers(1, 8),
    batch_window_s=st.sampled_from([0.0, 5e-4, 2e-3, 6e-3]),
    admission=st.sampled_from(list(AdmissionPolicy)),
    queue_budget_deadlines=st.sampled_from([0.5, 1.0, 2.0]),
    deadline_frames=st.sampled_from([0.3, 1.0]),
    reuse_displacement_deg=st.sampled_from([0.05, 0.3, 1.0]),
    stagger_s=st.sampled_from([0.0, 1e-3]),
    seed=st.integers(0, 7),
)


@st.composite
def worker_faults(draw, n_workers: int) -> WorkerFaultSchedule:
    worker = st.integers(0, n_workers - 1)
    start = st.sampled_from([0.0, 0.03, 0.08, 0.15])
    crashes = draw(st.lists(
        st.builds(WorkerCrash, worker_id=worker, at_s=start,
                  down_s=st.sampled_from([0.01, 0.05])),
        max_size=2,
    ))
    stalls = draw(st.lists(
        st.builds(lambda w, s, d: WorkerStall(w, s, s + d), worker, start,
                  st.sampled_from([0.02, 0.1])),
        max_size=1,
    ))
    spikes = draw(st.lists(
        st.builds(lambda w, s, f: LatencySpike(s, s + 0.05, f, worker_id=w),
                  st.none() | worker, start, st.sampled_from([1.5, 4.0])),
        max_size=1,
    ))
    return WorkerFaultSchedule(
        crashes=tuple(crashes), stalls=tuple(stalls), spikes=tuple(spikes)
    )


def builder(make, deadline_s: float, slo: bool):
    """A ``build`` of ``make(obs)``, with the default SLO engine attached
    when ``slo``."""
    def build():
        if not slo:
            return make(None), None
        obs = Obs(ObsConfig())
        runtime = make(obs)
        engine = SloEngine(default_slo_config(deadline_s), obs)
        runtime.attach_slo(engine)
        return runtime, engine
    return build


@settings(max_examples=60, deadline=None)
@given(serve=serve_configs, slo=st.booleans())
def test_serve_reports_and_streams_agree(serve, slo):
    assert_rules_agree(builder(
        lambda obs: ServeRuntime(serve, obs=obs), serve.deadline_s, slo
    ))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), serve=serve_configs, slo=st.booleans(),
       soft=st.booleans())
def test_chaos_reports_and_streams_agree(data, serve, slo, soft):
    config = ChaosConfig(
        serve=serve,
        input_faults=InputFaultConfig(
            frame_drop_rate=data.draw(st.sampled_from([0.0, 0.1])),
            noise_burst_rate_hz=2.0, occlusion_rate_hz=1.0,
            bit_error_rate=data.draw(st.sampled_from([0.0, 1e-8])),
        ),
        worker_faults=data.draw(worker_faults(serve.n_workers)),
        recovery=RecoveryConfig(
            breaker_threshold=data.draw(st.integers(1, 3)),
            breaker_cooldown_s=data.draw(st.sampled_from([0.01, 0.05])),
            dispatch_timeout_s=0.02,
        ),
        soft_errors=(
            SoftErrorConfig(fit_per_mbit=500.0, acceleration=2e11)
            if soft else SoftErrorConfig.inactive()
        ),
        fault_seed=data.draw(st.integers(0, 5)),
    )
    assert_rules_agree(builder(
        lambda obs: chaos_runtime(config, obs=obs), serve.deadline_s, slo
    ))


def crash_after_a_passed_deadline() -> ChaosConfig:
    """One worker, down from 30 to 80 ms: a frame admitted at 60 ms
    finds the queue head's deadline (12 ms) passed and no worker up."""
    return ChaosConfig(
        serve=ServeConfig(
            n_sessions=7, duration_s=0.1, n_workers=1, max_batch=2,
            batch_window_s=0.006, admission=AdmissionPolicy.DEGRADE,
            reuse_displacement_deg=1.0, stagger_s=0.001, seed=0,
        ),
        input_faults=InputFaultConfig(
            frame_drop_rate=0.0, noise_burst_rate_hz=2.0,
            occlusion_rate_hz=1.0, bit_error_rate=0.0,
        ),
        worker_faults=WorkerFaultSchedule(
            crashes=(WorkerCrash(worker_id=0, at_s=0.03, down_s=0.05),)
        ),
        recovery=RecoveryConfig(
            breaker_threshold=1, breaker_cooldown_s=0.01,
            dispatch_timeout_s=0.02,
        ),
        soft_errors=SoftErrorConfig.inactive(),
        fault_seed=0,
    )


def test_the_old_rule_dispatched_in_the_past():
    config = crash_after_a_passed_deadline()
    build = builder(lambda obs: chaos_runtime(config, obs=obs), 0.0, False)

    def latencies(report: bytes) -> list:
        return [
            latency for session in json.loads(report)["sessions"]
            for latency in session["latencies_s"]
        ]

    def as_it_ran():
        rules = old_rules()
        rules.enter_context(mock.patch.object(
            ServeRuntime, "_dispatch_and_arm", arm_in_the_past
        ))
        return rules

    past_report, _, past = drive(build, as_it_ran())
    # The 12 ms window pops after the 60 ms arrival, finds the worker up
    # (its crash starts at 30 ms) and serves that frame 45 ms early.
    assert any(later[0] < earlier[0] for earlier, later in zip(past, past[1:]))
    assert min(latencies(past_report)) < 0
    _, new = assert_rules_agree(build)
    assert all(earlier[0] <= later[0] for earlier, later in zip(new, new[1:]))
    assert min(latencies(drive(build)[0])) >= 0


@st.composite
def fleet_configs(draw, net: bool = False) -> FleetConfig:
    serve = draw(serve_configs)
    n_shards = draw(st.integers(1, 4))
    shard = st.integers(0, n_shards - 1)
    when = st.sampled_from([0.02, 0.05, 0.1, 0.15])
    kills = draw(st.lists(
        st.builds(ShardKill, shard_id=shard, at_s=when),
        max_size=1 if n_shards > 1 else 0, unique_by=lambda k: k.shard_id,
    ))
    config = dict(serve=serve, n_shards=n_shards, kills=tuple(kills))
    if net:
        config["net"] = NetConfig(
            enabled=True, seed=draw(st.integers(0, 5)),
            link=LinkProfile(
                drop_rate=draw(st.sampled_from([0.0, 0.1, 0.3])),
                dup_rate=0.1, delay_s=5e-4, jitter_s=1e-3,
            ),
            partitions=(
                (PartitionWindow(start_s=0.05, stop_s=0.12, shard_ids=(0,)),)
                if draw(st.booleans()) else ()
            ),
            ack_timeout_s=4e-3, max_retransmits=draw(st.integers(1, 4)),
            on_exhaust=draw(st.sampled_from(["degrade", "drop"])),
        )
    else:
        # Live migration and the rebalancer: under --net only the
        # failure detector moves sessions.
        config.update(
            migrations=tuple(draw(st.lists(
                st.builds(SessionMigration, at_s=when,
                          session_id=st.integers(0, serve.n_sessions - 1),
                          to_shard=st.none() | shard),
                max_size=2,
            ))),
            rebalancer=draw(st.sampled_from([
                RebalancerConfig(),
                RebalancerConfig(interval_s=0.03, p95_high_s=0.5e-3,
                                 p95_low_s=0.1e-3, cooldown_s=0.05),
            ])),
            migration_rate_hz=draw(st.sampled_from([0.0, 20.0])),
            migration_seed=draw(st.integers(0, 3)),
        )
    return FleetConfig(**config)


def fleet_build(config: FleetConfig, slo: bool):
    return builder(
        lambda obs: FleetRuntime(config, obs=obs), config.serve.deadline_s, slo
    )


@settings(max_examples=60, deadline=None)
@given(config=fleet_configs(), slo=st.booleans())
def test_fleet_reports_and_streams_agree(config, slo):
    assert_rules_agree(fleet_build(config, slo))


@settings(max_examples=40, deadline=None)
@given(config=fleet_configs(net=True), slo=st.booleans())
def test_net_fleet_reports_and_streams_agree(config, slo):
    assert_rules_agree(fleet_build(config, slo))


def predict_heavy_fleet() -> FleetConfig:
    """Most frames reach the batcher, two shards, a kill and a
    migration: many admissions find their window already armed."""
    return FleetConfig(
        serve=ServeConfig(
            n_sessions=24, duration_s=0.4, n_workers=1,
            reuse_displacement_deg=0.05, queue_budget_deadlines=2.0, seed=0,
        ),
        n_shards=2,
        kills=(ShardKill(shard_id=1, at_s=0.3),),
        migrations=(SessionMigration(at_s=0.1, session_id=3, to_shard=1),),
    )


def test_most_old_windows_were_idle_and_every_dispatching_one_is_kept():
    old, new = assert_rules_agree(fleet_build(predict_heavy_fleet(), False))
    old_windows = [e for e in old if e[3]]
    new_windows = [e for e in new if e[3]]
    dispatching = [e for e in old_windows if e[2]]
    assert dispatching == [e for e in new_windows if e[2]]
    assert len(new_windows) < len(old_windows) // 2
    assert len(new) < len(old)


# ----------------------------------------------------------------------
# The event clock
# ----------------------------------------------------------------------
def clocks(runtime) -> dict:
    """Run ``runtime``; return each serving runtime's clock: the times
    of the events it popped and, in a fleet, of every control event the
    fleet applied, in the order they were applied."""
    times: dict = defaultdict(list)
    serve_step, apply_control = ServeRuntime.step, FleetRuntime._apply_control

    def step(self):
        if self._heap:
            times[self].append(self._heap[0][0])
        return serve_step(self)

    def control(self):
        now = self._control[0][0]
        for shard in self.shards.values():
            times[shard].append(now)
        return apply_control(self)

    with mock.patch.object(ServeRuntime, "step", step), \
            mock.patch.object(FleetRuntime, "_apply_control", control):
        runtime.run()
    return times


def net_fleet() -> FleetConfig:
    return FleetConfig(
        serve=ServeConfig(
            n_sessions=16, duration_s=0.4, n_workers=1,
            reuse_displacement_deg=0.05, seed=0,
        ),
        n_shards=3,
        kills=(ShardKill(shard_id=2, at_s=0.3),),
        net=NetConfig(
            enabled=True, seed=3,
            link=LinkProfile(drop_rate=0.1, dup_rate=0.1, delay_s=5e-4,
                             jitter_s=1e-3),
            partitions=(PartitionWindow(start_s=0.1, stop_s=0.2, shard_ids=(1,)),),
            ack_timeout_s=4e-3, max_retransmits=8,
        ),
    )


def chaos_config() -> ChaosConfig:
    return ChaosConfig(
        serve=ServeConfig(
            n_sessions=12, duration_s=0.5, n_workers=1,
            reuse_displacement_deg=0.05, seed=7,
        ),
        worker_faults=WorkerFaultSchedule(
            crashes=(WorkerCrash(worker_id=0, at_s=0.1, down_s=0.05),),
            stalls=(WorkerStall(worker_id=0, start_s=0.2, stop_s=0.3),),
        ),
        fault_seed=7,
    )


CLOCK_RUNS = {
    "serve": lambda: ServeRuntime(ServeConfig(
        n_sessions=24, duration_s=0.5, n_workers=1,
        reuse_displacement_deg=0.05, seed=0,
    )),
    "chaos": lambda: chaos_runtime(chaos_config()),
    "fleet": lambda: FleetRuntime(predict_heavy_fleet()),
    "net": lambda: FleetRuntime(net_fleet()),
}


@pytest.mark.parametrize("name", sorted(CLOCK_RUNS))
def test_the_event_clock_never_runs_backwards(name):
    times = clocks(CLOCK_RUNS[name]())
    assert times
    for runtime, clock in times.items():
        backwards = [
            (i, earlier, later)
            for i, (earlier, later) in enumerate(zip(clock, clock[1:]))
            if later < earlier
        ]
        assert not backwards, (name, backwards[:3])
