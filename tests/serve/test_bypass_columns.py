"""A run of bypass frames is recorded as one slice of the ledger's columns.

Every plain session's saccade and reuse frames are rows of one
:class:`~repro.serve.request.BypassColumns` per session ledger; a run of
them is recorded with one ``extend`` of latencies, counts and misses
from prefix differences, and the makespan from a per-session running
max.  A completed batch is recorded in one call.

The oracle is the per-frame recording this replaces, kept below: a
backlog cut from each session's decision strings, one
``SessionStats.record`` per bypass frame, and one ledger-row flush and
record per completed request.  Both runtimes are stepped in lockstep
and compared after every event: every ``SessionStats`` row (latencies
as ``float.hex``), every shard's makespan and completed-frame count,
and, when traced, the span list.  Bypass latencies longer than a frame
period make a session's completions non-monotone (so a slice's latest
completion need not be its last frame's) and make bypass frames miss
their deadline.

Event timing rarely ends a slice inside such a reordering, or hands the
next slice of a session to a shard behind its earlier frames, so a
second oracle records arbitrary slices of every backlog on arbitrary
shards of one ledger.
"""

from __future__ import annotations

from dataclasses import replace
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults.netfaults import ShardKill
from repro.obs import Obs, ObsConfig
from repro.recover import fleet_report_bytes
from repro.serve import ServeConfig, ServeRuntime
from repro.serve.config import AdmissionPolicy
from repro.serve.fleet import (
    FleetConfig,
    FleetRuntime,
    NetConfig,
    PartitionWindow,
)
from repro.serve.fleet.config import (
    FailoverConfig,
    RebalancerConfig,
    SessionMigration,
)
from repro.serve.fleet.shard import ShardRuntime
from repro.serve.request import BypassLedger, build_fleet
from repro.serve.telemetry import new_ledger

#: Bypass latencies: the accelerator's, and two longer than a 10 ms
#: frame period's worth of a deadline (they miss and reorder).
BYPASS_S = [1.2e-4, 4e-3, 0.025]


class PerFrameRecording:
    """The per-frame recording the columns replace (the oracle)."""

    def _reference_backlog(self, session):
        cache = self.__dict__.setdefault("_reference_backlogs", {})
        if session.session_id not in cache:
            decisions = session.decisions
            frames = [f for f, path in enumerate(decisions) if path != "predict"]
            cache[session.session_id] = (
                frames,
                session.arrivals[frames].tolist(),
                [decisions[f] for f in frames],
            )
        return cache[session.session_id]

    def _backlog(self, session):
        arrivals = self._reference_backlog(session)[1]
        counts = self.stats[session.session_id].counts
        return arrivals, counts["saccade"] + counts["reuse"], len(arrivals)

    def _record_backlog(self, session, start, stop):
        if stop > start:
            frames, arrivals, paths = self._reference_backlog(session)
            self._record_frames(
                session.session_id,
                frames[start:stop],
                arrivals[start:stop],
                paths[start:stop],
            )

    def _record_frames(self, session_id, frames, arrivals, paths):
        if isinstance(self, ShardRuntime):
            self.completed_frames += len(frames)
        config = self.config
        saccade_s, reuse_s = config.saccade_bypass_s, config.reuse_bypass_s
        deadline_s = self._deadline_s
        record = self.stats[session_id].record
        trace = self.obs.enabled
        makespan = self._makespan_s
        for frame, arrival, path in zip(frames, arrivals, paths):
            done = arrival + (saccade_s if path == "saccade" else reuse_s)
            latency = done - arrival
            record(path, latency, deadline_s)
            if done > makespan:
                makespan = done
            if trace:
                self._trace_frame(session_id, frame, arrival, path, latency)
        self._makespan_s = makespan

    def _record_batch(self, batch, done_s):
        for request in batch:
            if isinstance(self, ShardRuntime):
                self.completed_frames += 1
            self._ledger_row(request.session_id, done_s)
            latency = done_s - request.arrival_s
            self.stats[request.session_id].record(
                request.path, latency, self._deadline_s
            )
            self._makespan_s = max(self._makespan_s, done_s)
            if self.obs.enabled:
                self._trace_frame(
                    request.session_id, request.frame_index,
                    request.arrival_s, request.path, latency,
                )


class ReferenceServe(PerFrameRecording, ServeRuntime):
    pass


class ReferenceShard(PerFrameRecording, ShardRuntime):
    pass


class ReferenceFleet(FleetRuntime):
    def _build_shard(self, shard_id, sessions):
        with mock.patch("repro.serve.fleet.runtime.ShardRuntime", ReferenceShard):
            return super()._build_shard(shard_id, sessions)


def ledger(runtime) -> list:
    return [
        (
            sid,
            [latency.hex() for latency in s.latencies_s],
            dict(s.counts),
            s.misses, s.shed, s.degraded, s.pending,
            s.lost_input, s.lost_shard, s.lost_net,
        )
        for sid, s in runtime.stats.items()
    ]


def shard_counters(runtime) -> list:
    if isinstance(runtime, FleetRuntime):
        return [
            (sid, shard._makespan_s.hex(), shard.completed_frames)
            for sid, shard in runtime.shards.items()
        ]
    return [runtime._makespan_s.hex()]


def assert_lockstep(config, obs: bool) -> None:
    """Step the columnar and the per-frame runtime side by side."""
    fleet = isinstance(config, FleetConfig)
    bundles = [Obs(ObsConfig()) if obs else None for _ in range(2)]
    new = (FleetRuntime if fleet else ServeRuntime)(config, obs=bundles[0])
    ref = (ReferenceFleet if fleet else ReferenceServe)(config, obs=bundles[1])
    new.start()
    ref.start()
    while True:
        assert ledger(new) == ledger(ref)
        assert shard_counters(new) == shard_counters(ref)
        if obs:
            assert bundles[0].tracer.spans() == bundles[1].tracer.spans()
        head = new.peek_event()
        assert head == ref.peek_event()
        if head is None:
            break
        new.step()
        ref.step()
    assert fleet_report_bytes(new.finish()) == fleet_report_bytes(ref.finish())
    assert ledger(new) == ledger(ref)
    assert shard_counters(new) == shard_counters(ref)
    if obs:
        assert bundles[0].tracer.spans() == bundles[1].tracer.spans()
        assert bundles[0].metrics.to_prometheus() == bundles[1].metrics.to_prometheus()


#: Frame instants are k / 100 s; control events land on some of them.
instants = st.integers(min_value=1, max_value=24).map(lambda k: k / 100)


@st.composite
def serve_configs(draw) -> ServeConfig:
    """Small fleets over the reuse threshold, zero stagger, admission
    and bypass latencies."""
    return ServeConfig(
        n_sessions=draw(st.integers(2, 8)),
        duration_s=draw(st.sampled_from([0.15, 0.25])),
        n_workers=draw(st.integers(1, 2)),
        max_batch=draw(st.sampled_from([2, 8])),
        stagger_s=draw(st.sampled_from([0.0, 1e-3])),
        reuse_displacement_deg=draw(st.sampled_from([0.05, 0.3, 1.0])),
        admission=draw(
            st.sampled_from([AdmissionPolicy.DEGRADE, AdmissionPolicy.SHED])
        ),
        queue_budget_deadlines=draw(st.sampled_from([0.3, 0.8, 2.0])),
        saccade_bypass_s=draw(st.sampled_from(BYPASS_S)),
        reuse_bypass_s=draw(st.sampled_from(BYPASS_S)),
        seed=draw(st.integers(0, 63)),
    )


@st.composite
def fleet_configs(draw) -> FleetConfig:
    """Kills, planned migrations and the rebalancer, or a ``--net``
    fleet with partitions (whose moves leave stragglers behind)."""
    serve = draw(serve_configs())
    n_shards = draw(st.integers(1, 4))
    killed = draw(
        st.lists(
            st.integers(0, n_shards - 1), unique=True, max_size=n_shards - 1
        )
    )
    kills = tuple(ShardKill(shard_id=s, at_s=draw(instants)) for s in killed)
    if draw(st.booleans()):
        partitions = draw(
            st.lists(
                st.tuples(instants, st.integers(2, 10), st.integers(0, n_shards - 1)),
                max_size=2,
            )
        )
        net = NetConfig(
            enabled=True,
            seed=draw(st.integers(0, 2**16)),
            partitions=tuple(
                PartitionWindow(
                    start_s=start, stop_s=start + length / 100, shard_ids=(shard,)
                )
                for start, length, shard in partitions
            ),
            ack_timeout_s=draw(st.sampled_from([4e-3, 2e-2])),
        )
        return FleetConfig(serve=serve, n_shards=n_shards, kills=kills, net=net)
    migrations = tuple(
        SessionMigration(at_s=at_s, session_id=sid)
        for at_s, sid in draw(
            st.lists(
                st.tuples(instants, st.integers(0, serve.n_sessions - 1)),
                max_size=3,
            )
        )
    )
    rebalancer = draw(
        st.sampled_from(
            [
                RebalancerConfig(),
                RebalancerConfig(
                    interval_s=0.05, p95_high_s=2e-3, p95_low_s=1e-3,
                    cooldown_s=0.05,
                ),
            ]
        )
    )
    return FleetConfig(
        serve=serve,
        n_shards=n_shards,
        kills=kills,
        migrations=migrations,
        failover=FailoverConfig(guard_s=0.05, breaker_threshold=1),
        rebalancer=rebalancer,
    )


#: A saccade completes 25 ms after it arrives, after the next two frames
#: of its session complete, and misses its 10 ms deadline.
LONG_SACCADE = ServeConfig(
    n_sessions=4, duration_s=0.2, n_workers=1, stagger_s=0.0,
    saccade_bypass_s=0.025, queue_budget_deadlines=0.8, seed=5,
)


@settings(max_examples=40, deadline=None)
@example(config=LONG_SACCADE, obs=False)
@given(config=serve_configs(), obs=st.booleans())
def test_serve_records_equal_the_per_frame_loop(config, obs):
    assert_lockstep(config, obs)


@settings(max_examples=60, deadline=None)
@example(
    config=FleetConfig(
        serve=replace(LONG_SACCADE, n_sessions=6),
        n_shards=3,
        kills=(ShardKill(shard_id=1, at_s=0.1),),
        migrations=(SessionMigration(at_s=0.05, session_id=4),),
    ),
    obs=True,
)
@given(config=fleet_configs(), obs=st.booleans())
def test_fleet_records_equal_the_per_frame_loop(config, obs):
    assert_lockstep(config, obs)


#: Session 2's backlog is 34 reuse frames, 8 saccades and 6 reuse
#: frames; its last saccade completes after the reuse frame after it.
SACCADE_THEN_REUSE = ServeConfig(
    n_sessions=3, duration_s=0.5, saccade_bypass_s=0.025, seed=1
)


@settings(max_examples=60, deadline=None)
# One slice ends with that reuse frame, on a shard of its own.
@example(config=SACCADE_THEN_REUSE, cuts={43}, owners=[0, 1, 2])
# Every row is a slice, each on the next shard: a shard records the
# reuse frame right after another recorded the saccade.
@example(config=SACCADE_THEN_REUSE, cuts=set(range(50)), owners=[0, 1, 2])
@given(
    config=serve_configs(),
    cuts=st.sets(st.integers(0, 50)),
    owners=st.lists(st.integers(0, 2), min_size=1, max_size=12),
)
def test_any_slices_on_any_shards_equal_the_per_frame_loop(config, cuts, owners):
    fleet = build_fleet(config)
    directory = {s.session_id: s for s in fleet}
    stats = [new_ledger(fleet), new_ledger(fleet)]
    bypass = BypassLedger(fleet, config)
    new, ref = (
        [
            cls(i, config, sessions=fleet, stats=ledger, directory=directory,
                bypass=bypass)
            for i in range(3)
        ]
        for cls, ledger in zip((ShardRuntime, ReferenceShard), stats)
    )
    # Each session's backlog cut at ``cuts``, the slices in arrival order.
    slices = []
    for session in fleet:
        arrivals = ref[0]._reference_backlog(session)[1]
        start = 0
        for stop in sorted({cut for cut in cuts if 0 < cut < len(arrivals)}):
            slices.append((arrivals[start], session.session_id, stop - start))
            start = stop
        if start < len(arrivals):
            slices.append((arrivals[start], session.session_id, len(arrivals) - start))
    slices.sort()
    for step, (_, session_id, length) in enumerate(slices):
        shard = owners[step % len(owners)]
        for runtimes in (new, ref):
            _, start, _ = runtimes[shard]._backlog(directory[session_id])
            runtimes[shard]._record_backlog(
                directory[session_id], start, start + length
            )
        assert ledger(new[0]) == ledger(ref[0])
        assert [shard_counters_of(s) for s in new] == [
            shard_counters_of(s) for s in ref
        ]


def shard_counters_of(shard) -> tuple:
    return shard._makespan_s.hex(), shard.completed_frames
