"""The sharded fleet controller.

:class:`FleetRuntime` owns N :class:`~repro.serve.fleet.shard.ShardRuntime`
event loops behind a consistent-hash :class:`~repro.serve.fleet.ring.HashRing`
and runs them as ONE deterministic discrete-event simulation.  Shards
interact only through the fleet's **control heap** (kills, migrations,
rebalancer ticks, transport messages), so between two control events
each shard is a closed system and the fleet runs them **shard-major**:
the next event is the head of the lowest-id shard whose head is before
the next control time, else the control head.  DESIGN.md ("Shard-major
event order") gives the argument, the tie rule and the two sync points:
SLO boundaries and ``--net`` stragglers.

Both runs of the same config therefore apply the identical event
sequence, and the final :class:`~repro.serve.telemetry.FleetReport` is
byte-identical — the property the recover layer's journal replay and the
CI byte-diff jobs rest on.

Conservation is exact and fleet-wide: every generated frame ends in
exactly one of ``completed`` (incl. degraded), ``shed``, ``pending`` or
``lost_shard``; :meth:`FleetRuntime.finish` re-derives the ledger from
the merged per-session stats and raises on any leak.

The runtime speaks the full ``repro.recover`` protocol (``start`` /
``peek_event`` / ``step`` / ``finish`` / ``state_dict`` / ``load_state``
with ``RUNTIME_KIND = "fleet"``), so whole-fleet checkpoint / kill /
restore reproduces the uninterrupted run's report byte-for-byte.
"""

from __future__ import annotations

import heapq
import math
import weakref

import numpy as np

from repro.obs import NULL_OBS, Obs, PID_FLEET, PID_NET
from repro.recover.configio import decode, encode, section
from repro.serve.config import BatchServiceModel
from repro.serve.fleet.config import (
    FleetConfig,
    planned_migrations,
    rebalance_ticks,
)
from repro.serve.fleet.report import FleetLog, FleetSection, NetSection
from repro.serve.fleet.ring import HashRing
from repro.serve.fleet.shard import ShardRuntime
from repro.serve.fleet.transport import (
    FleetTransport,
    K_NET_DETECT,
    K_NET_HEARTBEAT,
    K_NET_SEND,
)
from repro.serve.request import (
    BypassLedger,
    FrameRequest,
    build_fleet,
    fleet_requests,
)
from repro.serve.runtime import evaluate_slo_through
from repro.serve.telemetry import (
    FleetReport,
    SessionStats,
    new_ledger,
    publish_fleet_metrics,
)

# Control-event kinds.  Journal/peek encoding keeps them disjoint from
# shard events: a control event reports kind ``1..3`` while a shard
# event reports ``(shard_id + 1) * _SHARD_KIND_STRIDE + shard_kind``
# (shard kinds are 0..2), so the write-ahead journal can tell every
# event source apart from the (time, kind, seq) triple alone.  The net
# transport's control kinds (``repro.serve.fleet.transport.K_NET_*``)
# are *negative*, keeping them disjoint too.
_K_KILL, _K_MIGRATE, _K_REBALANCE = 1, 2, 3
_SHARD_KIND_STRIDE = 4


class FleetRuntime:
    """N serve shards, one hash ring, one deterministic event order."""

    RUNTIME_KIND = "fleet"

    def __init__(
        self,
        config: FleetConfig,
        service: "BatchServiceModel | None" = None,
        obs: "Obs | None" = None,
    ):
        self.config = config
        self.service = service if service is not None else BatchServiceModel()
        self.obs = obs if obs is not None else NULL_OBS
        #: The whole fleet's sessions, indexed by session id — a pure
        #: function of the serve template, shared by placement and
        #: restore.
        self.sessions = build_fleet(config.serve)
        #: The one session ledger, handed to every shard: stats never
        #: move with a migrated or re-homed session.
        self.stats = new_ledger(self.sessions)
        self._directory = {s.session_id: s for s in self.sessions}
        #: The ledger's bypass columns, shared by every shard.
        self.bypass = BypassLedger(self.sessions, config.serve)
        self.ring = HashRing(vnodes=config.vnodes, seed=config.ring_seed)
        self.shards: dict[int, ShardRuntime] = {}
        #: The shards in id order; ``_order[:_cursor]`` drained the
        #: current window (a cache, never checkpointed).
        self._order: list[ShardRuntime] = []
        self._cursor = 0
        #: Ids of the shards holding a ``--net`` straggler.
        self._stragglers: set[int] = set()
        self._next_shard_id = 0
        #: Control heap entries: ``(time_s, seq, kind, payload)``.
        self._control: list[tuple[float, int, int, "dict | None"]] = []
        self._control_seq = 0
        self._session_shard: dict[int, int] = {}
        self._rebalance_quiet_until = 0.0
        self.events_processed = 0
        self._started = False
        self.log = FleetLog()
        self.slo = None
        #: The lossy router<->shard transport, or None (perfect channel).
        self.transport: "FleetTransport | None" = (
            FleetTransport(config.net, obs=self.obs)
            if config.net.enabled
            else None
        )
        #: The predict-frame stream, built at start: the shards' arrival
        #: source (a direct-mode shard's cursors hold rows of it), and
        #: under ``--net`` SEND payloads and envelope seqs index it.
        self._requests: "list[FrameRequest | None]" = []
        if self.obs.enabled:
            self.obs.tracer.declare_track(
                PID_FLEET, "fleet", thread_name="control"
            )
            if self.transport is not None:
                self.obs.tracer.declare_track(
                    PID_NET, "fleet.net", thread_name="transport"
                )

    def attach_slo(self, engine) -> None:
        """Attach an online SLO engine, evaluated on the fleet's merged
        sim clock (see :meth:`repro.serve.runtime.ServeRuntime.attach_slo`)."""
        if not self.obs.enabled:
            raise ValueError("attach_slo requires an enabled Obs bundle")
        self.slo = engine

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def _build_shard(self, shard_id: int, sessions) -> ShardRuntime:
        shard = ShardRuntime(
            shard_id,
            self.config.serve,
            sessions=sessions,
            service=self.service,
            obs=self.obs.scoped(shard_id),
            failover=self.config.failover,
            stats=self.stats,
            directory=self._directory,
            bypass=self.bypass,
            window_waits=self.config.rebalancer.enabled,
        )
        shard._requests = self._requests
        # Weak, so a dropped fleet is freed without the cycle collector.
        shard.home_of = weakref.WeakMethod(self._home_shard)
        return shard

    def _home_shard(self, session_id: int) -> ShardRuntime:
        """The shard ``session_id`` is routed to."""
        return self.shards[self._session_shard[session_id]]

    def _new_shard(self, sessions, spawned_at_s: "float | None") -> ShardRuntime:
        shard_id = self._next_shard_id
        self._next_shard_id += 1
        shard = self._build_shard(shard_id, sessions)
        shard.spawned_at_s = spawned_at_s
        self.shards[shard_id] = shard
        self._order.append(shard)
        self.ring.add(shard_id)
        return shard

    def _push_control(
        self, time_s: float, kind: int, payload: "dict | None"
    ) -> None:
        heapq.heappush(
            self._control, (time_s, self._control_seq, kind, payload)
        )
        self._control_seq += 1

    def _alive_shards(self) -> "list[ShardRuntime]":
        return [shard for shard in self._order if shard.alive]

    @property
    def started(self) -> bool:
        return self._started

    def start(self) -> None:
        """Place the fleet on the ring, seed every shard's arrivals, and
        enqueue the control schedule (idempotent)."""
        if self._started:
            return
        # One global stream of predict frames: seq numbers are unique
        # fleet-wide (migrated frames carry theirs onto other shards).
        # Bypass frames stay per-session backlogs in both modes.
        stream = fleet_requests(self.sessions, self.config.serve.deadline_s)
        for _ in range(self.config.n_shards):
            self._new_shard([], spawned_at_s=None)
        placement = self.ring.assignment([s.session_id for s in self.sessions])
        home = np.empty(len(self.sessions), dtype=np.intp)  # session -> shard
        for shard_id in sorted(placement):
            home[placement[shard_id]] = shard_id
            for sid in placement[shard_id]:
                self._session_shard[sid] = shard_id
        # Every shard gets its rows of the stream, in arrival order, and
        # their frames are built shard by shard; net-mode shards get
        # none, and the transport sends the frames in stream order.
        owner = home[stream.session_ids] if self.transport is None else None
        if owner is None:
            self._requests = list(stream)
        else:
            built = np.empty(len(stream), dtype=object)
            order = np.argsort(owner, kind="stable")
            built[order] = list(stream[order])
            self._requests = built.tolist()
        for shard_id in sorted(placement):
            shard = self.shards[shard_id]
            shard._requests = self._requests
            shard.fleet = [self.sessions[sid] for sid in placement[shard_id]]
            if shard.obs.enabled:
                shard._declare_tracks()
            shard.start()
            if owner is not None:
                rows = np.flatnonzero(owner == shard_id)
                shard._add_arrivals([(stream.arrivals[rows], rows)])
        if self.transport is not None:
            self._seed_net_schedule()
        for kill in sorted(
            self.config.kills, key=lambda k: (k.at_s, k.shard_id)
        ):
            self._push_control(kill.at_s, _K_KILL, {"shard": kill.shard_id})
        plan = planned_migrations(self.config)
        self.log.migrations_planned = len(plan)
        for migration in plan:
            self._push_control(
                migration.at_s,
                _K_MIGRATE,
                {"session_id": migration.session_id, "to": migration.to_shard},
            )
        for tick in rebalance_ticks(self.config):
            self._push_control(tick, _K_REBALANCE, None)
        self._started = True

    def _seed_net_schedule(self) -> None:
        """Enqueue the net-mode schedule: the first predict frame's
        SEND, heartbeat ticks per initial shard, detector ticks.

        SENDs are chained: predict frame ``k``'s SEND carries control seq
        ``base + k``, where ``base`` is the control seq the block of all
        SENDs is reserved from here, and when it pops it pushes frame
        ``k + 1``'s (:meth:`_chain_send`).  Arrivals are sorted, so the
        heap pops exactly the sequence it would with every SEND pushed
        up front, while holding at most one of them.

        Heartbeats and detector evaluations run for the traffic window
        (``duration_s``) only: the detector is live exactly while frames
        are, so a kill in the final silence of a run goes undiscovered —
        as it would in production until the next frame cared.
        """
        net = self.config.net
        duration = self.config.serve.duration_s
        all_requests = self._requests
        if all_requests:
            heapq.heappush(
                self._control,
                (all_requests[0].arrival_s, self._control_seq, K_NET_SEND, 0),
            )
            self._control_seq += len(all_requests)
        for shard_id in sorted(self.shards):
            self.transport.register_shard(shard_id)
            tick = 0
            while (at_s := (tick + 1) * net.heartbeat_s) <= duration:
                self._push_control(
                    at_s, K_NET_HEARTBEAT, {"shard": shard_id, "i": tick}
                )
                tick += 1
        tick = 0
        while (at_s := (tick + 1) * net.detect_every_s) <= duration:
            self._push_control(at_s, K_NET_DETECT, None)
            tick += 1

    def _chain_send(self, control_seq: int, seq: int) -> None:
        """Predict frame ``seq``'s SEND popped: enqueue the next one's."""
        seq += 1
        requests = self._requests
        if seq < len(requests):
            heapq.heappush(
                self._control,
                (
                    requests[seq].arrival_s,
                    control_seq + 1,
                    K_NET_SEND,
                    seq,
                ),
            )

    # ------------------------------------------------------------------
    # Shard-major event order
    # ------------------------------------------------------------------
    def _next_shard(self) -> "ShardRuntime | None":
        """The shard whose head is the next event; None for the control
        head (or nothing).  A function of the state alone: ``_cursor``
        skips shards that drained the window, and none of them can gain
        an earlier event before the next control event."""
        control = self._control
        bound = control[0][0] if control else math.inf
        order, slo = self._order, self.slo
        if not self._stragglers:
            i, n = self._cursor, len(order)
            while i < n:
                heap = order[i]._heap
                if heap and heap[0][0] < bound and (
                    slo is None or not slo.due(heap[0][0])
                ):
                    self._cursor = i
                    return order[i]
                i += 1
            self._cursor = n
            if slo is None:
                return None
        # A straggler, or every window reached an SLO boundary: the
        # globally earliest event is next.
        best = None
        for shard in order:
            heap = shard._heap
            if heap and heap[0][0] < bound:
                best, bound = shard, heap[0][0]
        return best

    def peek_event(self) -> "tuple[float, int, int] | None":
        """``(time_s, kind, seq)`` of the next event for the journal."""
        shard = self._next_shard()
        if shard is not None:
            time_s, kind, seq, _ = shard._heap[0]
            return (
                time_s, (shard.shard_id + 1) * _SHARD_KIND_STRIDE + kind, seq
            )
        if self._control:
            time_s, seq, kind, _ = self._control[0]
            return (time_s, kind, seq)
        return None

    def _lanes(self) -> "list[tuple[int, ShardRuntime]]":
        """Shards with members, as :func:`evaluate_slo_through` lanes."""
        return [(shard.shard_id, shard) for shard in self._order if shard.fleet]

    def step(self) -> bool:
        """Apply the next event; False once everything drained."""
        shard = self._next_shard()
        if shard is None and not self._control:
            return False
        slo = self.slo
        if slo is not None:
            now = self._control[0][0] if shard is None else shard._heap[0][0]
            if slo.due(now):
                # Every window is drained: run the boundaries due before
                # this event, backlogs first; the windows reopen.
                evaluate_slo_through(
                    slo,
                    self._lanes(),
                    (now, -1) if shard is None
                    else shard._head_key(shard.shard_id),
                )
                self._cursor = 0
        if shard is None:
            self._apply_control()
        else:
            shard.step()
            if self._stragglers and shard.shard_id in self._stragglers:
                self._track_stragglers(shard)
        self.events_processed += 1
        if slo is not None:
            slo.maybe_evaluate(now)
        return True

    def _apply_control(self) -> None:
        """Pop and apply the control head; every window reopens."""
        now, control_seq, kind, payload = heapq.heappop(self._control)
        if kind < 0:
            if kind == K_NET_SEND:
                self._chain_send(control_seq, payload)
            self.transport.handle(self, kind, payload, now)
        elif kind == _K_KILL:
            self._apply_kill(payload["shard"], now)
        elif kind == _K_MIGRATE:
            self._apply_migration(payload, now)
        else:
            self._apply_rebalance(now)
        self._cursor = 0

    def _track_stragglers(self, shard: ShardRuntime) -> None:
        """Note whether ``shard`` holds a ``--net`` straggler; called
        wherever that can change."""
        if shard.holds_stragglers():
            self._stragglers.add(shard.shard_id)
        else:
            self._stragglers.discard(shard.shard_id)

    # ------------------------------------------------------------------
    # Control-plane handlers
    # ------------------------------------------------------------------
    def _apply_kill(self, shard_id: int, now: float) -> None:
        """Chaos shard failure: lose in-flight frames, re-home sessions."""
        shard = self.shards[shard_id]
        if self.transport is not None:
            # Net mode: the shard dies *silently*.  Nothing re-homes and
            # the ring keeps routing to the corpse until the failure
            # detector stops seeing heartbeats and suspects it.
            _, lost = shard.kill(now, silent=True)
            self._stragglers.discard(shard_id)
            if self.obs.enabled:
                self.obs.tracer.instant(
                    "fleet.kill", now, cat="fleet", pid=PID_FLEET,
                    args={"shard": shard_id, "lost_frames": lost},
                )
            return
        self.ring.remove(shard_id)
        payloads, lost = shard.kill(now)
        # Each target numbers its sessions' rows in session-id order, as
        # admitting them one by one would.
        blocks: dict[int, list] = {}
        for sid in sorted(payloads):
            target_id = self.ring.route(sid)
            self.shards[target_id].admit_migrated(
                payloads[sid], now, rehomed=True
            )
            blocks.setdefault(target_id, []).append(payloads[sid].arrivals)
            self._session_shard[sid] = target_id
        for target_id, arrivals in blocks.items():
            self.shards[target_id]._add_arrivals(arrivals)
        rehomed = len(payloads)
        self.log.record_failover(now, shard_id, rehomed, lost)
        if self.obs.enabled:
            self.obs.tracer.instant(
                "fleet.failover", now, cat="fleet", pid=PID_FLEET,
                args={
                    "shard": shard_id,
                    "rehomed_sessions": rehomed,
                    "lost_frames": lost,
                },
            )
            self.obs.metrics.counter("fleet_failovers_total").inc()
            self.obs.metrics.counter("fleet_rehomed_sessions_total").inc(rehomed)

    # ------------------------------------------------------------------
    # Net-transport handlers (called back by FleetTransport)
    # ------------------------------------------------------------------
    def _net_move_session(
        self, session_id: int, target_id: int, now: float
    ) -> None:
        """Move one session between shards without touching frame state.

        Net-mode movement is routing-table surgery only: the source
        records the session's backlog up to the move, and its queued
        frames stay where they physically are (the source completes
        these stragglers; retransmits re-resolve the target).
        """
        source = self._home_shard(session_id)
        source._flush_backlog(self._directory[session_id], now)
        target = self.shards[target_id]
        target.join(source.release(session_id))
        target.guard_rehomed(session_id, now)
        self._session_shard[session_id] = target_id
        self._track_stragglers(source)
        self._track_stragglers(target)

    def _net_suspect(self, shard_id: int, phi: float, now: float) -> None:
        """Failure-detector suspicion: evict the shard from the ring and
        re-home its sessions — whether the shard is dead or merely
        silent (partitioned / gray-slow).  A false suspicion is healed
        by the shard's next heartbeat (:meth:`_net_heal`)."""
        transport = self.transport
        shard = self.shards[shard_id]
        transport.suspected.add(shard_id)
        transport.counters["suspected"] += 1
        dead = shard.killed_at_s is not None
        if dead:
            transport.detect_latencies.append(now - shard.killed_at_s)
        else:
            transport.counters["false_suspects"] += 1
        transport.transitions.append(
            {
                "at_s": now,
                "shard": shard_id,
                "kind": "suspect",
                "phi": round(phi, 3),
                "dead": dead,
            }
        )
        if shard_id in self.ring:
            self.ring.remove(shard_id)
        rehomed = 0
        if len(self.ring) > 0:
            for sid in sorted(s.session_id for s in shard.fleet):
                target_id = self.ring.route(sid)
                self._net_move_session(sid, target_id, now)
                transport.displaced[sid] = shard_id
                rehomed += 1
        if dead:
            # Only real failures enter the fleet log; false suspicions
            # are the transport's own story (NetSection transitions).
            self.log.record_failover(now, shard_id, rehomed, shard.lost_frames)
        if self.obs.enabled:
            self.obs.tracer.instant(
                "net.suspect", now, cat="net", pid=PID_NET,
                args={
                    "shard": shard_id,
                    "phi": round(phi, 3),
                    "dead": int(dead),
                    "rehomed_sessions": rehomed,
                },
            )
            self.obs.metrics.counter("net_suspected_total").inc()
            if not dead:
                self.obs.metrics.counter("net_false_suspects_total").inc()
            if dead:
                self.obs.metrics.counter("fleet_failovers_total").inc()
                self.obs.metrics.counter(
                    "fleet_rehomed_sessions_total"
                ).inc(rehomed)

    def _net_heal(self, shard_id: int, now: float) -> None:
        """A suspected shard's heartbeat arrived: it was a false alarm
        (or a partition healed).  Rejoin it to the ring and bounce back
        the displaced sessions the ring again assigns to it."""
        transport = self.transport
        transport.suspected.discard(shard_id)
        transport.counters["heals"] += 1
        transport.transitions.append(
            {
                "at_s": now,
                "shard": shard_id,
                "kind": "heal",
                "phi": 0.0,
                "dead": False,
            }
        )
        if shard_id not in self.ring:
            self.ring.add(shard_id)
        bounced = 0
        for sid in sorted(transport.displaced):
            home = self.ring.route(sid)
            if home == shard_id:
                if self._session_shard[sid] != shard_id:
                    self._net_move_session(sid, shard_id, now)
                    bounced += 1
                del transport.displaced[sid]
            elif transport.displaced[sid] == shard_id:
                # Its ring home is elsewhere now that the ring changed;
                # it is no longer this shard's refugee.
                del transport.displaced[sid]
        transport.counters["heal_bounce_sessions"] += bounced
        if self.obs.enabled:
            self.obs.tracer.instant(
                "net.heal", now, cat="net", pid=PID_NET,
                args={"shard": shard_id, "bounced_sessions": bounced},
            )
            self.obs.metrics.counter("net_heals_total").inc()
            self.obs.metrics.counter(
                "net_heal_bounce_sessions_total"
            ).inc(bounced)

    def _net_exhaust(self, seq: int, now: float) -> None:
        """Retries exhausted on an unapplied frame: resolve it at the
        router per policy — degrade to the buffered gaze (the client-side
        fallback) or account it lost."""
        transport = self.transport
        sid = self._requests[seq].session_id
        home = self._home_shard(sid)
        stats = home._ledger_row(sid, now)
        if self.config.net.on_exhaust == "degrade":
            # The headset serves it, so its home shard's horizon covers it.
            reuse_s = self.config.serve.reuse_bypass_s
            stats.record_degraded(reuse_s, self.config.serve.deadline_s)
            home._makespan_s = max(home._makespan_s, now + reuse_s)
            transport.counters["exhausted_degraded"] += 1
        else:
            stats.record_lost_net()
            transport.counters["exhausted_lost"] += 1
        if self.obs.enabled:
            self.obs.tracer.instant(
                "net.exhaust", now, cat="net", pid=PID_NET,
                args={
                    "seq": seq,
                    "session": sid,
                    "policy": self.config.net.on_exhaust,
                },
            )
            self.obs.metrics.counter("net_exhausted_total").inc()

    def _apply_migration(self, payload: dict, now: float) -> None:
        """Planned live migration of one session."""
        session_id = int(payload["session_id"])
        source_id = self._session_shard[session_id]
        source = self.shards[source_id]
        target_id = payload.get("to")
        if target_id is None:
            if len(self.ring) <= 1:
                self.log.migrations_skipped += 1
                return
            target_id = self.ring.route(session_id, avoid=source_id)
        target = self.shards.get(target_id)
        if (
            target is None
            or target_id == source_id
            or not target.alive
            or not source.alive
        ):
            self.log.migrations_skipped += 1
            return
        moved_frames = self._migrate(source, target, session_id, now)
        if self.obs.enabled:
            self.obs.tracer.instant(
                "fleet.migrate", now, cat="fleet", pid=PID_FLEET,
                args={
                    "session": session_id,
                    "from": source_id,
                    "to": target_id,
                    "moved_frames": moved_frames,
                },
            )
            self.obs.metrics.counter("fleet_migrations_total").inc()

    def _migrate(
        self,
        source: ShardRuntime,
        target: ShardRuntime,
        session_id: int,
        now: float,
        reason: str = "plan",
    ) -> int:
        """Live-migrate one session; returns the frames it carried."""
        moved = source.extract_session(session_id, now)
        target._add_arrivals([moved.arrivals])
        target.admit_migrated(moved, now)
        self._session_shard[session_id] = target.shard_id
        self.log.record_migration(
            now, session_id, source.shard_id, target.shard_id,
            len(moved.requeue), reason=reason,
        )
        return len(moved.requeue)

    def _apply_rebalance(self, now: float) -> None:
        """Hysteretic autoscaler tick: spawn-and-fill on a hot shard,
        drain-and-retire a spawned shard when the fleet has cooled."""
        rebalancer = self.config.rebalancer
        # Windows reset every tick even when the cooldown suppresses
        # action, so each decision sees only the last interval.
        alive = self._alive_shards()
        waits = {shard.shard_id: shard.take_queue_wait_p95() for shard in alive}
        if now < self._rebalance_quiet_until:
            return
        hot = [sid for sid in waits if waits[sid] > rebalancer.p95_high_s]
        if hot:
            if len(alive) >= rebalancer.max_shards:
                return
            hottest_id = sorted(hot, key=lambda sid: (-waits[sid], sid))[0]
            hottest = self.shards[hottest_id]
            n_move = min(
                rebalancer.sessions_per_move,
                max(len(hottest.fleet) - 1, 0),
            )
            if n_move == 0:
                return
            target = self._new_shard([], spawned_at_s=now)
            target.start()
            victims = sorted(s.session_id for s in hottest.fleet)[:n_move]
            for sid in victims:
                self._migrate(hottest, target, sid, now, reason="rebalance")
            self.log.rebalance_spawns += 1
            self._rebalance_quiet_until = now + rebalancer.cooldown_s
            if self.obs.enabled:
                self.obs.tracer.instant(
                    "fleet.rebalance.spawn", now, cat="fleet", pid=PID_FLEET,
                    args={
                        "shard": target.shard_id,
                        "from": hottest_id,
                        "moved_sessions": len(victims),
                    },
                )
                self.obs.metrics.counter("fleet_rebalance_spawns_total").inc()
            return
        spawned = [s for s in alive if s.spawned_at_s is not None]
        all_cool = all(w < rebalancer.p95_low_s for w in waits.values())
        if (
            all_cool
            and spawned
            and len(alive) > max(rebalancer.min_shards, 1)
        ):
            victim = sorted(
                spawned, key=lambda s: (len(s.fleet), s.shard_id)
            )[0]
            self.ring.remove(victim.shard_id)
            session_ids = sorted(s.session_id for s in victim.fleet)
            for sid in session_ids:
                target = self.shards[self.ring.route(sid)]
                self._migrate(victim, target, sid, now, reason="rebalance")
            victim.retired_at_s = now
            self.log.rebalance_drains += 1
            self._rebalance_quiet_until = now + rebalancer.cooldown_s
            if self.obs.enabled:
                self.obs.tracer.instant(
                    "fleet.rebalance.drain", now, cat="fleet", pid=PID_FLEET,
                    args={
                        "shard": victim.shard_id,
                        "moved_sessions": len(session_ids),
                    },
                )
                self.obs.metrics.counter("fleet_rebalance_drains_total").inc()

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def finish(self) -> FleetReport:
        """Merge shard telemetry into one report; enforce conservation."""
        head = self.peek_event()
        if head is not None:
            raise RuntimeError(f"finish() with events still pending: {head}")
        if self.transport is not None and self.transport.pending:
            raise RuntimeError(
                f"finish() with {len(self.transport.pending)} unresolved "
                f"envelopes: {sorted(self.transport.pending)[:8]}"
            )
        if self.slo is not None:
            evaluate_slo_through(self.slo, self._lanes(), None)
        for _, shard in self._lanes():
            shard.flush_backlogs()
        duration = self.config.serve.duration_s
        for shard in self._order:
            duration = max(duration, shard._makespan_s)
        occupancy: dict[int, int] = {}
        busy_workers = 0.0
        total_workers = 0
        rows = []
        for shard in self._order:
            shard.flush_pending()
            for size, count in shard.pool.batch_occupancy.items():
                occupancy[size] = occupancy.get(size, 0) + count
            utilization = shard.pool.utilization(duration)
            busy_workers += utilization * shard.pool.n_workers
            total_workers += shard.pool.n_workers
            rows.append(
                {
                    "shard_id": shard.shard_id,
                    "status": shard.status,
                    "spawned_at_s": shard.spawned_at_s,
                    "killed_at_s": shard.killed_at_s,
                    "retired_at_s": shard.retired_at_s,
                    "sessions": len(shard.fleet),
                    "completed": shard.completed_frames,
                    "degraded": shard.degraded_frames,
                    "lost_frames": shard.lost_frames,
                    "migrations_in": shard.migrations_in,
                    "migrations_out": shard.migrations_out,
                    "rehomed_in": shard.rehomed_in,
                    "breaker_degraded": shard.breaker_degraded,
                    "utilization": utilization,
                }
            )
        # In session-id order: the ledger is built from the dense fleet.
        merged = list(self.stats.values())
        self._check_conservation(merged)
        total_batches = sum(occupancy.values())
        mean_batch = (
            sum(size * count for size, count in occupancy.items())
            / total_batches
            if total_batches
            else 0.0
        )
        section = FleetSection(
            vnodes=self.config.vnodes,
            shards_started=self.config.n_shards,
            shard_rows=rows,
            log=self.log,
            rehome_breaker_degraded=sum(
                shard.breaker_degraded for shard in self._order
            ),
        )
        net_section = (
            NetSection.from_transport(self.config.net, self.transport)
            if self.transport is not None
            else None
        )
        report = FleetReport(
            sessions=merged,
            duration_s=duration,
            deadline_s=self.config.serve.deadline_s,
            batch_occupancy=occupancy,
            worker_utilization=(
                busy_workers / total_workers if total_workers else 0.0
            ),
            mean_batch_size=mean_batch,
            n_workers=total_workers,
            max_batch=self.config.serve.max_batch,
            predictions=None,
            faults=None,
            shards=section,
            net=net_section,
        )
        if self.obs.enabled:
            publish_fleet_metrics(report, self.obs.metrics)
        if self.slo is not None:
            self.slo.finalize(duration)
        return report

    def _check_conservation(self, merged: "list[SessionStats]") -> None:
        """Fleet-wide frame ledger: every generated frame is accounted
        exactly once, across every shard it may have visited."""
        for stats in merged:
            expected = self.sessions[stats.session_id].n_frames
            if stats.total_frames != expected:
                raise RuntimeError(
                    f"conservation leak: session {stats.session_id} "
                    f"generated {expected} frames but the ledger accounts "
                    f"{stats.total_frames} (completed {stats.completed} + "
                    f"shed {stats.shed} + pending {stats.pending} + "
                    f"lost_input {stats.lost_input} + "
                    f"lost_shard {stats.lost_shard} + "
                    f"lost_net {stats.lost_net})"
                )

    def run(self) -> FleetReport:
        self.start()
        while self.step():
            pass
        return self.finish()

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.recover)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Full JSON-safe snapshot: the control heap in raw order, the
        ring, the session→shard map, and every shard's own snapshot."""
        return {
            "started": self._started,
            "events_processed": self.events_processed,
            "control": [
                [time_s, seq, kind, payload]
                for time_s, seq, kind, payload in self._control
            ],
            "control_seq": self._control_seq,
            "ring": encode(self.ring),
            "next_shard_id": self._next_shard_id,
            "session_shard": encode(self._session_shard, dict[int, int]),
            "rebalance_quiet_until_s": self._rebalance_quiet_until,
            "log": encode(self.log),
            "shards": [
                {
                    "shard_id": sid,
                    "sessions": [
                        s.session_id for s in self.shards[sid].fleet
                    ],
                    "state": self.shards[sid].state_dict(),
                }
                for sid in sorted(self.shards)
            ],
            **(
                {}
                if self.transport is None
                else {"net": {"transport": self.transport.state_dict()}}
            ),
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto a freshly
        constructed runtime of the same config."""
        def read(hint, key: str):
            return decode(hint, section(state, key), key)

        self._started = read(bool, "started")
        self.events_processed = read(int, "events_processed")
        self._control = [
            (float(time_s), int(seq), int(kind), payload)
            for time_s, seq, kind, payload in section(state, "control")
        ]
        self._control_seq = read(int, "control_seq")
        self.ring = read(HashRing, "ring")
        self._next_shard_id = read(int, "next_shard_id")
        self._session_shard = read(dict[int, int], "session_shard")
        self._rebalance_quiet_until = read(float, "rebalance_quiet_until_s")
        self.log = read(FleetLog, "log")
        # Derived state: shard cursors hold rows of the source, and SEND
        # payloads and envelopes index it.
        self._requests = list(
            fleet_requests(self.sessions, self.config.serve.deadline_s)
        )
        self.shards = {}
        for i, entry in enumerate(section(state, "shards")):
            at = f"shards[{i}]"
            shard_id = decode(int, section(entry, "shard_id", at), f"{at}.shard_id")
            members = decode(list[int], section(entry, "sessions", at), f"{at}.sessions")
            shard = self._build_shard(shard_id, [self.sessions[m] for m in members])
            shard.load_state(section(entry, "state", at), f"{at}.state")
            self.shards[shard_id] = shard
        self._order = list(self.shards.values())  # in id order
        self._cursor = 0
        self._stragglers = {
            shard.shard_id for shard in self._order if shard.holds_stragglers()
        }
        if self.transport is not None:
            net = section(state, "net")
            self.transport.load_state(section(net, "transport", "net"), "net.transport")

    @classmethod
    def restore(
        cls,
        directory,
        service: "BatchServiceModel | None" = None,
        obs: "Obs | None" = None,
    ) -> "FleetRuntime":
        """Warm-restart the fleet checkpointed in ``directory``; see
        :func:`repro.recover.manager.restore_runtime`."""
        # Cycle: recover.manager -> repro.faults -> repro.serve -> this module.
        from repro.recover.manager import restore_as

        return restore_as(cls, directory, service=service, obs=obs)


def run_fleet(
    config: FleetConfig,
    service: "BatchServiceModel | None" = None,
    obs: "Obs | None" = None,
) -> FleetReport:
    """Run one sharded fleet simulation and return its report."""
    return FleetRuntime(config, service=service, obs=obs).run()
