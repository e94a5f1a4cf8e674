"""One shard of the fleet: a ServeRuntime that sessions can enter and leave.

:class:`ShardRuntime` keeps the base event loop byte-for-byte (arrivals,
window expiries, completions pop off the same heap with the same
tie-breaks) and adds the three fleet-lifecycle operations the controller
needs:

* :meth:`extract_session` — live migration *out*: cut one session's
  remaining rows out of its arrival cursor, its queued frames out of the
  batcher, and its in-flight frames out of dispatched batches, packaged
  as a :class:`MigrationPayload`.
* :meth:`admit_migrated` — live migration *in*: add the rows as a cursor
  of this shard and requeue the carried frames on its batcher.
* :meth:`kill` — chaos failover: frames physically on the shard (queued
  or in flight) die with it and are recorded ``lost_shard`` on their
  sessions; future arrivals re-home with their sessions, bounding frame
  loss to exactly the in-flight set at kill time.

A session leaving a shard first records its bypass backlog up to the
move, credited to the shard it leaves; the frames after it are recorded
wherever the session goes next.

Session stats never move: every shard records into the one ledger its
fleet owns and hands it, so a frame completes into the same
:class:`~repro.serve.telemetry.SessionStats` whichever shard serves it.
Only the shard that homes a session writes its row, so the fleet can
drain shards one after another between control events; the exception,
a ``--net`` straggler, is :meth:`ShardRuntime.holds_stragglers`.

Sessions re-homed by a failover are *guarded* for a configurable window:
their predict frames pass through a re-admission
:class:`~repro.serve.breaker.CircuitBreaker` so a thundering herd onto
a surviving shard degrades to gaze reuse instead of blowing through the
queue budget.
"""

from __future__ import annotations

import heapq
import weakref
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.obs import Obs, PID_WORKERS, session_pid
from repro.recover.configio import decode_into, encode, field_path, section
from repro.serve.breaker import CircuitBreaker
from repro.serve.config import BatchServiceModel, ServeConfig
from repro.serve.fleet.config import FailoverConfig
from repro.serve.request import BypassLedger, ClientSession, FrameRequest
from repro.serve.runtime import ServeRuntime, _COMPLETE
from repro.serve.telemetry import SessionStats, new_ledger
from repro.system.metrics import percentile_summary


@dataclass
class MigrationPayload:
    """Everything that moves with a session between shards (its stats
    stay put: the fleet owns the one session ledger)."""

    session: ClientSession
    #: The session's seeded arrivals not yet applied, as ``(times,
    #: rows)`` of the fleet's arrival source, in the order they pop.
    #: Bypass frames are not among them: they stay in its backlog.
    arrivals: "tuple[Sequence[float], Sequence[int]]" = ((), ())
    #: Frames pulled out of the source queue / in-flight batches, to be
    #: requeued on the destination; sorted by (arrival_s, seq).
    requeue: list[FrameRequest] = field(default_factory=list)


def _frame_order(request: FrameRequest) -> tuple[float, int]:
    return (request.arrival_s, request.seq)


@dataclass(init=False, eq=False, repr=False)
class ShardRuntime(ServeRuntime):
    """A ServeRuntime whose session set is dynamic (fleet membership).

    Its dataclass fields are the fleet-lifecycle state it checkpoints
    under ``"shard"``, beside its re-home breaker and the base
    runtime's snapshot.
    """

    #: Queue waits of frames dispatched since the last rebalancer tick
    #: (the rebalancer's P95 window); stays empty unless ``window_waits``.
    wait_samples: list[float]
    #: session id -> absolute sim time until which re-admission of that
    #: (re-homed) session's predict frames is breaker-guarded.
    rehome_guard_until: dict[int, float]
    spawned_at_s: "float | None"
    killed_at_s: "float | None"
    retired_at_s: "float | None"
    # Per-shard frame counters, attributing work to the shard that did
    # it (the session ledger is the fleet's).
    completed_frames: int
    degraded_frames: int
    lost_frames: int
    migrations_in: int
    migrations_out: int
    rehomed_in: int
    breaker_degraded: int

    def __init__(
        self,
        shard_id: int,
        template: ServeConfig,
        sessions: "list[ClientSession] | None" = None,
        service: "BatchServiceModel | None" = None,
        obs: "Obs | None" = None,
        failover: "FailoverConfig | None" = None,
        stats: "dict[int, SessionStats] | None" = None,
        directory: "dict[int, ClientSession] | None" = None,
        bypass: "BypassLedger | None" = None,
        window_waits: bool = False,
    ):
        # ``template`` sizes the per-shard pool/batcher; its n_sessions
        # refers to the whole fleet, of which the shard holds a subset
        # (none, when freshly spawned).  ``stats`` is the fleet's ledger,
        # ``directory`` its sessions by id and ``bypass`` its ledger's
        # bypass columns.  ``window_waits`` is set when the fleet runs a
        # rebalancer, the only reader of the queue-wait window.
        if shard_id < 0:
            raise ValueError(f"shard_id must be non-negative, got {shard_id}")
        self.shard_id = shard_id
        fleet = list(sessions) if sessions is not None else []
        super().__init__(
            template,
            service=service,
            fleet=fleet,
            obs=obs,
            stats=stats if stats is not None else new_ledger(fleet),
            bypass=bypass,
        )
        if directory is not None:
            self.directory = directory
        #: Weak ref to the fleet's home-shard lookup (None when standalone).
        self.home_of: "weakref.WeakMethod | None" = None
        # --- fleet lifecycle state -----------------------------------
        self.failover = failover if failover is not None else FailoverConfig()
        self.rehome_breaker = CircuitBreaker(
            failure_threshold=self.failover.breaker_threshold,
            cooldown_s=self.failover.breaker_cooldown_s,
        )
        self.rehome_guard_until = {}
        self.wait_samples = []
        self.window_waits = window_waits
        self.spawned_at_s = None
        self.killed_at_s = None
        self.retired_at_s = None
        self.completed_frames = 0
        self.degraded_frames = 0
        self.lost_frames = 0
        self.migrations_in = 0
        self.migrations_out = 0
        self.rehomed_in = 0
        self.breaker_degraded = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    @property
    def fleet(self) -> "list[ClientSession]":
        """Member sessions in membership order: the sessions the shard
        was given, then each admitted one appended.  Kept as a dict keyed
        by session id, so joining, leaving and the duplicate check are
        O(1); this list is a copy."""
        return list(self._members.values())

    @fleet.setter
    def fleet(self, sessions: "Iterable[ClientSession]") -> None:
        self._members = {s.session_id: s for s in sessions}

    def join(self, session: ClientSession) -> None:
        """Append one session to the membership."""
        session_id = session.session_id
        if session_id in self._members:
            raise ValueError(
                f"session {session_id} already on shard {self.shard_id}"
            )
        self._members[session_id] = session

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    @property
    def status(self) -> str:
        if self.killed_at_s is not None:
            return "killed"
        if self.retired_at_s is not None:
            return "retired"
        return "alive"

    @property
    def alive(self) -> bool:
        return self.killed_at_s is None and self.retired_at_s is None

    # ------------------------------------------------------------------
    # Base-class hooks
    # ------------------------------------------------------------------
    def _count_completed(self, n_frames: int) -> None:
        self.completed_frames += n_frames

    def _ledger_row(self, session_id: int, now: float) -> SessionStats:
        # A ``--net`` straggler: its session's home shard owns the backlog.
        if session_id not in self._members and self.home_of is not None:
            return self.home_of()(session_id)._ledger_row(session_id, now)
        return super()._ledger_row(session_id, now)

    def _arrival_order(self) -> "Iterable[ClientSession]":
        # Sessions seeded at start are in id order; each admitted one
        # is appended, and its arrivals are pushed after every earlier
        # member's.
        return self._members.values()

    def _degrade_now(
        self, request: FrameRequest, now: float, cause: str = "admission"
    ) -> None:
        self.degraded_frames += 1
        super()._degrade_now(request, now, cause)

    def _note_dispatch(self, batch: "list[FrameRequest]", now: float) -> None:
        if self.window_waits:
            self.wait_samples.extend(now - request.arrival_s for request in batch)

    def _admit(self, request: FrameRequest, now: float) -> bool:
        guard_until = self.rehome_guard_until.get(request.session_id)
        if guard_until is not None:
            if now > guard_until:
                del self.rehome_guard_until[request.session_id]
            else:
                breaker = self.rehome_breaker
                if not breaker.allow(now):
                    self.breaker_degraded += 1
                    self._degrade_now(request, now, cause="failover")
                    return False
                breaker.note_dispatch(now)
                admitted = super()._admit(request, now)
                if admitted:
                    breaker.record_success(now)
                else:
                    breaker.record_failure(now)
                return admitted
        return super()._admit(request, now)

    # ------------------------------------------------------------------
    # Rebalancer window
    # ------------------------------------------------------------------
    def take_queue_wait_p95(self) -> float:
        """P95 queue wait over the window since the last call; resets."""
        if not self.wait_samples:
            return 0.0
        p95 = float(percentile_summary(self.wait_samples, (95,))["p95"])
        self.wait_samples = []
        return p95

    # ------------------------------------------------------------------
    # Cursor and heap surgery (shared by migration and failover)
    # ------------------------------------------------------------------
    def _cut_arrivals(self, session_id: int) -> "tuple[list[float], list[int]]":
        """Cut ``session_id``'s entries out of the cursors; their ``(times,
        rows)``, in the order they pop (a session's rows are all in the
        one cursor it was seeded or migrated in with)."""
        requests = self._requests
        for cursor in self._cursors():
            mine = [requests[row].session_id == session_id for row in cursor.rows]
            if any(mine):
                cut = cursor.cut(mine)
                heap = [e for e in self._heap if e[3] is not cursor]
                if cursor:
                    heap.append(cursor.head_entry())
                heapq.heapify(heap)
                self._heap = heap
                return cut
        return [], []

    def _merge_arrivals(
        self, arrivals: "tuple[Sequence[float], Sequence[int]]"
    ) -> None:
        """Add a migrated session's ``(times, rows)`` as a cursor with the
        next event seqs, as one push each would number them."""
        self._add_cursor(*arrivals)

    def _take_arrivals(self) -> "dict[int, tuple[list[float], list[int]]]":
        """Every cursor's entries by session, in the order they pop (the
        kill then clears the heap)."""
        by_session: dict[int, tuple[list[float], list[int]]] = {}
        for cursor in self._cursors():
            for time_s, row in zip(cursor.times[::-1], cursor.rows[::-1]):
                sid = self._requests[row].session_id
                times_of, rows_of = by_session.setdefault(sid, ([], []))
                times_of.append(time_s)
                rows_of.append(row)
        return by_session

    def _extract_inflight(self, session_id: int) -> list[FrameRequest]:
        """Pull one session's frames out of dispatched batches.

        The COMPLETE event still fires (the worker stays busy for the
        full batch's service time — the work was already started), but
        the migrated frames' latencies are recorded on the destination
        shard after requeueing instead of here.
        """
        pulled: list[FrameRequest] = []
        for _, kind, _, payload in self._heap:
            if kind == _COMPLETE:
                _, batch = payload
                mine = [r for r in batch if r.session_id == session_id]
                if mine:
                    batch[:] = [r for r in batch if r.session_id != session_id]
                    pulled.extend(mine)
        pulled.sort(key=_frame_order)
        return pulled

    def holds_stragglers(self) -> bool:
        """Whether a queued or in-flight frame's session has left this
        shard (a ``--net`` straggler, recorded in its home's row)."""
        frames = list(self.batcher._queue)
        for _, kind, _, payload in self._heap:
            if kind == _COMPLETE:
                frames.extend(payload[1])
        return any(r.session_id not in self._members for r in frames)

    # ------------------------------------------------------------------
    # Fleet lifecycle
    # ------------------------------------------------------------------
    def release(self, session_id: int) -> ClientSession:
        """Take one session off this shard's membership (and its guard);
        its queued and in-flight frames stay where they are."""
        session = self._members.pop(session_id, None)
        if session is None:
            raise KeyError(f"session {session_id} not on shard {self.shard_id}")
        self.rehome_guard_until.pop(session_id, None)
        return session

    def guard_rehomed(self, session_id: int, now: float) -> None:
        """A failover re-homed ``session_id`` here: count it, and guard
        its predict frames with the re-home breaker for ``guard_s``."""
        self.rehomed_in += 1
        if self.failover.guard_s > 0:
            self.rehome_guard_until[session_id] = now + self.failover.guard_s

    def extract_session(self, session_id: int, now: float) -> MigrationPayload:
        """Remove one session and everything it owns (live migration)."""
        session = self.release(session_id)
        self._flush_backlog(session, now)
        arrivals = self._cut_arrivals(session_id)
        requeue = self.batcher.extract_session(session_id)
        requeue.extend(self._extract_inflight(session_id))
        requeue.sort(key=_frame_order)
        self.migrations_out += 1
        if self.obs.enabled:
            self.obs.tracer.instant(
                "migrate.out", now, cat="fleet",
                pid=session_pid(session_id),
                args={"moved_frames": len(requeue)},
            )
        return MigrationPayload(session, arrivals, requeue)

    def admit_migrated(
        self, payload: MigrationPayload, now: float, rehomed: bool = False
    ) -> None:
        """Install a migrated session: its arrivals added as a cursor
        with the next event seqs (as one push each would number them),
        carried frames requeued ahead of the window rule (their
        arrival times are old)."""
        session_id = payload.session.session_id
        self.join(payload.session)
        if self.obs.enabled:
            self.obs.tracer.declare_track(
                session_pid(session_id),
                f"session-{session_id}",
                thread_name="frames",
            )
            self.obs.tracer.instant(
                "rehome.in" if rehomed else "migrate.in", now, cat="fleet",
                pid=session_pid(session_id),
                args={"moved_frames": len(payload.requeue)},
            )
        self._merge_arrivals(payload.arrivals)
        if rehomed:
            self.guard_rehomed(session_id, now)
        else:
            self.migrations_in += 1
        if payload.requeue:
            self.batcher.requeue(payload.requeue)
            self._dispatch_and_arm(now)

    def kill(
        self, now: float, silent: bool = False
    ) -> "tuple[dict[int, MigrationPayload], int]":
        """Fail the shard: queued + in-flight frames are lost with it,
        sessions (with their future arrivals) are packaged for re-homing.

        Returns ``(payloads keyed by session id, frames lost)``.  The
        batcher's conservation ledger stays closed — lost frames are
        recorded ``lost_shard`` on their sessions, never silently
        dropped.  A ``silent`` kill (net-transport mode) tells nobody:
        sessions stay on the fleet list and nothing is packaged, since
        under the lossy transport the shard is known dead only once the
        failure detector stops seeing heartbeats and *suspects* it.
        """
        if self.killed_at_s is not None:
            raise RuntimeError(f"shard {self.shard_id} already killed")
        self.flush_backlogs(now)
        lost = 0
        for request in self.batcher.drain():
            self.stats[request.session_id].record_lost_shard()
            lost += 1
        arrivals = self._take_arrivals()
        for _, kind, _, payload in self._heap:
            if kind == _COMPLETE:
                for request in payload[1]:
                    self.stats[request.session_id].record_lost_shard()
                    lost += 1
        self._heap = []
        self.batcher.check_accounting()
        self.lost_frames = lost
        self.rehome_guard_until = {}
        self.killed_at_s = now
        payloads: dict[int, MigrationPayload] = {}
        if silent:
            args = {"lost_frames": lost, "silent": 1}
        else:
            for session in sorted(self.fleet, key=lambda s: s.session_id):
                sid = session.session_id
                payloads[sid] = MigrationPayload(
                    session, arrivals.get(sid, ((), ()))
                )
            self.fleet = []
            args = {"lost_frames": lost, "sessions": len(payloads)}
        if self.obs.enabled:
            self.obs.tracer.instant(
                "shard.kill", now, cat="fleet", pid=PID_WORKERS, args=args
            )
        return payloads, lost

    def start(
        self, rows: "list[int] | None" = None, times: "list[float]" = ()
    ) -> None:
        """Seed the given rows of the arrival source, popping at
        ``times`` (idempotent).

        The fleet controller cuts ALL predict frames once from the dense
        session list — global ``seq`` numbers must be unique fleet-wide
        because migrated frames carry theirs onto other shards — and
        hands each shard its rows, in global arrival order.  A freshly
        spawned shard, or a ``--net`` one, starts with none.
        """
        if self._started:
            return
        if rows is not None:
            self._seed(rows, times)
        self._started = True

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.recover)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        shard = {**encode(self), "rehome_breaker": self.rehome_breaker.state_dict()}
        return {**super().state_dict(), "shard": shard}

    def load_state(self, state: dict, path: str = "") -> None:
        super().load_state(state, path)
        at = field_path(path, "shard")
        shard = dict(section(state, "shard", path))
        breaker = section(shard, "rehome_breaker", at)
        del shard["rehome_breaker"]
        decode_into(self, shard, at)
        self.rehome_breaker.load_state(breaker, field_path(at, "rehome_breaker"))
