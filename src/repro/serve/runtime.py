"""Deterministic discrete-event serving loop.

One :class:`ServeRuntime` multiplexes a fleet of HMD client sessions onto a
:class:`~repro.serve.workers.WorkerPool`.  Events come in three kinds,
processed in deterministic order (time, then kind, then sequence):

* ``COMPLETE`` — a worker finished a batch; record per-frame latencies
  (or, if the pool says the batch failed, hand it to
  :meth:`ServeRuntime._on_failed_batch`), free the worker, and greedily
  re-dispatch.
* ``WINDOW`` — a batch-formation window expired, or a wake-up the pool
  asked for came due; dispatch a partial batch if a worker may take it.
* ``ARRIVAL`` — a predict frame entered the system; it passes admission
  control and joins the cross-session batcher.

The predict frames seeded at ``start`` are read from the runtime's one
:class:`ArrivalCursor` over the run's predict frames; the event heap
holds only work in flight (COMPLETEs, WINDOWs and a chaos run's retried
ARRIVALs) and one entry standing for the cursor's head.  Rows enter the
cursor through :meth:`ServeRuntime._add_arrivals` alone (seeding, and in
a fleet shard migration and failover in) and a fleet shard cuts them out
through ``_cut_arrivals`` alone.

Saccade and reuse frames bypass the pool entirely (Algorithm 1 serves
them on-device), so they are not events in any runtime: each session
keeps them as a backlog that is recorded in bulk wherever its order
becomes observable — before any other record of that session, before
the session changes shard, before an SLO evaluation, and at the end of
the run.  A plain session's backlog is its rows of the ledger's
:class:`~repro.serve.request.BypassColumns`, and a run of it is recorded
as one slice; a completed batch is recorded in one call.  Only predict
frames cross a ``--net`` fleet's transport.  A chaos session keeps its
own backlog (:attr:`~repro.serve.request.ClientSession.backlog`, with its
drops and CRC failures), recorded entry by entry: its per-frame state
(the SDC guard and the watchdog) lives in :attr:`ServeRuntime.chaos`,
stepped in each session's arrival order.

Admission control estimates the wait a new predict frame would see —
``ceil((pending + 1) / max_batch) * service(max_batch) / available
workers`` —
and, when it exceeds the queue budget, degrades the frame to gaze reuse
or sheds it per :class:`~repro.serve.config.AdmissionPolicy`.

Everything is seeded and tie-broken explicitly: two runs of the same
config produce byte-identical reports.

The loop is exposed as ``start()`` / ``step()`` / ``finish()`` so the
durability layer (``repro.recover``) can checkpoint between events and
journal each event before applying it; :meth:`ServeRuntime.state_dict`
captures the complete serving state (cursor, heap, batcher, pool,
per-session stats, the chaos model) for :mod:`repro.recover` to
warm-restart from with a bit-identical final report.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from heapq import heapify, heappop, heappush
from itertools import compress
from typing import Callable, Sequence

import numpy as np

from repro.obs import NULL_OBS, Obs, PID_BATCHER, PID_WORKERS, session_pid
from repro.recover.configio import decode, field_path, section
from repro.serve.batcher import DynamicBatcher
from repro.serve.config import AdmissionPolicy, BatchServiceModel, ServeConfig
from repro.serve.request import (
    BypassLedger,
    ClientSession,
    FrameRequest,
    build_fleet,
    fleet_requests,
)
from repro.serve.telemetry import (
    FleetReport,
    ServeInstruments,
    SessionStats,
    new_ledger,
    predictions_state,
    publish_fleet_metrics,
)
from repro.serve.workers import WorkerPool, WorkerState
from repro.system.session import PATHS

# Event-kind priorities: at equal timestamps, completions free workers
# before window expiries ask for them, and both precede new arrivals.
_COMPLETE, _WINDOW, _ARRIVAL = 0, 1, 2

#: Optional hook running real batched inference for each dispatched batch.
#: Receives the batch's requests; must return an ``(len(batch), 2)`` array
#: of predicted gaze coordinates, stored on the report keyed by
#: ``(session_id, frame_index)``.
InferenceFn = Callable[[list[FrameRequest]], np.ndarray]


class ArrivalCursor:
    """Seeded arrivals a runtime has not applied yet, in the order they
    pop.

    Entry ``k`` is row ``rows[k]`` of the runtime's arrival source,
    popping at ``times[k]`` with event seq ``seqs[k]``, sorted by ``(time,
    seq)``.  The columns are stored head last, so a pop frees its entry.
    A runtime owns one cursor for its whole life; while the cursor has
    entries, the runtime's heap holds its :meth:`head_entry` among the
    work in flight, so the cursor pops its entries as one heap of
    ``(time, _ARRIVAL, seq)`` entries would.
    """

    __slots__ = ("times", "rows", "seqs")

    def __init__(self):
        self.times: "list[float]" = []
        self.rows: "list[int]" = []
        self.seqs: "list[int]" = []

    def __len__(self) -> int:
        return len(self.rows)

    def head_entry(self) -> "tuple[float, int, int, ArrivalCursor]":
        """The heap entry of the head: an ARRIVAL at its time and seq,
        with the cursor as its payload."""
        return (self.times[-1], _ARRIVAL, self.seqs[-1], self)

    def merge(
        self, times: "Sequence[float]", rows: "Sequence[int]",
        seqs: "Sequence[int]",
    ) -> None:
        """Merge entries into the cursor, all of them sorted by ``(time,
        seq)`` in one pass (the keys are unique, so the order is total)."""
        times, rows, seqs = (
            np.concatenate((np.asarray(old, dtype), np.asarray(new, dtype)))
            for old, new, dtype in (
                (self.times, times, np.float64),
                (self.rows, rows, np.int64),
                (self.seqs, seqs, np.int64),
            )
        )
        order = np.lexsort((seqs, times))[::-1]  # head last
        self.times = times[order].tolist()
        self.rows = rows[order].tolist()
        self.seqs = seqs[order].tolist()

    def cut(self, mine: "list[bool]") -> "tuple[list[float], list[int]]":
        """Remove the entries ``mine`` flags (head last, as stored);
        their ``(times, rows)``, head first."""
        keep = [not flag for flag in mine]
        cut = (
            list(compress(self.times, mine))[::-1],
            list(compress(self.rows, mine))[::-1],
        )
        self.times, self.rows, self.seqs = (
            list(compress(column, keep))
            for column in (self.times, self.rows, self.seqs)
        )
        return cut


class ServeRuntime:
    """One serving simulation: fleet, batcher, pool, and the event heap."""

    def __init__(
        self,
        config: ServeConfig,
        service: "BatchServiceModel | None" = None,
        inference: "InferenceFn | None" = None,
        fleet: "list[ClientSession] | None" = None,
        obs: "Obs | None" = None,
        stats: "dict[int, SessionStats] | None" = None,
        pool: "WorkerPool | None" = None,
        chaos: "ChaosModel | None" = None,
        bypass: "BypassLedger | None" = None,
    ):
        self.config = config
        self.service = service if service is not None else BatchServiceModel()
        self.inference = inference
        self.fleet = fleet if fleet is not None else build_fleet(config)
        if stats is None:
            # A runtime that owns its ledger serves the whole fleet; a
            # fleet shard is handed its fleet's ledger instead.
            if len(self.fleet) != config.n_sessions:
                raise ValueError(
                    f"fleet has {len(self.fleet)} sessions, "
                    f"config says {config.n_sessions}"
                )
            stats = new_ledger(self.fleet)
        #: The session ledger, keyed by session id.
        self.stats = stats
        #: The ledger's bypass columns (a fleet shard is handed its
        #: fleet's, with its ledger).
        self.bypass = (
            bypass if bypass is not None else BypassLedger(self.fleet, config)
        )
        #: Session id -> session, for every session this runtime may
        #: record (a fleet shard is handed its fleet's directory).
        self.directory = {s.session_id: s for s in self.fleet}
        #: The worker pool: a plain one unless the caller hands one in
        #: (a chaos run hands in a faulty pool).
        self.pool = (
            pool if pool is not None else WorkerPool(config.n_workers, self.service)
        )
        if self.pool.n_workers != config.n_workers:
            raise ValueError(
                f"pool has {self.pool.n_workers} workers, "
                f"config says {config.n_workers}"
            )
        self.batcher = DynamicBatcher(config.max_batch, config.batch_window_s)
        #: A chaos run's :class:`~repro.faults.runtime.ChaosModel`, or None.
        self.chaos = chaos
        # Fixed for the runtime's life; read on every predict arrival.
        self._deadline_s = config.deadline_s
        self._queue_budget_s = config.queue_budget_s
        self._full_batch_s = self.service.service_s(config.max_batch)
        self.predictions: "dict[tuple[int, int], np.ndarray] | None" = (
            {} if inference is not None else None
        )
        #: The arrival source: the predict frames the run seeds, as rows
        #: a checkpoint names by index (built from the config at start;
        #: a fleet shard is handed its fleet's).  Once a row's ARRIVAL
        #: popped, its entry is None.
        self._requests: "list[FrameRequest | None] | None" = None
        #: The seeded arrivals not yet applied: rows of the source.
        self._arrivals = ArrivalCursor()
        #: ``(time_s, kind, seq, payload)`` entries: the work in flight
        #: and, while it has rows, the cursor's head entry.
        self._heap: list[tuple[float, int, int, object]] = []
        self._event_seq = 0
        self._makespan_s = 0.0
        #: Events applied so far — the index the checkpoint/journal layer
        #: (``repro.recover``) keys its snapshots and replay cursor on.
        self.events_processed = 0
        self._started = False
        # Observability is read-only over the simulation: spans carry
        # sim-clock timestamps the event loop already computed, so a
        # traced run is bit-identical to an untraced one.
        self.obs = obs if obs is not None else NULL_OBS
        self._instruments: "ServeInstruments | None" = None
        if self.obs.enabled:
            self._instruments = ServeInstruments(self.obs.metrics)
            self._declare_tracks()
        #: Optional online SLO engine (see :meth:`attach_slo`): ticked on
        #: the sim clock after every event, finalized with the report.
        self.slo = None

    def attach_slo(self, engine) -> None:
        """Attach a :class:`repro.obs.slo.SloEngine` to this run.

        The engine reads the live instruments, so observability must be
        enabled; it is evaluated at fixed sim-clock boundaries, keeping
        the run (and its alert stream) deterministic.
        """
        if not self.obs.enabled:
            raise ValueError("attach_slo requires an enabled Obs bundle")
        self.slo = engine
        if self.chaos is not None:
            engine.on_page = self.chaos.on_page

    # ------------------------------------------------------------------
    # Tracing (no-ops unless ``obs`` is enabled)
    # ------------------------------------------------------------------
    def _declare_tracks(self) -> None:
        tracer = self.obs.tracer
        tracer.declare_track(PID_WORKERS, "serve.workers")
        for worker_id in range(self.config.n_workers):
            tracer.declare_track(
                PID_WORKERS, "serve.workers", tid=worker_id,
                thread_name=f"worker-{worker_id}",
            )
        tracer.declare_track(PID_BATCHER, "serve.batcher", thread_name="assemble")
        for session in self.fleet:
            tracer.declare_track(
                session_pid(session.session_id),
                f"session-{session.session_id}",
                thread_name="frames",
            )

    def _trace_frame(
        self, session_id: int, frame: int, arrival_s: float, path: str,
        latency_s: float,
    ) -> None:
        """Session-track frame span (arrival -> completion) + counters."""
        self.obs.tracer.record_span(
            "frame",
            arrival_s,
            latency_s,
            cat="serve",
            pid=session_pid(session_id),
            args={"path": path, "frame": frame},
        )
        assert self._instruments is not None
        self._instruments.frame_counter(path).inc()
        self._instruments.latency.observe(latency_s)
        if latency_s > self._deadline_s:
            self._instruments.misses.inc()

    def _trace_batch(
        self,
        worker_id: int,
        batch: list[FrameRequest],
        now: float,
        done_s: float,
        ok: bool = True,
    ) -> None:
        """Batcher/worker/session spans of one dispatched batch."""
        tracer = self.obs.tracer
        instruments = self._instruments
        assert instruments is not None
        oldest = batch[0].arrival_s
        tracer.record_span(
            "batch.assemble", oldest, now - oldest, cat="serve",
            pid=PID_BATCHER, args={"batch_size": len(batch)},
        )
        tracer.record_span(
            "batch.service", now, done_s - now, cat="serve",
            pid=PID_WORKERS, tid=worker_id,
            args={"batch_size": len(batch), "ok": ok},
        )
        for request in batch:
            pid = session_pid(request.session_id)
            wait = now - request.arrival_s
            tracer.record_span(
                "queue.wait", request.arrival_s, wait, cat="serve",
                pid=pid, args={"frame": request.frame_index},
            )
            tracer.record_span(
                "service", now, done_s - now, cat="serve",
                pid=pid, args={"frame": request.frame_index, "worker": worker_id},
            )
            instruments.queue_wait.observe(wait)
        instruments.batches.inc()
        instruments.batch_size.observe(len(batch))

    def _trace_degraded(self, request: FrameRequest, now: float, cause: str) -> None:
        done = now + self.config.reuse_bypass_s
        self.obs.tracer.instant(
            f"degrade.{cause}", now, cat="serve",
            pid=session_pid(request.session_id),
            args={"frame": request.frame_index},
        )
        assert self._instruments is not None
        self._instruments.degraded.inc()
        self._trace_frame(
            request.session_id, request.frame_index, request.arrival_s,
            "degraded", done - request.arrival_s,
        )

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _push(self, time_s: float, kind: int, payload: object) -> None:
        heappush(self._heap, (time_s, kind, self._event_seq, payload))
        self._event_seq += 1

    def _arrival_source(self) -> "tuple[list[FrameRequest], list[float]]":
        """The predict frames of this runtime's sessions and the times
        their ARRIVALs pop, in that order: the stream, or a chaos run's
        delivered frames (a retransmitted one pops after its capture)."""
        stream = fleet_requests(self.fleet, self._deadline_s)
        if self.chaos is None:
            return list(stream), stream.arrivals.tolist()
        delivered = self.chaos.delivered(list(stream))
        return [r for _, r in delivered], [time_s for time_s, _ in delivered]

    def _add_arrivals(
        self, blocks: "Sequence[tuple[Sequence[float], Sequence[int]]]"
    ) -> None:
        """Add blocks of ``(times, rows)`` of the arrival source to the
        cursor (at least one block), each row with the next event seq in
        block order: one :meth:`_push` per row would pop them identically."""
        times = np.concatenate([np.asarray(t, dtype=np.float64) for t, _ in blocks])
        rows = np.concatenate([np.asarray(r, dtype=np.int64) for _, r in blocks])
        if len(rows):
            seq0 = self._event_seq
            self._event_seq = seq0 + len(rows)
            self._arrivals.merge(times, rows, np.arange(seq0, self._event_seq))
            self._reseat_arrivals()

    def _reseat_arrivals(self) -> None:
        """Put the cursor's head entry on the heap in place of its old ones."""
        cursor = self._arrivals
        heap = [entry for entry in self._heap if entry[3] is not cursor]
        heapify(heap)
        if cursor:
            heappush(heap, cursor.head_entry())
        self._heap = heap

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _record_bypass(self, session_id: int, start: int, stop: int) -> None:
        """Record rows ``[start, stop)`` of the bypass columns: saccade
        and reuse frames of one session, in arrival order.

        Each is served on-device at its arrival and completes its path's
        bypass latency later.  The one way a plain backlog is recorded:
        one slice of latencies, and counts, misses and the makespan from
        the prefix columns.
        """
        columns = self.bypass.columns
        stats = self.stats[session_id]
        stats.latencies_s.extend(columns.latencies[start:stop])
        saccades = columns.saccades[stop] - columns.saccades[start]
        counts = stats.counts
        counts["saccade"] += saccades
        counts["reuse"] += stop - start - saccades
        stats.misses += columns.misses[stop] - columns.misses[start]
        done = columns.done_max[stop - 1]
        if done > self._makespan_s:
            # ``done`` may be an earlier frame's, recorded by another
            # shard before the session moved here: then take this
            # slice's own latest completion.
            if start == 0 or columns.done_max[start - 1] == done:
                done = columns.slice_done_max(start, stop)
            self._makespan_s = max(self._makespan_s, done)
        if self.obs.enabled:
            for frame, arrival, code, latency in zip(
                columns.frames[start:stop],
                columns.arrivals[start:stop],
                columns.codes[start:stop],
                columns.latencies[start:stop],
            ):
                self._trace_frame(session_id, frame, arrival, PATHS[code], latency)
        self._count_completed(stop - start)

    def _record_chaos_backlog(
        self, session: ClientSession, start: int, stop: int
    ) -> None:
        """Record entries ``[start, stop)`` of a chaos session's backlog,
        stepping the fault model per entry; a frame's latency counts from
        its capture, not its (retransmitted) arrival."""
        config = self.config
        saccade_s, reuse_s = config.saccade_bypass_s, config.reuse_bypass_s
        chaos = self.chaos
        session_id = session.session_id
        chaos.cursors[session_id] += stop - start
        captured = session.arrivals
        frames, arrivals, paths = session.backlog
        for frame, now, path in zip(
            frames[start:stop], arrivals[start:stop], paths[start:stop]
        ):
            outcome = chaos.fault_step(session_id, frame, path, now)
            if outcome == "dropped":
                self.stats[session_id].record_lost_input()
            elif outcome != "retransmit":
                done = now if outcome == "full_res" else (
                    now + (saccade_s if path == "saccade" else reuse_s)
                )
                self._record_frame(
                    session_id, frame, outcome or path,
                    float(captured[frame]), done,
                )

    def _record_batch(self, batch: "list[FrameRequest]", done_s: float) -> None:
        """Record a batch that completed at ``done_s``."""
        if not batch:
            return
        deadline_s = self._deadline_s
        trace = self.obs.enabled
        for request in batch:
            session_id = request.session_id
            latency = done_s - request.arrival_s
            self._ledger_row(session_id, done_s).record(
                request.path, latency, deadline_s
            )
            if trace:
                self._trace_frame(
                    session_id, request.frame_index, request.arrival_s,
                    request.path, latency,
                )
        self._makespan_s = max(self._makespan_s, done_s)
        self._count_completed(len(batch))

    def _count_completed(self, n_frames: int) -> None:
        """Hook: this runtime completed ``n_frames`` predict or bypass
        frames.  The sharded fleet counts them per shard; the base
        runtime does nothing."""

    def _record_frame(
        self, session_id: int, frame: int, path: str, arrival_s: float,
        done_s: float,
    ) -> None:
        """Record one frame; its session's earlier frames are recorded."""
        latency = done_s - arrival_s
        self.stats[session_id].record(path, latency, self._deadline_s)
        self._makespan_s = max(self._makespan_s, done_s)
        if self.obs.enabled:
            self._trace_frame(session_id, frame, arrival_s, path, latency)

    def _degrade_now(
        self, request: FrameRequest, now: float, cause: str = "admission"
    ) -> None:
        """Serve the frame from the buffered gaze (Algorithm-1 reuse
        mechanism): on time but stale, recorded in the explicit
        ``degraded`` bucket."""
        done = now + self.config.reuse_bypass_s
        self._ledger_row(request.session_id, now).record_degraded(
            self.config.reuse_bypass_s, self._deadline_s
        )
        self._makespan_s = max(self._makespan_s, done)
        if self.obs.enabled:
            self._trace_degraded(request, now, cause)

    # ------------------------------------------------------------------
    # Bypass backlog
    # ------------------------------------------------------------------
    def _backlog(self, session: ClientSession) -> "tuple[Sequence[float], int, int]":
        """``session``'s unrecorded backlog as ``(arrivals, start, stop)``:
        entries ``[start, stop)`` of the arrival column ``arrivals``.  A
        plain session's are its rows of the bypass columns, recorded up
        to its saccade and reuse counts; a chaos session's are its own
        backlog, recorded up to the chaos model's cursor."""
        session_id = session.session_id
        if self.chaos is not None:
            arrivals = session.backlog.arrivals
            return arrivals, self.chaos.cursors[session_id], len(arrivals)
        columns = self.bypass.columns
        lo, hi = columns.bounds[session_id]
        counts = self.stats[session_id].counts
        return columns.arrivals, lo + counts["saccade"] + counts["reuse"], hi

    def _record_backlog(
        self, session: ClientSession, start: int, stop: int
    ) -> None:
        """Record entries ``[start, stop)`` of ``session``'s backlog."""
        if stop > start:
            if self.chaos is None:
                self._record_bypass(session.session_id, start, stop)
            else:
                self._record_chaos_backlog(session, start, stop)

    def _flush_backlog(self, session: ClientSession, until_s: float) -> None:
        """Record ``session``'s backlog frames that arrive before ``until_s``."""
        arrivals, start, stop = self._backlog(session)
        if start < stop and arrivals[start] < until_s:
            self._record_backlog(
                session, start, bisect_left(arrivals, until_s, start, stop)
            )

    def flush_backlogs(self, until_s: float = math.inf) -> None:
        """Record every member session's backlog up to ``until_s``."""
        for session in self.fleet:
            self._flush_backlog(session, until_s)

    def _ledger_row(self, session_id: int, now: float) -> SessionStats:
        """``session_id``'s ledger row, its backlog first recorded up to
        ``now``.  Every other record of a session goes through here, so
        its bypass frames land in the order they arrived: a COMPLETE at
        ``now`` pops before an ARRIVAL at ``now``, and a session has one
        frame per instant."""
        self._flush_backlog(self.directory[session_id], now)
        return self.stats[session_id]

    def _arrival_order(self) -> "list[ClientSession]":
        """Member sessions in the order their same-instant ARRIVALs pop."""
        return sorted(self.fleet, key=lambda s: s.session_id)

    def _head_key(self, lane: int) -> tuple:
        """Merged-order key of the next heap event, comparable with the
        ``(arrival_s, lane, _ARRIVAL, position)`` of a backlog frame (see
        :func:`evaluate_slo_through`)."""
        time_s, kind, _, payload = self._heap[0]
        if kind != _ARRIVAL:
            return (time_s, lane, kind, 0)
        if payload.__class__ is ArrivalCursor:
            payload = self._requests[payload.rows[-1]]
        order = [s.session_id for s in self._arrival_order()]
        return (time_s, lane, kind, order.index(payload.session_id))

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def estimated_wait_s(self, now: float) -> float:
        """Wait a newly admitted predict frame would see: full batches of
        queued + in-flight + this frame, spread across the pool."""
        pending = len(self.batcher) + self.pool.in_flight_frames() + 1
        batches = math.ceil(pending / self.config.max_batch)
        return batches * self._full_batch_s / self.pool.available_count(now)

    def _admit(self, request: FrameRequest, now: float) -> bool:
        if self.config.admission is AdmissionPolicy.ALWAYS:
            return True
        if self.estimated_wait_s(now) <= self._queue_budget_s:
            return True
        if self.config.admission is AdmissionPolicy.DEGRADE:
            self._degrade_now(request, now, cause="admission")
        else:  # SHED
            self._ledger_row(request.session_id, now).record_shed(request.path)
            if self.obs.enabled:
                self.obs.tracer.instant(
                    "shed", now, cat="serve",
                    pid=session_pid(request.session_id),
                    args={"frame": request.frame_index},
                )
                assert self._instruments is not None
                self._instruments.shed.inc()
        return False

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _note_dispatch(self, batch: list[FrameRequest], now: float) -> None:
        """Hook: a batch left the queue for a worker.  The sharded fleet
        overrides this to window per-shard queue waits for its
        rebalancer; the base runtime does nothing."""

    def _try_dispatch(self, now: float) -> None:
        pool = self.pool
        while self.batcher.ready(now):
            worker = pool.pick(now)
            if worker is None:
                wake = pool.wake_s(now)
                if wake is not None:
                    self._push(wake, _WINDOW, None)
                return
            batch = self.batcher.take()
            self._note_dispatch(batch, now)
            done_s, ok, _ = pool.dispatch(worker, len(batch), now)
            if ok and self.inference is not None:
                outputs = np.asarray(self.inference(batch))
                if outputs.shape != (len(batch), 2):
                    raise ValueError(
                        f"inference hook returned shape {outputs.shape}, "
                        f"expected ({len(batch)}, 2)"
                    )
                assert self.predictions is not None
                for request, gaze in zip(batch, outputs):
                    self.predictions[(request.session_id, request.frame_index)] = gaze
            if self.obs.enabled:
                self._trace_batch(worker.worker_id, batch, now, done_s, ok=ok)
            self._push(done_s, _COMPLETE, (worker, batch))

    def _dispatch_and_arm(self, now: float) -> None:
        """Dispatch what the queue allows, then arm the batch window of
        whatever stays queued, once per deadline (see
        :meth:`DynamicBatcher.arm_window`): past its deadline a queued
        frame waits for a worker, and the COMPLETE or pool wake-up that
        frees one retries the dispatch."""
        self._try_dispatch(now)
        deadline = self.batcher.arm_window(now)
        if deadline is not None:
            self._push(deadline, _WINDOW, None)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, request: FrameRequest, now: float) -> None:
        chaos = self.chaos
        if chaos is not None:
            if request.retries > 0:
                # A retried frame rejoining the batcher after backoff; it
                # was admitted on first arrival and is never dropped.
                self.batcher.requeue([request])
                chaos.report.frames_requeued += 1
                self._try_dispatch(now)
                return
            sid, i = request.session_id, request.frame_index
            self._ledger_row(sid, now)  # the session's earlier frames step first
            outcome = chaos.fault_step(sid, i, "predict", now)
            if outcome == "full_res":
                self._record_frame(sid, i, outcome, request.arrival_s, now)
                return
            if outcome is not None:
                self._degrade_now(request, now, cause=outcome)
                return
        if self._admit(request, now):
            self.batcher.enqueue(request)
            self._dispatch_and_arm(now)

    def _on_complete(
        self, worker_batch: "tuple[WorkerState, list[FrameRequest]]", now: float
    ) -> None:
        worker, batch = worker_batch
        cause = self.pool.complete(worker, now)
        if cause is None:
            self._record_batch(batch, now)
        else:
            self._on_failed_batch(worker, batch, cause, now)
        self._try_dispatch(now)

    def _on_failed_batch(
        self, worker: WorkerState, batch: "list[FrameRequest]", cause: str,
        now: float,
    ) -> None:
        """The pool failed ``batch`` (``cause`` is ``"crash"`` or
        ``"stall"``).  The chaos model decides, frame by frame, to retry
        after backoff or to degrade now; a plain pool never fails a
        batch, and a runtime without a chaos model raises."""
        chaos = self.chaos
        if chaos is None:
            raise RuntimeError(
                f"worker {worker.worker_id} failed a batch ({cause}) but "
                f"{type(self).__name__} does not handle batch failures"
            )
        chaos.batch_failed(worker.worker_id, len(batch), cause, now)
        for request in batch:
            fate = chaos.retry_or_degrade(request, now, self._full_batch_s)
            if isinstance(fate, str):
                self._degrade_now(request, now, cause=fate)
            else:
                self._push(fate[0], _ARRIVAL, fate[1])

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._started

    def start(self) -> None:
        """Seed the cursor with the predict frames (idempotent).  A fleet
        shard, handed its fleet's source, is seeded by its fleet."""
        if self._started:
            return
        if self._requests is None:
            self._requests, times = self._arrival_source()
            self._add_arrivals([(times, np.arange(len(times)))])
        self._started = True

    def peek_event(self) -> "tuple[float, int, int] | None":
        """``(time_s, kind, seq)`` of the next event, or None when done.

        The write-ahead journal logs this triple *before* the event is
        applied; on restore the replay cross-checks each journal record
        against the regenerated event stream.
        """
        if not self._heap:
            return None
        time_s, kind, seq, _ = self._heap[0]
        return (time_s, kind, seq)

    def step(self) -> bool:
        """Apply the next event; False once no event is left."""
        heap = self._heap
        if not heap:
            return False
        slo = self.slo
        if slo is not None and slo.due(heap[0][0]):
            evaluate_slo_through(slo, [(0, self)], self._head_key(0))
        now, kind, _, payload = heappop(heap)
        if kind == _ARRIVAL and payload.__class__ is ArrivalCursor:
            # A cursor's head: the cursor's next entry takes its place on
            # the heap (inlined: it runs per predict frame).  A row is
            # applied once, so the source lets its frame go.
            times, seqs, rows = payload.times, payload.seqs, payload.rows
            times.pop()
            seqs.pop()
            row = rows.pop()
            if rows:
                heappush(heap, (times[-1], _ARRIVAL, seqs[-1], payload))
            requests = self._requests
            payload, requests[row] = requests[row], None
        if kind == _ARRIVAL:
            self._on_arrival(payload, now)  # type: ignore[arg-type]
        elif kind == _COMPLETE:
            self._on_complete(payload, now)  # type: ignore[arg-type]
        else:  # _WINDOW
            self._try_dispatch(now)
        self.events_processed += 1
        if slo is not None:
            slo.maybe_evaluate(now)
        return True

    def finish(self) -> FleetReport:
        """Close accounting and build the report (no event may be left)."""
        if self._heap:
            pending = len(self._heap) + max(len(self._arrivals) - 1, 0)
            raise RuntimeError(f"finish() with {pending} events still pending")
        if self.slo is not None:
            evaluate_slo_through(self.slo, [(0, self)], None)
        self.flush_backlogs()
        self.flush_pending()
        duration = max(self.config.duration_s, self._makespan_s)
        report = self._build_report(duration)
        if self.obs.enabled:
            publish_fleet_metrics(report, self.obs.metrics)
        if self.slo is not None:
            self.slo.finalize(duration)
        return report

    def flush_pending(self) -> None:
        """End-of-run flush: anything still queued is accounted explicitly
        as pending-at-shutdown — admitted work is never silently lost."""
        for request in self.batcher.drain():
            self.stats[request.session_id].record_pending(request.path)
        self.batcher.check_accounting()

    def run(self) -> FleetReport:
        self.start()
        while self.step():
            pass
        return self.finish()

    def _build_report(self, duration: float) -> FleetReport:
        return FleetReport(
            sessions=list(self.stats.values()),
            duration_s=duration,
            deadline_s=self.config.deadline_s,
            batch_occupancy=dict(self.pool.batch_occupancy),
            worker_utilization=self.pool.utilization(duration),
            mean_batch_size=self.pool.mean_batch_size(),
            n_workers=self.config.n_workers,
            max_batch=self.config.max_batch,
            predictions=self.predictions,
            faults=None if self.chaos is None
            else self.chaos.finalize(duration, self.pool),
        )

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.recover)
    # ------------------------------------------------------------------
    @property
    def RUNTIME_KIND(self) -> str:
        """Checkpoint kind tag; ``repro.recover`` maps it back to a
        runtime: ``"chaos"`` exactly when the runtime has a chaos model."""
        return "serve" if self.chaos is None else "chaos"

    def _encode_payload(self, kind: int, payload: object) -> object:
        """JSON-safe form of one heap payload (kind-specific)."""
        if kind == _ARRIVAL:
            if payload.__class__ is ArrivalCursor:
                # Rows of the source, rebuilt from the config on restore.
                return {"rows": payload.rows[::-1], "seqs": payload.seqs[::-1]}
            return payload.to_dict()  # type: ignore[union-attr]
        if kind == _COMPLETE:
            worker, batch = payload  # type: ignore[misc]
            return {
                "worker": worker.worker_id,
                "batch": [request.to_dict() for request in batch],
            }
        return None  # _WINDOW carries no payload

    def _decode_payload(self, kind: int, data: object) -> object:
        if kind == _ARRIVAL:
            if "rows" not in data:  # type: ignore[operator]
                return FrameRequest.from_dict(data)  # type: ignore[arg-type]
            rows = decode(list[int], data["rows"], "rows")  # type: ignore[index]
            seqs = decode(list[int], data["seqs"], "seqs")  # type: ignore[index]
            if len(rows) != len(seqs):
                raise ValueError(f"{len(rows)} cursor rows but {len(seqs)} seqs")
            if self._requests is None or self.chaos is not None:
                # A restored runtime's own source (a fleet hands its
                # shards the fleet's); a chaos frame's time is its
                # delivery's.
                self._requests, times = self._arrival_source()
                times = [times[r] for r in rows]
            else:
                times = [self._requests[r].arrival_s for r in rows]
            self._arrivals.merge(times, rows, seqs)
            return self._arrivals
        if kind == _COMPLETE:
            worker = self.pool.workers[int(data["worker"])]  # type: ignore[index]
            batch = [FrameRequest.from_dict(r) for r in data["batch"]]  # type: ignore[index]
            return (worker, batch)
        return None

    def _member_ids(self) -> "list[int]":
        """Ids of the sessions this runtime serves, in session-id order."""
        return sorted(session.session_id for session in self.fleet)

    def state_dict(self) -> dict:
        """Full JSON-safe snapshot of the serving state.

        The heap is serialized in its *raw list order* (already a valid
        binary heap) and restored verbatim, so subsequent pushes and pops
        reproduce the uninterrupted run's event ordering exactly — the
        load-bearing detail behind bit-identical recovery.  The cursor
        is its head entry's payload: its source rows (rebuilt from the
        config on restore) and their event seqs.  ``stats`` is the
        ledger slice of the sessions this runtime serves: all of them,
        or a fleet shard's members (the shards of a fleet partition its
        sessions, so its one ledger is written once).
        """
        state = {
            "started": self._started,
            "events_processed": self.events_processed,
            "event_seq": self._event_seq,
            "makespan_s": self._makespan_s,
            "heap": [
                [time_s, kind, seq, self._encode_payload(kind, payload)]
                for time_s, kind, seq, payload in self._heap
            ],
            "batcher": self.batcher.state_dict(),
            "pool": self.pool.state_dict(),
            "stats": [self.stats[sid].state_dict() for sid in self._member_ids()],
            "predictions": predictions_state(self.predictions),
        }
        if self.chaos is not None:
            state.update(self.chaos.state_dict())
        return state

    def load_state(self, state: dict, path: str = "") -> None:
        """Restore a :meth:`state_dict` snapshot onto a freshly
        constructed runtime of the same config; ``path`` names the
        snapshot in errors (a fleet shard's is its place in the fleet's)."""
        at = field_path(path, "")

        def get(key: str):
            return section(state, key, path)

        def read(hint, key: str):
            return decode(hint, get(key), at + key)

        self._started = read(bool, "started")
        self.events_processed = read(int, "events_processed")
        self._event_seq = read(int, "event_seq")
        self._makespan_s = read(float, "makespan_s")
        # The pool first: COMPLETE payloads name its workers.
        self.pool.load_state(get("pool"), at + "pool")
        self._arrivals = cursor = ArrivalCursor()
        self._heap = [
            (float(time_s), int(kind), int(seq), self._decode_payload(int(kind), data))
            for time_s, kind, seq, data in get("heap")
        ]
        if sum(entry[3] is cursor for entry in self._heap) > 1:
            # Cursor entries merged into the one cursor (an earlier
            # build wrote a cursor per migrated session): one head.
            self._reseat_arrivals()
        self.batcher.load_state(get("batcher"), at + "batcher")
        # One row per member session, in session-id order.
        rows = zip(self._member_ids(), get("stats"), strict=True)
        for i, (sid, saved) in enumerate(rows):
            self.stats[sid].load_state(saved, f"{at}stats[{i}]")
        predictions = get("predictions")
        if predictions is not None:
            self.predictions = {
                (int(sid), int(frame)): np.asarray(gaze, dtype=np.float64)
                for sid, frame, gaze in predictions
            }
        if self.chaos is not None:
            self.chaos.load_state(state, path)


def evaluate_slo_through(
    slo, lanes: "list[tuple[int, ServeRuntime]]", next_key: "tuple | None"
) -> None:
    """Run the SLO evaluations due before the next event, backlogs first.

    An event loop with every bypass frame on its heap evaluates boundary
    B right after the first frame or event at or after B, in merged
    order.  ``lanes`` are the runtimes whose backlogs merge, as
    ``(rank, runtime)``: at one instant a lower rank pops first, and
    within a runtime its ARRIVALs pop in :meth:`ServeRuntime._arrival_order`
    after its COMPLETEs and WINDOWs.  ``next_key`` is the merged-order
    key of the next event (None at the end of the run).  For each due
    boundary, every backlog frame before the first one at or after B is
    recorded; if that first one is a backlog frame rather than the next
    event, it is recorded too and B is evaluated at its arrival.
    """
    while next_key is None or slo.due(next_key[0]):
        first = None
        for rank, runtime in lanes:
            for position, session in enumerate(runtime._arrival_order()):
                arrivals, start, end = runtime._backlog(session)
                stop = bisect_left(arrivals, True, start, end, key=slo.due)
                runtime._record_backlog(session, start, stop)
                if stop < end:
                    key = (arrivals[stop], rank, _ARRIVAL, position)
                    if first is None or key < first[0]:
                        first = (key, runtime, session)
        if first is None or (next_key is not None and next_key < first[0]):
            return
        key, runtime, session = first
        _, start, _ = runtime._backlog(session)
        runtime._record_backlog(session, start, start + 1)
        slo.maybe_evaluate(key[0])


def serve_fleet(
    config: ServeConfig,
    service: "BatchServiceModel | None" = None,
    inference: "InferenceFn | None" = None,
    fleet: "list[ClientSession] | None" = None,
    obs: "Obs | None" = None,
) -> FleetReport:
    """Run one serving simulation and return its :class:`FleetReport`."""
    return ServeRuntime(
        config, service=service, inference=inference, fleet=fleet, obs=obs
    ).run()
