"""Sim-clock span tracer with a bounded ring buffer.

Every span lives on a *track*, identified Chrome-trace-style by a
``(pid, tid)`` pair: sessions are processes (one frame track each),
the worker pool is a process with one thread per worker, and the
accelerator / TFR stage models get processes of their own (see the
``PID_*`` constants).

Timestamps come from a simulation's own clock (the serving event loop,
the accelerator cycle model, the TFR latency composition).  Spans are
recorded retroactively via :meth:`Tracer.record_span` with explicit
start/duration, so two same-seed runs produce identical span streams
(the obs-smoke CI job diffs them byte-for-byte).  The simulator's own
host time is not traced here: ``perf/`` measures it from outside.

The default tracer everywhere is :data:`NULL_TRACER`, whose every method
is a no-op — instrumentation stays in the code at zero configuration and
near-zero cost until an :class:`~repro.obs.config.ObsConfig` enables the
real one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

#: The clock domain every exported record is stamped with.
SIM_CLOCK = "sim"

#: Chrome-trace process ids of the fixed tracks.  Sessions map to
#: ``PID_SESSION_BASE + session_id`` so per-session frame streams render
#: as separate processes in Perfetto.  Pid 5 is unused: the pids after
#: it keep their numbers so exported traces do not move.
PID_WORKERS = 1
PID_BATCHER = 2
PID_ACCEL = 3
PID_TFR = 4
PID_RECOVER = 6
PID_RELIABILITY = 7
PID_SLO = 8
PID_FLEET = 9
PID_NET = 10
PID_SESSION_BASE = 100

#: Shard pid namespacing: shard ``k`` owns the pid block
#: ``[(k + 1) * SHARD_PID_STRIDE, (k + 2) * SHARD_PID_STRIDE)``.  Before
#: this, N shard runtimes sharing one tracer collided on the fixed pids
#: above (every shard's workers interleaved on pid 1); with the stride,
#: each shard's spans render as its own process group in Perfetto.
SHARD_PID_STRIDE = 1_000_000


def session_pid(session_id: int) -> int:
    """Track (process) id of one client session."""
    return PID_SESSION_BASE + session_id


def shard_pid(shard_id: int, pid: int) -> int:
    """Namespace a track pid into one shard's block."""
    if shard_id < 0:
        raise ValueError(f"shard_id must be non-negative, got {shard_id}")
    if not 0 <= pid < SHARD_PID_STRIDE:
        raise ValueError(
            f"pid {pid} outside the per-shard block [0, {SHARD_PID_STRIDE})"
        )
    return (shard_id + 1) * SHARD_PID_STRIDE + pid


@dataclass(slots=True)
class SpanRecord:
    """One completed span or instant event.

    ``ph`` follows the Chrome ``trace_event`` phase vocabulary: ``"X"``
    for complete spans, ``"i"`` for instant events (``dur_s == 0``).
    """

    name: str
    cat: str
    ts_s: float
    dur_s: float
    pid: int
    tid: int
    ph: str = "X"
    args: "dict | None" = None

    @property
    def end_s(self) -> float:
        return self.ts_s + self.dur_s

    def contains(self, other: "SpanRecord", tol: float = 1e-12) -> bool:
        """Temporal containment on the same track (the nesting relation
        Chrome's flame view infers from ts/dur)."""
        return (
            self.pid == other.pid
            and self.tid == other.tid
            and other.ts_s >= self.ts_s - tol
            and other.end_s <= self.end_s + tol
        )


class NullTracer:
    """The default tracer: every operation is a no-op.

    Shares the :class:`Tracer` surface so instrumented code never
    branches on configuration beyond the cheap ``enabled`` check.
    """

    enabled = False
    dropped = 0

    def record_span(self, *args, **kwargs) -> None:
        pass

    def instant(self, *args, **kwargs) -> None:
        pass

    def declare_track(self, *args, **kwargs) -> None:
        pass

    def spans(self) -> list[SpanRecord]:
        return []

    def slowest(self, k: int = 10) -> list[SpanRecord]:
        return []

    @property
    def tracks(self) -> dict:
        return {}

    def __len__(self) -> int:
        return 0


@dataclass
class TrackInfo:
    """Display metadata of one (pid, tid) track."""

    process_name: str
    thread_names: dict[int, str] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder with a fixed-capacity ring buffer.

    When the buffer is full the *oldest* spans are dropped (``dropped``
    counts them) — tracing a long run degrades to a tail window instead
    of growing without bound.
    """

    enabled = True

    def __init__(self, capacity: int = 1 << 16):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.dropped = 0
        self._spans: deque[SpanRecord] = deque(maxlen=capacity)
        self._tracks: dict[int, TrackInfo] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _append(self, record: SpanRecord) -> None:
        if len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append(record)

    def record_span(
        self,
        name: str,
        ts_s: float,
        dur_s: float,
        *,
        cat: str = "sim",
        pid: int = 0,
        tid: int = 0,
        args: "dict | None" = None,
    ) -> None:
        """Record one completed span with explicit timestamps."""
        if dur_s < 0:
            raise ValueError(f"span {name!r} has negative duration {dur_s}")
        self._append(SpanRecord(name, cat, ts_s, dur_s, pid, tid, "X", args))

    def instant(
        self,
        name: str,
        ts_s: float,
        *,
        cat: str = "sim",
        pid: int = 0,
        tid: int = 0,
        args: "dict | None" = None,
    ) -> None:
        """Record a zero-duration instant event (e.g. a state transition)."""
        self._append(SpanRecord(name, cat, ts_s, 0.0, pid, tid, "i", args))

    # ------------------------------------------------------------------
    # Track metadata
    # ------------------------------------------------------------------
    def declare_track(
        self,
        pid: int,
        process_name: str,
        tid: int = 0,
        thread_name: "str | None" = None,
    ) -> None:
        """Name a (pid, tid) track for the trace viewers."""
        info = self._tracks.setdefault(pid, TrackInfo(process_name))
        info.process_name = process_name
        if thread_name is not None:
            info.thread_names[tid] = thread_name

    @property
    def tracks(self) -> dict[int, TrackInfo]:
        return self._tracks

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def spans(self) -> list[SpanRecord]:
        return list(self._spans)

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self._spans)

    def slowest(self, k: int = 10) -> list[SpanRecord]:
        """The k longest spans (ties broken by start time then name, so
        the ranking is deterministic)."""
        pool = [s for s in self._spans if s.ph == "X"]
        pool.sort(key=lambda s: (-s.dur_s, s.ts_s, s.name, s.pid, s.tid))
        return pool[:k]


class ScopedTracer:
    """Shard-scoped view of a tracer: every pid lands in the shard's
    block and every process name gains a ``shardK.`` prefix.

    Multi-runtime processes (the sharded fleet) hand each shard one of
    these over the *same* underlying tracer, so N shards' spans coexist
    in one Perfetto trace as side-by-side process groups instead of
    interleaving on shared track ids.  Only the recording surface is
    scoped — reads (``spans()``, ``tracks``) and the ring buffer stay
    the shared tracer's.
    """

    enabled = True

    def __init__(self, tracer: "Tracer", shard_id: int):
        if shard_id < 0:
            raise ValueError(f"shard_id must be non-negative, got {shard_id}")
        self.tracer = tracer
        self.shard_id = shard_id

    def _pid(self, pid: int) -> int:
        return shard_pid(self.shard_id, pid)

    def record_span(self, name, ts_s, dur_s, *, pid: int = 0, **kwargs) -> None:
        self.tracer.record_span(name, ts_s, dur_s, pid=self._pid(pid), **kwargs)

    def instant(self, name, ts_s, *, pid: int = 0, **kwargs) -> None:
        self.tracer.instant(name, ts_s, pid=self._pid(pid), **kwargs)

    def declare_track(
        self,
        pid: int,
        process_name: str,
        tid: int = 0,
        thread_name: "str | None" = None,
    ) -> None:
        self.tracer.declare_track(
            self._pid(pid),
            f"shard{self.shard_id}.{process_name}",
            tid=tid,
            thread_name=thread_name,
        )

    # Reads pass through to the shared tracer.
    def spans(self) -> list[SpanRecord]:
        return self.tracer.spans()

    def slowest(self, k: int = 10) -> list[SpanRecord]:
        return self.tracer.slowest(k)

    @property
    def tracks(self) -> dict:
        return self.tracer.tracks

    @property
    def dropped(self) -> int:
        return self.tracer.dropped

    def __len__(self) -> int:
        return len(self.tracer)


#: Shared no-op tracer (the default everywhere).
NULL_TRACER = NullTracer()
