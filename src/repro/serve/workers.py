"""Simulated inference worker pool.

Each worker serves one batch at a time under the affine service-time model
``t(b) = fixed + per_sample * b``.  The pool tracks busy time and the
realized batch-occupancy histogram — the two numbers that tell you whether
cross-session batching is actually amortizing the per-dispatch overhead or
the fleet is just queueing.

Every worker decision of the serving loop is made here: the loop asks
``available_count``, ``pick``, ``dispatch``, ``complete`` and ``wake_s``.

The bottom half of the module is the fault model: a declarative
:class:`WorkerFaultSchedule` (crashes, stalls, latency-spike windows) and a
:class:`FaultyWorkerPool` whose dispatches can fail mid-service and whose
workers each sit behind a :class:`~repro.serve.breaker.CircuitBreaker`.
Everything stays deterministic — faults fire at scheduled times, not
sampled ones, so a seeded chaos run is bit-reproducible.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import NamedTuple

from repro.recover.configio import decode_into, encode, field_path
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.config import BatchServiceModel
from repro.utils.validation import check_positive


@dataclass
class WorkerState:
    """One worker's bookkeeping."""

    worker_id: int
    busy_until_s: float = 0.0
    busy_s: float = 0.0
    batches_served: int = 0
    frames_served: int = 0

    def idle_at(self, now: float) -> bool:
        return self.busy_until_s <= now


class DispatchOutcome(NamedTuple):
    """What happened to one dispatch (a tuple: one is built per batch)."""

    done_s: float  # completion (or failure) time
    ok: bool = True
    cause: "str | None" = None  # "crash" | "stall" on failure


@dataclass(init=False, eq=False)
class WorkerPool:
    """Fixed pool of identical batched-inference workers.

    Its dataclass fields are what it checkpoints.
    """

    workers: list[WorkerState]
    #: batch size -> batches dispatched at that size.
    batch_occupancy: dict[int, int]
    #: worker id -> size of the batch it is serving.
    in_flight: dict[int, int]

    def __init__(self, n_workers: int, service: BatchServiceModel):
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {n_workers}")
        self.service = service
        self.workers = [WorkerState(i) for i in range(n_workers)]
        self.batch_occupancy = {}
        self.in_flight = {}

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    def pick(self, now: float) -> "WorkerState | None":
        """The worker the next batch goes to: the lowest-id idle one
        (deterministic tie-break), or None if none may take it."""
        for worker in self.workers:
            if worker.idle_at(now):
                return worker
        return None

    def in_flight_frames(self) -> int:
        """Frames currently being served (for admission estimates)."""
        return sum(self.in_flight.values())

    def available_count(self, now: float) -> int:
        """Workers the admission estimate spreads queued work over."""
        return len(self.workers)

    def wake_s(self, now: float) -> "float | None":
        """When to retry a dispatch :meth:`pick` blocked, or None to wait
        for the next completion (which retries it anyway)."""
        return None

    def dispatch(
        self, worker: WorkerState, batch_size: int, now: float
    ) -> DispatchOutcome:
        """Start a batch on ``worker``; the outcome says when it completes."""
        if not worker.idle_at(now):
            raise RuntimeError(
                f"worker {worker.worker_id} is busy until {worker.busy_until_s}"
            )
        return self._serve(worker, batch_size, now, self.service.service_s(batch_size))

    def _serve(
        self, worker: WorkerState, batch_size: int, now: float, service: float
    ) -> DispatchOutcome:
        worker.busy_until_s = now + service
        worker.busy_s += service
        worker.batches_served += 1
        worker.frames_served += batch_size
        self.batch_occupancy[batch_size] = self.batch_occupancy.get(batch_size, 0) + 1
        self.in_flight[worker.worker_id] = batch_size
        return DispatchOutcome(worker.busy_until_s)

    def complete(self, worker: WorkerState, now: float) -> "str | None":
        """``worker``'s batch finished at ``now``: the cause of its
        failure, or None if it was served (always, on this pool)."""
        self.in_flight.pop(worker.worker_id, None)
        return None

    def utilization(self, duration_s: float) -> float:
        """Mean fraction of the window each worker spent serving."""
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        return sum(min(w.busy_s, duration_s) for w in self.workers) / (
            self.n_workers * duration_s
        )

    def mean_batch_size(self) -> float:
        total = sum(b * c for b, c in self.batch_occupancy.items())
        count = sum(self.batch_occupancy.values())
        return total / count if count else 0.0

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.recover)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return encode(self)

    def load_state(self, state: dict, path: str = "") -> None:
        slots = [w.worker_id for w in self.workers]
        decode_into(self, state, path)
        ids = [w.worker_id for w in self.workers]
        if ids != slots:
            raise ValueError(
                f"snapshot has {len(ids)} workers {ids}, "
                f"pool has {len(slots)} {slots}"
            )


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerCrash:
    """Worker ``worker_id`` dies at ``at_s`` and restarts after ``down_s``.

    A batch in flight when the crash fires fails at the crash instant;
    the worker is unavailable for the whole downtime window.
    """

    worker_id: int
    at_s: float
    down_s: float

    def __post_init__(self) -> None:
        if self.worker_id < 0:
            raise ValueError(f"worker_id must be non-negative, got {self.worker_id}")
        check_positive("at_s", self.at_s, strict=False)
        check_positive("down_s", self.down_s)

    @property
    def up_s(self) -> float:
        return self.at_s + self.down_s


@dataclass(frozen=True)
class WorkerStall:
    """Worker hangs on any batch dispatched inside ``[start_s, stop_s)``:
    the dispatch never completes on its own and fails at the runtime's
    dispatch timeout."""

    worker_id: int
    start_s: float
    stop_s: float

    def __post_init__(self) -> None:
        if self.worker_id < 0:
            raise ValueError(f"worker_id must be non-negative, got {self.worker_id}")
        if not self.stop_s > self.start_s >= 0:
            raise ValueError(
                f"stall window must satisfy 0 <= start < stop, got "
                f"[{self.start_s}, {self.stop_s})"
            )


@dataclass(frozen=True)
class LatencySpike:
    """Service times multiplied by ``factor`` for batches dispatched inside
    ``[start_s, stop_s)``; ``worker_id=None`` hits the whole pool (a shared
    backend contention event rather than one sick worker)."""

    start_s: float
    stop_s: float
    factor: float
    worker_id: "int | None" = None

    def __post_init__(self) -> None:
        if self.worker_id is not None and self.worker_id < 0:
            raise ValueError(f"worker_id must be non-negative, got {self.worker_id}")
        if not self.stop_s > self.start_s >= 0:
            raise ValueError(
                f"spike window must satisfy 0 <= start < stop, got "
                f"[{self.start_s}, {self.stop_s})"
            )
        if self.factor < 1.0:
            raise ValueError(f"spike factor must be >= 1, got {self.factor}")


@dataclass(frozen=True)
class WorkerFaultSchedule:
    """Declarative fault plan for a pool (empty by default)."""

    crashes: tuple[WorkerCrash, ...] = ()
    stalls: tuple[WorkerStall, ...] = ()
    spikes: tuple[LatencySpike, ...] = ()

    def spike_factor(self, worker_id: int, now: float) -> float:
        factor = 1.0
        for spike in self.spikes:
            if spike.worker_id not in (None, worker_id):
                continue
            if spike.start_s <= now < spike.stop_s:
                factor *= spike.factor
        return factor

    def stalled(self, worker_id: int, now: float) -> bool:
        return any(
            s.worker_id == worker_id and s.start_s <= now < s.stop_s
            for s in self.stalls
        )

    def crash_during(
        self, worker_id: int, start_s: float, stop_s: float
    ) -> "WorkerCrash | None":
        """Earliest crash of ``worker_id`` firing inside ``[start_s, stop_s)``."""
        hits = [
            c
            for c in self.crashes
            if c.worker_id == worker_id and start_s <= c.at_s < stop_s
        ]
        return min(hits, key=lambda c: c.at_s) if hits else None

    def down_until(self, worker_id: int, now: float) -> "float | None":
        """End of the crash downtime covering ``now``, if any."""
        for crash in self.crashes:
            if crash.worker_id == worker_id and crash.at_s <= now < crash.up_s:
                return crash.up_s
        return None

    @property
    def empty(self) -> bool:
        return not (self.crashes or self.stalls or self.spikes)


@dataclass(init=False, eq=False)
class FaultyWorkerPool(WorkerPool):
    """Worker pool whose dispatches can crash, stall, or slow down, each
    worker behind a circuit breaker.

    Failed batches keep the worker occupied until the failure resolves
    (crash downtime / stall timeout) but are *not* counted as served —
    :meth:`complete` hands their cause to the serving loop, which
    re-queues their frames.  Breakers open after ``breaker_threshold``
    consecutive failures and re-admit their worker through one half-open
    probe after ``breaker_cooldown_s``.  The breakers are checkpointed
    beside the dataclass fields.
    """

    #: ``(worker id, failure time, cause)`` of each failing in-flight
    #: batch, sorted.
    failing: list[tuple[int, float, str]]
    #: The wake-up :meth:`wake_s` last handed out (spent once due).
    wake_armed_s: "float | None"

    def __init__(
        self,
        n_workers: int,
        service: BatchServiceModel,
        schedule: "WorkerFaultSchedule | None" = None,
        stall_timeout_s: float = 0.05,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 0.25,
    ):
        super().__init__(n_workers, service)
        self.schedule = schedule or WorkerFaultSchedule()
        self.stall_timeout_s = check_positive("stall_timeout_s", stall_timeout_s)
        self.breakers = [
            CircuitBreaker(breaker_threshold, breaker_cooldown_s)
            for _ in range(n_workers)
        ]
        self.failing = []
        self.wake_armed_s = None

    def _up(self, worker: WorkerState, now: float) -> bool:
        """Not inside a crash downtime window."""
        return self.schedule.down_until(worker.worker_id, now) is None

    def available_count(self, now: float) -> int:
        """Crashed and breaker-evicted workers leave the divisor (at
        least one worker always counts)."""
        n = 0
        for worker in self.workers:
            if self._up(worker, now) and (
                self.breakers[worker.worker_id].state(now) is not BreakerState.OPEN
            ):
                n += 1
        return max(1, n)

    def pick(self, now: float) -> "WorkerState | None":
        """The lowest-id idle, running worker whose breaker allows it."""
        for worker in self.workers:
            if (
                worker.idle_at(now)
                and self._up(worker, now)
                and self.breakers[worker.worker_id].allow(now)
            ):
                return worker
        return None

    def wake_s(self, now: float) -> "float | None":
        """The earliest instant a worker could come back (a busy worker
        finishing, a crash downtime ending, a breaker cooldown expiring),
        or None while an earlier or equal wake-up is still armed."""
        candidates = []
        for worker in self.workers:
            at = max(worker.busy_until_s, now)
            down = self.schedule.down_until(worker.worker_id, at)
            if down is not None:
                at = down
            reopen = self.breakers[worker.worker_id].reopen_s
            if reopen is not None:
                at = max(at, reopen)
            candidates.append(at)
        wake = max(min(candidates), now + 1e-9)
        armed = self.wake_armed_s
        if armed is not None and now < armed <= wake:
            return None  # armed and not yet fired
        self.wake_armed_s = wake
        return wake

    def dispatch(
        self, worker: WorkerState, batch_size: int, now: float
    ) -> DispatchOutcome:
        """Start a batch; the outcome says when it completes or fails."""
        wid = worker.worker_id
        if not (worker.idle_at(now) and self._up(worker, now)):
            raise RuntimeError(f"worker {wid} is not available at {now}")
        self.breakers[wid].note_dispatch(now)
        if self.schedule.stalled(wid, now):
            timeout_s = now + self.stall_timeout_s
            return self._fail(worker, batch_size, now, timeout_s, "stall")
        service = self.service.service_s(batch_size) * self.schedule.spike_factor(
            wid, now
        )
        crash = self.schedule.crash_during(wid, now, now + service)
        if crash is None:
            return self._serve(worker, batch_size, now, service)
        outcome = self._fail(worker, batch_size, now, crash.at_s, "crash")
        worker.busy_until_s = crash.up_s
        return outcome

    def _fail(
        self, worker: WorkerState, batch_size: int, now: float, fail_s: float,
        cause: str,
    ) -> DispatchOutcome:
        worker.busy_until_s = fail_s
        worker.busy_s += fail_s - now
        self.in_flight[worker.worker_id] = batch_size
        insort(self.failing, (worker.worker_id, fail_s, cause))
        return DispatchOutcome(fail_s, ok=False, cause=cause)

    def complete(self, worker: WorkerState, now: float) -> "str | None":
        """Also tells ``worker``'s breaker whether the batch failed."""
        super().complete(worker, now)
        cause = None
        for failing in self.failing:
            if failing[:2] == (worker.worker_id, now):
                self.failing.remove(failing)
                cause = failing[2]
                break
        breaker = self.breakers[worker.worker_id]
        if cause is None:
            breaker.record_success(now)
        else:
            breaker.record_failure(now)
        return cause

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.recover)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {**encode(self), "breakers": [b.state_dict() for b in self.breakers]}

    def load_state(self, state: dict, path: str = "") -> None:
        fields = dict(state)
        breakers = fields.pop("breakers")
        super().load_state(fields, path)
        saved = zip(self.breakers, breakers, strict=True)
        for i, (breaker, state) in enumerate(saved):
            breaker.load_state(state, field_path(path, f"breakers[{i}]"))
