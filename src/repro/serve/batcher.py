"""Cross-session dynamic batcher.

Predict-path frames from *different* sessions queue here and are grouped
into one vectorized POLOViT forward.  The policy is the standard
size-or-timeout dynamic batching rule:

* dispatch immediately once ``max_batch`` requests are waiting, or
* dispatch whatever is waiting once the oldest request has waited
  ``window_s`` (``window_s = 0`` degenerates to work-conserving greedy
  dispatch — take everything queued the moment a worker frees up).

The batcher is a passive policy object; the event loop owns time and asks
it what to do.  FIFO order is preserved so per-session frame order holds.

Accounting is conservative by construction: every request that enters
(``enqueue`` for fresh admissions, ``requeue`` for retries of failed
batches) is either taken into a batch or still pending, and the runtime
drains leftovers at shutdown — ``admitted + requeued == taken + pending``
holds at every instant (:meth:`check_accounting`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.recover.configio import decode_into, encode
from repro.serve.request import FrameRequest


@dataclass(init=False, eq=False)
class DynamicBatcher:
    """FIFO queue with a size-or-timeout batch-formation policy.

    Its dataclass fields are the conservation counters and the armed
    window it checkpoints; the queue is checkpointed beside them, frame
    by frame.
    """

    admitted_total: int
    requeued_total: int
    taken_total: int
    #: The deadline :meth:`arm_window` last handed out (spent once due).
    window_armed_s: "float | None"

    def __init__(self, max_batch: int, window_s: float = 0.0):
        if max_batch <= 0:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        self.max_batch = max_batch
        self.window_s = window_s
        self._queue: deque[FrameRequest] = deque()
        self.admitted_total = 0
        self.requeued_total = 0
        self.taken_total = 0
        self.window_armed_s = None

    def __len__(self) -> int:
        return len(self._queue)

    def enqueue(self, request: FrameRequest) -> None:
        """Admit one fresh request at the back of the queue."""
        self._queue.append(request)
        self.admitted_total += 1

    def requeue(self, requests: list[FrameRequest]) -> None:
        """Re-admit frames from a failed batch (never silently dropped).

        Requeued frames rejoin at the back — their original arrival times
        are old, so the window rule makes them dispatchable immediately;
        FIFO order among the retried frames is preserved.
        """
        for request in requests:
            self._queue.append(request)
        self.requeued_total += len(requests)

    def ready(self, now: float) -> bool:
        """Should a free worker dispatch right now?"""
        if not self._queue:
            return False
        if len(self._queue) >= self.max_batch:
            return True
        # Same expression as next_deadline_s(): a window event scheduled
        # at exactly the expiry must see ready() agree despite float
        # rounding (now - arrival >= window can be false at the boundary).
        return now >= self._queue[0].arrival_s + self.window_s

    def next_deadline_s(self) -> "float | None":
        """When the pending batch must dispatch even if it stays small
        (the oldest request's window expiry); None when the queue is empty."""
        if not self._queue:
            return None
        return self._queue[0].arrival_s + self.window_s

    def arm_window(self, now: float) -> "float | None":
        """The deadline to arm a window event at, or None: the queue's
        :meth:`next_deadline_s` while it is still ahead of ``now`` and
        not the one armed last.  A passed deadline needs no window (the
        queue is then ready and only a worker is missing), and an armed
        one is not yet fired."""
        deadline = self.next_deadline_s()
        if deadline is None or deadline <= now or deadline == self.window_armed_s:
            return None
        self.window_armed_s = deadline
        return deadline

    def take(self) -> list[FrameRequest]:
        """Pop the next batch (up to ``max_batch`` requests, FIFO)."""
        batch = []
        while self._queue and len(batch) < self.max_batch:
            batch.append(self._queue.popleft())
        self.taken_total += len(batch)
        return batch

    def extract_session(self, session_id: int) -> list[FrameRequest]:
        """Remove one session's queued frames (live migration / failover).

        Extracted frames count as taken — like :meth:`drain`, the caller
        assumes responsibility for them (requeueing on the destination
        shard, or recording them lost with the dead one) and
        :meth:`check_accounting` stays closed.  FIFO order among the
        remaining and the extracted frames is preserved.
        """
        extracted = [r for r in self._queue if r.session_id == session_id]
        if extracted:
            self._queue = deque(
                r for r in self._queue if r.session_id != session_id
            )
            self.taken_total += len(extracted)
        return extracted

    def drain(self) -> list[FrameRequest]:
        """Remove and return everything still pending (end-of-run flush).

        Drained frames count as taken so :meth:`check_accounting` stays
        closed; the caller is responsible for recording them.
        """
        leftovers = list(self._queue)
        self._queue.clear()
        self.taken_total += len(leftovers)
        return leftovers

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.recover)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-safe snapshot of the queue and conservation counters."""
        return {**encode(self), "queue": [r.to_dict() for r in self._queue]}

    def load_state(self, state: dict, path: str = "") -> None:
        """Restore a :meth:`state_dict` snapshot (FIFO order preserved)."""
        counters = dict(state)
        self._queue = deque(map(FrameRequest.from_dict, counters.pop("queue")))
        decode_into(self, counters, path)

    def check_accounting(self) -> None:
        """Assert the conservation invariant; raises on a leak."""
        entered = self.admitted_total + self.requeued_total
        if entered != self.taken_total + len(self._queue):
            raise RuntimeError(
                f"batcher leak: {entered} entered but "
                f"{self.taken_total} taken + {len(self._queue)} pending"
            )
