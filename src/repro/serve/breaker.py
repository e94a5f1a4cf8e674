"""Circuit breaker.

Standard three-state breaker driving worker eviction/re-admission in the
faulty worker pool (and re-home admission on a fleet shard):

* ``CLOSED`` — worker serves normally; consecutive failures are counted.
* ``OPEN`` — after ``failure_threshold`` consecutive failures the worker
  is evicted from dispatch for ``cooldown_s`` (a flapping worker must not
  keep eating batches that healthy workers could serve).
* ``HALF_OPEN`` — cooldown elapsed: exactly one probe batch is allowed.
  Success closes the breaker; failure re-opens it for another cooldown.

The breaker is driven by the deterministic event loop, so its transition
log (consumed by the fault telemetry) is bit-reproducible.
"""

from __future__ import annotations

import enum

from repro.utils.validation import check_positive


class BreakerState(enum.Enum):
    CLOSED = "CLOSED"
    OPEN = "OPEN"
    HALF_OPEN = "HALF_OPEN"


class CircuitBreaker:
    """Failure-counting breaker for one worker."""

    def __init__(self, failure_threshold: int = 3, cooldown_s: float = 0.25):
        self.failure_threshold = int(
            check_positive("failure_threshold", failure_threshold)
        )
        self.cooldown_s = check_positive("cooldown_s", cooldown_s)
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._open_until_s = 0.0
        self._probe_in_flight = False
        self.transitions: list[tuple[float, str, str]] = []

    # ------------------------------------------------------------------
    def state(self, now: float) -> BreakerState:
        """Current state, observing cooldown expiry lazily."""
        if self._state is BreakerState.OPEN and now >= self._open_until_s:
            self._transition(self._open_until_s, BreakerState.HALF_OPEN)
        return self._state

    def allow(self, now: float) -> bool:
        """May a batch be dispatched to this worker right now?"""
        state = self.state(now)
        if state is BreakerState.CLOSED:
            return True
        if state is BreakerState.HALF_OPEN:
            return not self._probe_in_flight
        return False

    def note_dispatch(self, now: float) -> None:
        """A batch was actually dispatched (marks the half-open probe)."""
        if self.state(now) is BreakerState.HALF_OPEN:
            self._probe_in_flight = True

    # ------------------------------------------------------------------
    def record_success(self, now: float) -> None:
        self._consecutive_failures = 0
        self._probe_in_flight = False
        if self.state(now) is BreakerState.HALF_OPEN:
            self._transition(now, BreakerState.CLOSED)

    def record_failure(self, now: float) -> None:
        state = self.state(now)
        self._probe_in_flight = False
        if state is BreakerState.HALF_OPEN:
            self._open(now)
            return
        self._consecutive_failures += 1
        if (
            state is BreakerState.CLOSED
            and self._consecutive_failures >= self.failure_threshold
        ):
            self._open(now)

    # ------------------------------------------------------------------
    def _open(self, now: float) -> None:
        self._consecutive_failures = 0
        self._open_until_s = now + self.cooldown_s
        self._transition(now, BreakerState.OPEN)

    def _transition(self, now: float, to: BreakerState) -> None:
        self.transitions.append((now, self._state.value, to.value))
        self._state = to

    @property
    def reopen_s(self) -> "float | None":
        """When an OPEN breaker re-admits its worker (None otherwise)."""
        return self._open_until_s if self._state is BreakerState.OPEN else None

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.recover)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "state": self._state.value,
            "consecutive_failures": self._consecutive_failures,
            "open_until_s": self._open_until_s,
            "probe_in_flight": self._probe_in_flight,
            "transitions": [list(t) for t in self.transitions],
        }

    def load_state(self, state: dict) -> None:
        self._state = BreakerState(state["state"])
        self._consecutive_failures = int(state["consecutive_failures"])
        self._open_until_s = float(state["open_until_s"])
        self._probe_in_flight = bool(state["probe_in_flight"])
        self.transitions = [
            (float(t), str(src), str(dst)) for t, src, dst in state["transitions"]
        ]
