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
from dataclasses import dataclass

from repro.recover.configio import decode, encode
from repro.utils.validation import check_positive


class BreakerState(enum.Enum):
    CLOSED = "CLOSED"
    OPEN = "OPEN"
    HALF_OPEN = "HALF_OPEN"


@dataclass
class CircuitState:
    """What a breaker checkpoints (everything but its two knobs)."""

    state: BreakerState
    consecutive_failures: int
    open_until_s: float
    probe_in_flight: bool
    #: ``(time_s, from_state, to_state)`` per transition.
    transitions: list[tuple[float, str, str]]


class CircuitBreaker:
    """Failure-counting breaker for one worker."""

    def __init__(self, failure_threshold: int = 3, cooldown_s: float = 0.25):
        self.failure_threshold = int(
            check_positive("failure_threshold", failure_threshold)
        )
        self.cooldown_s = check_positive("cooldown_s", cooldown_s)
        self.circuit = CircuitState(BreakerState.CLOSED, 0, 0.0, False, [])

    @property
    def transitions(self) -> "list[tuple[float, str, str]]":
        return self.circuit.transitions

    # ------------------------------------------------------------------
    def state(self, now: float) -> BreakerState:
        """Current state, observing cooldown expiry lazily."""
        circuit = self.circuit
        if circuit.state is BreakerState.OPEN and now >= circuit.open_until_s:
            self._transition(circuit.open_until_s, BreakerState.HALF_OPEN)
        return circuit.state

    def allow(self, now: float) -> bool:
        """May a batch be dispatched to this worker right now?"""
        state = self.state(now)
        if state is BreakerState.CLOSED:
            return True
        if state is BreakerState.HALF_OPEN:
            return not self.circuit.probe_in_flight
        return False

    def note_dispatch(self, now: float) -> None:
        """A batch was actually dispatched (marks the half-open probe)."""
        if self.state(now) is BreakerState.HALF_OPEN:
            self.circuit.probe_in_flight = True

    # ------------------------------------------------------------------
    def record_success(self, now: float) -> None:
        circuit = self.circuit
        circuit.consecutive_failures = 0
        circuit.probe_in_flight = False
        if self.state(now) is BreakerState.HALF_OPEN:
            self._transition(now, BreakerState.CLOSED)

    def record_failure(self, now: float) -> None:
        state = self.state(now)
        circuit = self.circuit
        circuit.probe_in_flight = False
        if state is BreakerState.HALF_OPEN:
            self._open(now)
            return
        circuit.consecutive_failures += 1
        if (
            state is BreakerState.CLOSED
            and circuit.consecutive_failures >= self.failure_threshold
        ):
            self._open(now)

    # ------------------------------------------------------------------
    def _open(self, now: float) -> None:
        self.circuit.consecutive_failures = 0
        self.circuit.open_until_s = now + self.cooldown_s
        self._transition(now, BreakerState.OPEN)

    def _transition(self, now: float, to: BreakerState) -> None:
        circuit = self.circuit
        circuit.transitions.append((now, circuit.state.value, to.value))
        circuit.state = to

    @property
    def reopen_s(self) -> "float | None":
        """When an OPEN breaker re-admits its worker (None otherwise)."""
        circuit = self.circuit
        return circuit.open_until_s if circuit.state is BreakerState.OPEN else None

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.recover)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return encode(self.circuit)

    def load_state(self, state: dict, path: str = "") -> None:
        self.circuit = decode(CircuitState, state, path)
