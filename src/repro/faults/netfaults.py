"""Fault schedules of the sharded fleet: shard kills and network faults.

:class:`ShardKill` fails a whole shard.  The fleet's router and shards
exchange messages over the deterministic channel in
:mod:`repro.serve.fleet.transport`; the other classes are the *fault
shapes* that channel can apply, declared here (with the other chaos
schedules) so the fleet config composes them like every other injector.
The module imports only ``repro.utils``, so ``repro.serve.fleet`` can
use it without importing the chaos runtime:

* :class:`LinkProfile` — per-message drop/duplicate probabilities and a
  base-plus-jitter one-way delay (jitter alone is enough to reorder
  deliveries).
* :class:`PartitionWindow` — a set of shards cut off from the router in
  both directions for ``[start_s, stop_s)``, then healed.  The topology
  is hub-and-spoke (router <-> shard links only), so "splitting the ring
  into groups" means disconnecting the named shards from the hub.
* :class:`GraySlow` — a gray failure: the shard stays alive and correct
  but its links run ``delay_factor`` slower for a window, which is what
  trips false suspicions in the failure detector.

Like every injector in this package, the schedules are pure data: the
transport derives all randomness from hashed ``(seed, link, seq,
attempt)`` keys, so there is no RNG state to checkpoint and a run is
reproducible from the config alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import check_positive, check_probability


@dataclass(frozen=True)
class ShardKill:
    """Kill one shard of a sharded fleet at an exact simulated instant.

    The fault domain is a whole shard runtime — its batcher queue and
    every frame in flight on its workers die with it; sessions re-home
    to the surviving shards via the consistent-hash ring
    (``repro.serve.fleet``).  Firing on the simulation clock (not an
    event index) models an external failure: the kill lands between
    events at time ``at_s`` regardless of how busy the shard was.
    """

    shard_id: int
    at_s: float

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ValueError(
                f"shard_id must be non-negative, got {self.shard_id}"
            )
        if self.at_s < 0:
            raise ValueError(f"at_s must be non-negative, got {self.at_s}")


@dataclass(frozen=True)
class LinkProfile:
    """Per-link message fault distribution (applies to every link)."""

    #: Probability one transmitted copy (data or ack) is dropped.
    drop_rate: float = 0.0
    #: Probability a delivered data message gains a duplicate copy.
    dup_rate: float = 0.0
    #: Base one-way delay in seconds.
    delay_s: float = 5e-4
    #: Uniform extra delay in ``[0, jitter_s)`` — the reordering source.
    jitter_s: float = 0.0

    def __post_init__(self) -> None:
        check_probability("drop_rate", self.drop_rate)
        check_probability("dup_rate", self.dup_rate)
        check_positive("delay_s", self.delay_s, strict=False)
        check_positive("jitter_s", self.jitter_s, strict=False)


@dataclass(frozen=True)
class PartitionWindow:
    """Shards disconnected from the router for ``[start_s, stop_s)``."""

    start_s: float
    stop_s: float
    shard_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        check_positive("start_s", self.start_s, strict=False)
        if self.stop_s <= self.start_s:
            raise ValueError(
                f"partition window needs stop_s > start_s, got "
                f"[{self.start_s}, {self.stop_s})"
            )
        if not self.shard_ids:
            raise ValueError("partition window names no shards")
        if any(int(s) < 0 for s in self.shard_ids):
            raise ValueError(
                f"shard ids must be non-negative, got {self.shard_ids}"
            )

    def covers(self, shard_id: int, t: float) -> bool:
        return shard_id in self.shard_ids and self.start_s <= t < self.stop_s


@dataclass(frozen=True)
class GraySlow:
    """A gray failure: shard ``shard_id`` is alive but its links run
    ``delay_factor`` slower for ``[start_s, stop_s)``."""

    shard_id: int
    start_s: float
    stop_s: float
    delay_factor: float = 25.0

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ValueError(
                f"shard_id must be non-negative, got {self.shard_id}"
            )
        check_positive("start_s", self.start_s, strict=False)
        if self.stop_s <= self.start_s:
            raise ValueError(
                f"gray window needs stop_s > start_s, got "
                f"[{self.start_s}, {self.stop_s})"
            )
        if self.delay_factor < 1.0:
            raise ValueError(
                f"delay_factor must be >= 1, got {self.delay_factor}"
            )

    def covers(self, shard_id: int, t: float) -> bool:
        return shard_id == self.shard_id and self.start_s <= t < self.stop_s
