"""Configuration of one sharded fleet simulation.

A :class:`FleetConfig` wraps the single-runtime :class:`ServeConfig` as
a *template*: ``serve.n_sessions`` is the **fleet-total** session count
(sessions are placed on shards by the consistent-hash ring), while the
worker-pool and batching knobs (``n_workers``, ``max_batch``, ...) apply
**per shard** — four shards of two workers serve with eight workers
total.  On top of the template sit the fleet-only knobs:

* **topology** — initial shard count and the ring's virtual-node count
  and seed;
* **chaos** — a :class:`~repro.faults.netfaults.ShardKill` schedule
  (whole-shard failures with bounded frame loss) and a live-migration
  plan (explicit :class:`SessionMigration` entries plus a seeded
  Poisson-ish rate);
* **failover policy** — the circuit breaker guarding re-admission of
  re-homed sessions;
* **rebalancer** — the hysteretic P95-queue-wait autoscaler
  (shard spawn / drain), disabled by default;
* **net** — the simulated lossy router<->shard transport
  (:class:`~repro.serve.fleet.transport.NetConfig`): seeded drop /
  duplicate / delay distributions, partition and gray-slow windows,
  ack/retransmit protocol knobs, and the heartbeat failure detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.faults.netfaults import ShardKill
from repro.serve.config import ServeConfig
from repro.serve.fleet.transport import NetConfig
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class SessionMigration:
    """One planned live migration: move ``session_id`` at ``at_s``.

    ``to_shard=None`` lets the ring choose (the session lands where it
    would live if its current shard left the ring); an explicit target
    pins the destination.
    """

    at_s: float
    session_id: int
    to_shard: "int | None" = None

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"at_s must be non-negative, got {self.at_s}")
        if self.session_id < 0:
            raise ValueError(
                f"session_id must be non-negative, got {self.session_id}"
            )


@dataclass(frozen=True)
class FailoverConfig:
    """Circuit breaker guarding re-admission of re-homed sessions.

    For ``guard_s`` after a session re-homes, its predict frames pass
    through a per-shard breaker: ``breaker_threshold`` consecutive
    admission rejections open it, and while open every guarded frame is
    degraded to the buffered gaze immediately — a dead shard's refugees
    must not stampede a surviving shard's queue.  After
    ``breaker_cooldown_s`` one probe frame tests the queue again.
    """

    breaker_threshold: int = 4
    breaker_cooldown_s: float = 0.05
    guard_s: float = 0.25

    def __post_init__(self) -> None:
        check_positive("breaker_threshold", self.breaker_threshold)
        check_positive("breaker_cooldown_s", self.breaker_cooldown_s)
        check_positive("guard_s", self.guard_s, strict=False)


@dataclass(frozen=True)
class RebalancerConfig:
    """Hysteretic queue-wait autoscaler (``interval_s=0`` disables it).

    Every ``interval_s`` the fleet reads each shard's windowed P95
    batcher wait.  A shard above ``p95_high_s`` is *hot*: the rebalancer
    spawns a fresh shard (up to ``max_shards``) and drains
    ``sessions_per_move`` sessions onto it via live migration.  When
    every shard sits below ``p95_low_s`` (the hysteresis band) and a
    spawned shard exists beyond ``min_shards``, the emptiest spawned
    shard is drained back and retired.  ``cooldown_s`` spaces actions so
    a borderline fleet does not flap.
    """

    interval_s: float = 0.0
    p95_high_s: float = 8.0e-3
    p95_low_s: float = 2.0e-3
    cooldown_s: float = 0.2
    sessions_per_move: int = 4
    min_shards: int = 1
    max_shards: int = 16

    def __post_init__(self) -> None:
        check_positive("interval_s", self.interval_s, strict=False)
        check_positive("p95_high_s", self.p95_high_s)
        check_positive("p95_low_s", self.p95_low_s)
        check_positive("cooldown_s", self.cooldown_s, strict=False)
        check_positive("sessions_per_move", self.sessions_per_move)
        check_positive("min_shards", self.min_shards)
        check_positive("max_shards", self.max_shards)
        if self.p95_low_s >= self.p95_high_s:
            raise ValueError(
                f"hysteresis band requires p95_low_s < p95_high_s, got "
                f"{self.p95_low_s} >= {self.p95_high_s}"
            )
        if self.min_shards > self.max_shards:
            raise ValueError(
                f"min_shards {self.min_shards} > max_shards {self.max_shards}"
            )

    @property
    def enabled(self) -> bool:
        return self.interval_s > 0


@dataclass(frozen=True)
class FleetConfig:
    """Knobs of one sharded fleet simulation."""

    serve: ServeConfig = field(default_factory=ServeConfig)
    n_shards: int = 4
    vnodes: int = 64
    ring_seed: int = 0
    kills: tuple[ShardKill, ...] = ()
    migrations: tuple[SessionMigration, ...] = ()
    migration_rate_hz: float = 0.0
    migration_seed: int = 0
    failover: FailoverConfig = field(default_factory=FailoverConfig)
    rebalancer: RebalancerConfig = field(default_factory=RebalancerConfig)
    net: NetConfig = field(default_factory=NetConfig)

    def __post_init__(self) -> None:
        check_positive("n_shards", self.n_shards)
        check_positive("vnodes", self.vnodes)
        check_positive("migration_rate_hz", self.migration_rate_hz, strict=False)
        killed = [k.shard_id for k in self.kills]
        if len(set(killed)) != len(killed):
            raise ValueError(f"duplicate shard ids in kill schedule: {killed}")
        for kill in self.kills:
            if kill.shard_id >= self.n_shards:
                raise ValueError(
                    f"kill targets shard {kill.shard_id} but the fleet "
                    f"starts with {self.n_shards} shards"
                )
        if len(self.kills) >= self.n_shards:
            raise ValueError(
                f"kill schedule ({len(self.kills)} kills) would leave no "
                f"initial shard alive out of {self.n_shards}"
            )
        for migration in self.migrations:
            if migration.session_id >= self.serve.n_sessions:
                raise ValueError(
                    f"migration targets session {migration.session_id} but "
                    f"the fleet has {self.serve.n_sessions} sessions"
                )
        if self.net.enabled:
            if self.rebalancer.enabled:
                raise ValueError(
                    "the net transport does not compose with the "
                    "rebalancer: heartbeats are scheduled for the initial "
                    "topology only, so a spawned shard would be suspected "
                    "instantly"
                )
            if self.migrations or self.migration_rate_hz > 0:
                raise ValueError(
                    "the net transport does not compose with live "
                    "migration: under --net, session movement is driven "
                    "exclusively by the failure detector (suspect re-home "
                    "and heal bounce-back)"
                )
            for window in self.net.partitions:
                for shard_id in window.shard_ids:
                    if shard_id >= self.n_shards:
                        raise ValueError(
                            f"partition window names shard {shard_id} but "
                            f"the fleet starts with {self.n_shards} shards"
                        )
            for window in self.net.gray:
                if window.shard_id >= self.n_shards:
                    raise ValueError(
                        f"gray-slow window names shard {window.shard_id} "
                        f"but the fleet starts with {self.n_shards} shards"
                    )

    @property
    def n_sessions(self) -> int:
        """Fleet-total session count (the template's ``n_sessions``)."""
        return self.serve.n_sessions


def planned_migrations(config: FleetConfig) -> list[SessionMigration]:
    """The complete, deterministic migration plan of one run.

    Explicit entries plus ``migration_rate_hz`` stochastic ones: the
    rate draws ``round(rate * duration)`` migration instants uniformly
    over the run and ring-routed victim sessions, all from one
    generator seeded by ``migration_seed`` — the same config always
    yields the same plan.  Sorted by (time, session) so the fleet's
    control events enqueue in one canonical order.
    """
    plan = list(config.migrations)
    n_random = int(round(config.migration_rate_hz * config.serve.duration_s))
    if n_random > 0:
        rng = np.random.default_rng(config.migration_seed * 9176 + 1)
        times = np.sort(rng.uniform(0.0, config.serve.duration_s, size=n_random))
        victims = rng.integers(0, config.serve.n_sessions, size=n_random)
        plan.extend(
            SessionMigration(at_s=float(t), session_id=int(s))
            for t, s in zip(times, victims)
        )
    plan.sort(key=lambda m: (m.at_s, m.session_id))
    return plan


def rebalance_ticks(config: FleetConfig) -> list[float]:
    """Rebalancer evaluation instants (empty when disabled)."""
    rebalancer = config.rebalancer
    if not rebalancer.enabled:
        return []
    n_ticks = int(math.floor(config.serve.duration_s / rebalancer.interval_s))
    return [rebalancer.interval_s * (i + 1) for i in range(n_ticks)]
