"""Sharded serving fleet: consistent-hash routing, live session
migration, and shard failover under chaos.

The package scales the single :class:`~repro.serve.runtime.ServeRuntime`
event loop out to N shards behind a seeded consistent-hash ring while
keeping the repo's two core guarantees intact:

* **determinism** — one merged global event order (control events, then
  shards by id) makes two same-config runs byte-identical, and the full
  ``repro.recover`` checkpoint/journal protocol applies to the whole
  fleet (``RUNTIME_KIND = "fleet"``).
* **conservation** — every generated frame ends in exactly one ledger
  bucket fleet-wide; a shard kill loses *only* the frames physically on
  the shard at the kill instant (queued or in flight), recorded
  ``lost_shard``, never silently.
"""

from repro.faults.netfaults import GraySlow, LinkProfile, PartitionWindow, ShardKill
from repro.serve.fleet.config import (
    FailoverConfig,
    FleetConfig,
    RebalancerConfig,
    SessionMigration,
    planned_migrations,
    rebalance_ticks,
)
from repro.serve.fleet.report import FleetLog, FleetSection, NetSection
from repro.serve.fleet.ring import HashRing
from repro.serve.fleet.runtime import FleetRuntime, run_fleet
from repro.serve.fleet.shard import MigrationPayload, ShardRuntime
from repro.serve.fleet.transport import FleetTransport, NetConfig

__all__ = [
    "FailoverConfig",
    "FleetConfig",
    "FleetLog",
    "FleetRuntime",
    "FleetSection",
    "FleetTransport",
    "GraySlow",
    "HashRing",
    "LinkProfile",
    "MigrationPayload",
    "NetConfig",
    "NetSection",
    "PartitionWindow",
    "RebalancerConfig",
    "SessionMigration",
    "ShardKill",
    "ShardRuntime",
    "planned_migrations",
    "rebalance_ticks",
    "run_fleet",
]
