"""The benchmark fleets' reports are pinned bit for bit.

The three fleet workloads of ``perf/workloads.py`` are rebuilt here at
seed 0 from their parameters: the fleet's event order, its session
synthesis and its serving model may change how fast a report is made,
never its bytes.  Each pin is the first 16 hex digits of the sha256 of
``fleet_report_bytes(report)``, the digest ``perf/run.py`` checks.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.faults.injectors import ShardKill
from repro.faults.netfaults import LinkProfile, PartitionWindow
from repro.recover.codec import fleet_report_bytes
from repro.serve.config import ServeConfig
from repro.serve.fleet.config import FleetConfig
from repro.serve.fleet.runtime import FleetRuntime
from repro.serve.fleet.transport import NetConfig

SEED = 0


def fleet(
    n_sessions: int,
    n_shards: int,
    kill_shard: int,
    kill_at_s: float,
    duration_s: float = 1.5,
    reuse_displacement_deg: float = 1.0,
    queue_budget_deadlines: float = 2.0,
    net: bool = False,
) -> FleetConfig:
    """One benchmark fleet: two workers a shard, one shard killed."""
    return FleetConfig(
        serve=ServeConfig(
            n_sessions=n_sessions,
            duration_s=duration_s,
            n_workers=2,
            reuse_displacement_deg=reuse_displacement_deg,
            queue_budget_deadlines=queue_budget_deadlines,
            seed=SEED,
        ),
        n_shards=n_shards,
        kills=(ShardKill(shard_id=kill_shard, at_s=kill_at_s),),
        net=(
            NetConfig(
                enabled=True,
                seed=SEED + 1,
                link=LinkProfile(
                    drop_rate=0.05, dup_rate=0.05, delay_s=5e-4, jitter_s=1e-3
                ),
                partitions=(
                    PartitionWindow(start_s=0.8, stop_s=1.0, shard_ids=(1,)),
                ),
                ack_timeout_s=4e-3,
                max_retransmits=8,
            )
            if net
            else NetConfig()
        ),
    )


FLEETS = {
    "fleet_bypass": (
        lambda: fleet(1000, 4, kill_shard=2, kill_at_s=0.75),
        "1a5934b7c9719600",
    ),
    "fleet_predict": (
        lambda: fleet(
            800, 16, kill_shard=2, kill_at_s=0.75,
            reuse_displacement_deg=0.05, queue_budget_deadlines=0.8,
        ),
        "8ba147bbcb9bd54e",
    ),
    "fleet_net": (
        lambda: fleet(
            320, 4, kill_shard=3, kill_at_s=2.0, duration_s=3.0, net=True
        ),
        "6a0a51b3354928d8",
    ),
}


@pytest.mark.parametrize("name", sorted(FLEETS))
def test_benchmark_fleet_report_is_pinned(name):
    build, digest = FLEETS[name]
    report = FleetRuntime(build()).run()
    assert hashlib.sha256(fleet_report_bytes(report)).hexdigest()[:16] == digest
