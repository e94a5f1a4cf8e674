"""The canonical bytes of encoded configs are pinned.

A config's canonical JSON is its run identity (campaign ledger keys,
``obs-out/<kind>-<hash>`` names) and the ``config`` of every checkpoint
manifest, so a codec refactor must leave these bytes alone.  Each
digest is the sha256 of ``canonical_bytes`` of the dict a live runtime
records in its manifest (``runtime_config_dict``) or that run
resolution emits (``resolve_run_config``).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.faults.config import default_chaos_scenario
from repro.faults.netfaults import GraySlow, LinkProfile, PartitionWindow, ShardKill
from repro.faults.runtime import chaos_runtime
from repro.recover import CheckpointStore, canonical_bytes
from repro.recover.kinds import resolve_run_config, runtime_config_dict
from repro.recover.manager import run_with_checkpoints
from repro.reliability import cli as sdc_cli
from repro.serve.config import ServeConfig
from repro.serve.fleet import FleetConfig, FleetRuntime
from repro.serve.fleet.config import SessionMigration
from repro.serve.fleet.transport import NetConfig


def net_fleet() -> FleetConfig:
    """A ``--net`` fleet with a kill, a partition and a gray window."""
    return FleetConfig(
        serve=ServeConfig(n_sessions=8, duration_s=0.3, n_workers=1, seed=3),
        n_shards=3,
        kills=(ShardKill(shard_id=2, at_s=0.2),),
        net=NetConfig(
            enabled=True, seed=4,
            link=LinkProfile(drop_rate=0.1, dup_rate=0.05, jitter_s=1e-3),
            partitions=(PartitionWindow(start_s=0.05, stop_s=0.15, shard_ids=(1,)),),
            gray=(GraySlow(shard_id=0, start_s=0.1, stop_s=0.2, delay_factor=10.0),),
            ack_timeout_s=4e-3, max_retransmits=8, on_exhaust="drop",
        ),
    )


def migrating_fleet() -> FleetConfig:
    return FleetConfig(
        serve=ServeConfig(n_sessions=6, duration_s=0.2),
        n_shards=2,
        migrations=(
            SessionMigration(at_s=0.05, session_id=3),
            SessionMigration(at_s=0.1, session_id=1, to_shard=0),
        ),
        migration_rate_hz=2.0,
        migration_seed=5,
    )


def _digest(state: dict) -> str:
    return hashlib.sha256(canonical_bytes(state)).hexdigest()


#: sample -> sha256 of the canonical bytes of its encoded config.
DIGESTS = {
    "chaos-0": (
        "1bfb41a2e03192f64972d685d36c53de"
        "6225f54a7d0dbb26c25395b31d03c0cd"
    ),
    "chaos-1": (
        "743c59377c913a74b2520026e570f817"
        "9296ec4f44218ec516848d5a0d58cef6"
    ),
    "chaos-2": (
        "c20e663865f2eb4e5840df98dc17f85a"
        "ef042baa42de24d42a80562e32b3c6f8"
    ),
    "fleet-net": (
        "74da891770c456437dc5120147072da5"
        "371c841e5433a79a3b6324f3950a2850"
    ),
    "fleet-migrating": (
        "6075bfda421e0823fbe71856dc0acd0f"
        "b8ee9f48b603f8cc60bee81deb8f497e"
    ),
    "fleet-default": (
        "ae239b6ab3e629b70d4595131100b739"
        "c3da15a468cae93641a2a86a5515e598"
    ),
    "sdc-default": (
        "b750000ce49ebcdeb277a6105099dbb1"
        "5b72b1613782340f70de19c60f69f924"
    ),
    "serve-default": (
        "f41ef2cf5b2300fc519a30b977e32d85"
        "a1d5d1a3d00603c550f9328db0e3913b"
    ),
    "service-default": (
        "72e2288774f048aecf49afc1d0d90b96"
        "6da7f58c7753fc566bee4700c534d15d"
    ),
}


def _encoded(sample: str) -> dict:
    if sample.startswith("chaos-"):
        seed = int(sample.removeprefix("chaos-"))
        return runtime_config_dict(chaos_runtime(default_chaos_scenario(seed=seed)))
    if sample == "fleet-net":
        return runtime_config_dict(FleetRuntime(net_fleet()))
    if sample == "fleet-migrating":
        return runtime_config_dict(FleetRuntime(migrating_fleet()))
    if sample == "fleet-default":
        return resolve_run_config("fleet", {})["config"]
    if sample == "sdc-default":
        return sdc_cli.resolve_run_config({})["config"]
    if sample == "serve-default":
        return resolve_run_config("serve", {})["config"]
    assert sample == "service-default"
    return resolve_run_config("serve", {})["service"]


@pytest.mark.parametrize("sample", sorted(DIGESTS))
def test_encoded_config_bytes_are_pinned(sample):
    assert _digest(_encoded(sample)) == DIGESTS[sample]


def test_net_fleet_manifest_config_is_pinned(tmp_path):
    run_with_checkpoints(FleetRuntime(net_fleet()), tmp_path, every=200)
    checkpoint, skipped = CheckpointStore(tmp_path).latest_valid()
    assert skipped == []
    assert _digest(checkpoint.config) == DIGESTS["fleet-net"]
