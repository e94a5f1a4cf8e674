"""A checkpoint payload this build cannot read is refused by field path.

The payload below passes its CRC, so it is not corruption: it was
written by a build whose format differs.  Restoring must neither coerce
a mistyped value (``bool("false")`` is True) nor fall back to an older
checkpoint; it raises :class:`RecoveryError` naming the field.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.faults import ProcessKill, SimulatedCrash
from repro.recover import RecoveryError, canonical_bytes
from repro.recover.codec import crc32
from repro.recover.kinds import build_runtime, resolve_run_config
from repro.recover.manager import restore_runtime, run_with_checkpoints

#: ``chaos --sessions 12 --duration 1 --seed 7``: checkpoint 150 holds
#: worker 0's OPEN breaker.
CI = {"seed": 7, "serve": {"n_sessions": 12, "duration_s": 1.0}}
#: A committed format-10 ``--net`` fleet checkpoint taken at event 810.
FROZEN = Path(__file__).parent / "data" / "net-midpartition-format10"


def rewrite_payload(manifest_path: Path, payload_path: Path, tamper) -> None:
    """Apply ``tamper`` to the payload and reseal it: a valid CRC."""
    state = json.loads(payload_path.read_bytes())
    tamper(state)
    payload = canonical_bytes(state)
    payload_path.write_bytes(payload)
    manifest = json.loads(manifest_path.read_bytes())
    manifest.update(payload_crc32=crc32(payload), payload_bytes=len(payload))
    manifest_path.write_bytes(canonical_bytes(manifest))


def breaker_probe(state: dict) -> None:
    state["pool"]["breakers"][0]["probe_in_flight"] = "false"


def worker_busy_s(state: dict) -> None:
    state["pool"]["workers"][0]["busy_s"] = "0.5"


def no_batcher(state: dict) -> None:
    del state["batcher"]


@pytest.mark.parametrize(
    "tamper, message",
    [
        (breaker_probe, r"pool\.breakers\[0\]\.probe_in_flight must be bool"),
        (worker_busy_s, r"pool\.workers\[0\]\.busy_s must be float"),
        (no_batcher, r"batcher is missing"),
    ],
)
def test_mistyped_payload_is_refused_with_its_field_path(tmp_path, tamper, message):
    with pytest.raises(SimulatedCrash):
        run_with_checkpoints(
            build_runtime(resolve_run_config("chaos", CI)), tmp_path, every=25,
            kill=ProcessKill(at_event=170),
        )
    rewrite_payload(
        tmp_path / "ckpt-000000150.manifest.json",
        tmp_path / "ckpt-000000150.state.json",
        tamper,
    )
    with pytest.raises(RecoveryError, match=message) as refused:
        restore_runtime(tmp_path)
    assert "ckpt-000000150" in str(refused.value)


def shard_batcher_missing(state: dict) -> None:
    del state["shards"][1]["state"]["batcher"]


def shard_admitted_mistyped(state: dict) -> None:
    state["shards"][1]["state"]["batcher"]["admitted_total"] = "5"


def shard_section_missing(state: dict) -> None:
    del state["shards"][1]["state"]["shard"]


def transport_missing(state: dict) -> None:
    del state["net"]["transport"]


@pytest.mark.parametrize(
    "tamper, message",
    [
        (shard_batcher_missing, r": shards\[1\]\.state\.batcher is missing$"),
        (shard_admitted_mistyped, r"shards\[1\]\.state\.batcher\.admitted_total must be int"),
        (shard_section_missing, r": shards\[1\]\.state\.shard is missing$"),
        (transport_missing, r": net\.transport is missing$"),
    ],
)
def test_fleet_shard_payload_is_refused_with_its_place_in_the_fleet(
    tmp_path, tamper, message
):
    directory = tmp_path / "ckpt"
    shutil.copytree(FROZEN, directory)
    rewrite_payload(
        directory / "ckpt-000000810.manifest.json",
        directory / "ckpt-000000810.state.json",
        tamper,
    )
    with pytest.raises(RecoveryError, match=message):
        restore_runtime(directory)
