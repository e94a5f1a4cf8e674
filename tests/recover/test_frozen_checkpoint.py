"""A format-8 checkpoint written by an earlier build still restores.

``data/net-midpartition-format8`` holds one ``--net`` fleet checkpoint
(8 sessions x 0.4 s over 3 shards, drops, duplicates and
``on_exhaust="drop"``) taken at event 800, t = 0.199 s: shard 1 sits
inside its 0.10-0.25 s partition, is suspected, one session is
displaced and envelopes are pending.  The journal holds the 150 events
after it, up to a kill at event 950.  The files are committed as that
build wrote them; this build must restore them, replay the journal and
finish with the report of an uninterrupted run, byte for byte.  A change
to how snapshots are written or read that forks the format fails here.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.recover import fleet_report_bytes
from repro.recover.checkpoint import CHECKPOINT_FORMAT_VERSION
from repro.recover.kinds import build_runtime
from repro.recover.manager import restore_runtime, resume

FROZEN = Path(__file__).parent / "data" / "net-midpartition-format8"


def test_frozen_checkpoint_is_a_mid_partition_format_8_net_fleet():
    manifest = json.loads((FROZEN / "ckpt-000000800.manifest.json").read_bytes())
    assert manifest["format_version"] == CHECKPOINT_FORMAT_VERSION == 8
    assert manifest["kind"] == "fleet"
    (partition,) = manifest["config"]["net"]["partitions"]
    state = json.loads((FROZEN / "ckpt-000000800.state.json").read_bytes())
    transport = state["net"]["transport"]
    assert transport["suspected"] == partition["shard_ids"] == [1]
    assert transport["displaced"] and transport["pending"]


def test_frozen_checkpoint_restores_replays_and_resumes_byte_identically(
    tmp_path,
):
    directory = tmp_path / "ckpt"
    shutil.copytree(FROZEN, directory)
    restored = restore_runtime(directory)
    assert restored.checkpoint.event_index == 800
    assert restored.replayed_events == 150
    assert restored.skipped_checkpoints == []
    reference = build_runtime(restored.checkpoint.resolved).run()
    report = resume(directory)
    assert fleet_report_bytes(report) == fleet_report_bytes(reference)
