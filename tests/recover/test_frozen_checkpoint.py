"""A checkpoint written by an earlier build restores, or is refused.

``data/net-midpartition-format10`` holds one ``--net`` fleet checkpoint
(8 sessions x 0.4 s over 3 shards, drops, duplicates and
``on_exhaust="drop"``) taken at event 810, t = 0.212 s: shard 1 sits
inside its 0.10-0.25 s partition, is suspected, one session is
displaced, an envelope is pending and shard 2 has a batch window armed
ahead of the checkpoint.  The journal holds the 150 events after it, up
to a kill at event 960.  It was written by ``run_with_checkpoints(...,
every=810, kill=ProcessKill(at_event=960))`` on the run its manifest
names, keeping the last checkpoint and the journal after it.  The files
are committed as that build wrote them; this build must restore them,
replay the journal and finish with the report of an uninterrupted run,
byte for byte.  A change to how snapshots are written or read that forks
the format fails here.

``data/net-midpartition-format9`` and ``-format8`` are the same run
written by the format-9 build (at the same event 810) and by the
format-8 build (at event 800, t = 0.199 s, with its journal to a kill
at 950).  Format 10 keeps seeded arrivals in cursors carried by their
heads' heap entries, so their heaps hold entries this build no longer
writes (the format-9 journal is the format-10 one, event for event):
they are refused with the one message every older format gets.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.recover import RecoveryError, fleet_report_bytes
from repro.recover.checkpoint import CHECKPOINT_FORMAT_VERSION
from repro.recover.kinds import build_runtime
from repro.recover.manager import restore_runtime, resume

DATA = Path(__file__).parent / "data"
FROZEN = DATA / "net-midpartition-format10"
FORMAT9 = DATA / "net-midpartition-format9"
FORMAT8 = DATA / "net-midpartition-format8"


def test_frozen_checkpoint_is_a_mid_partition_format_8_net_fleet():
    manifest = json.loads((FORMAT8 / "ckpt-000000800.manifest.json").read_bytes())
    assert manifest["format_version"] == 8
    assert manifest["kind"] == "fleet"
    (partition,) = manifest["config"]["net"]["partitions"]
    state = json.loads((FORMAT8 / "ckpt-000000800.state.json").read_bytes())
    transport = state["net"]["transport"]
    assert transport["suspected"] == partition["shard_ids"] == [1]
    assert transport["displaced"] and transport["pending"]


def test_frozen_format_8_checkpoint_is_refused(tmp_path):
    directory = tmp_path / "ckpt"
    shutil.copytree(FORMAT8, directory)
    with pytest.raises(
        RecoveryError, match="is format 8; this build reads only 10 — rerun"
    ):
        restore_runtime(directory)


def test_frozen_checkpoint_is_a_mid_partition_format_9_net_fleet():
    manifest = json.loads((FORMAT9 / "ckpt-000000810.manifest.json").read_bytes())
    assert manifest["format_version"] == 9
    state = json.loads((FORMAT9 / "ckpt-000000810.state.json").read_bytes())
    transport = state["net"]["transport"]
    assert transport["suspected"] == [1]
    assert transport["displaced"] and transport["pending"]


def test_frozen_format_9_checkpoint_is_refused(tmp_path):
    directory = tmp_path / "ckpt"
    shutil.copytree(FORMAT9, directory)
    with pytest.raises(
        RecoveryError, match="is format 9; this build reads only 10 — rerun"
    ):
        restore_runtime(directory)


def test_frozen_checkpoint_is_a_mid_partition_format_10_net_fleet():
    manifest = json.loads((FROZEN / "ckpt-000000810.manifest.json").read_bytes())
    assert manifest["format_version"] == CHECKPOINT_FORMAT_VERSION == 10
    assert manifest["kind"] == "fleet"
    config = manifest["config"]
    assert (config["serve"]["n_sessions"], config["serve"]["duration_s"]) == (8, 0.4)
    assert config["n_shards"] == 3
    (partition,) = config["net"]["partitions"]
    state = json.loads((FROZEN / "ckpt-000000810.state.json").read_bytes())
    transport = state["net"]["transport"]
    assert transport["suspected"] == partition["shard_ids"] == [1]
    assert transport["displaced"] and transport["pending"]
    journal = [
        json.loads(line)
        for line in (FROZEN / "journal.jsonl").read_text().splitlines()
    ]
    assert [record["i"] for record in journal] == list(range(811, 961))
    now = journal[0]["t"]
    assert partition["start_s"] < now < partition["stop_s"]
    # A shard's window is armed ahead of the checkpoint: restoring must
    # know it, or the next admission would arm a second window.
    shard = state["shards"][2]["state"]
    armed = shard["batcher"]["window_armed_s"]
    assert armed > now
    assert any(kind == 1 and time_s == armed for time_s, kind, _, _ in shard["heap"])


def test_frozen_checkpoint_restores_replays_and_resumes_byte_identically(
    tmp_path,
):
    directory = tmp_path / "ckpt"
    shutil.copytree(FROZEN, directory)
    restored = restore_runtime(directory)
    assert restored.checkpoint.event_index == 810
    assert restored.replayed_events == 150
    assert restored.skipped_checkpoints == []
    reference = build_runtime(restored.checkpoint.resolved).run()
    report = resume(directory)
    assert fleet_report_bytes(report) == fleet_report_bytes(reference)
