"""Crash-kill-restore: bit-identical reports, corrupt fallback, divergence."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.faults import ProcessKill, SimulatedCrash, default_chaos_scenario
from repro.faults.runtime import chaos_runtime
from repro.recover import (
    JOURNAL_NAME,
    CheckpointStore,
    JournalWriter,
    RecoveryError,
    canonical_bytes,
    fleet_report_bytes,
    read_journal,
)
from repro.recover.manager import restore_runtime, resume, run_with_checkpoints
from repro.serve import FleetConfig, FleetRuntime, ServeConfig, ServeRuntime


def serve_config() -> ServeConfig:
    # A 0.05 deg reuse threshold sends most frames to the pool, so the
    # run has hundreds of events (bypass frames are not events).
    return ServeConfig(
        n_sessions=6, duration_s=0.5, n_workers=2, seed=1,
        reuse_displacement_deg=0.05,
    )


def chaos_config():
    base = default_chaos_scenario(seed=3)
    return replace(
        base, serve=replace(base.serve, n_sessions=4, duration_s=0.5, n_workers=2)
    )


def crash_at(runtime, directory, kill_at: int, every: int = 60) -> None:
    with pytest.raises(SimulatedCrash):
        run_with_checkpoints(
            runtime, directory, every=every, kill=ProcessKill(at_event=kill_at)
        )


class TestBitIdenticalRecovery:
    @pytest.mark.parametrize("kill_at", [5, 150, 314])  # early / mid / late (485 total)
    def test_serve_recovery_is_bit_identical(self, tmp_path, kill_at):
        baseline = fleet_report_bytes(ServeRuntime(serve_config()).run())
        crash_at(ServeRuntime(serve_config()), tmp_path, kill_at)
        assert fleet_report_bytes(resume(tmp_path)) == baseline

    @pytest.mark.parametrize("kill_at", [8, 70, 130])  # of 145 events
    def test_chaos_recovery_is_bit_identical(self, tmp_path, kill_at):
        baseline = fleet_report_bytes(chaos_runtime(chaos_config()).run())
        crash_at(chaos_runtime(chaos_config()), tmp_path, kill_at)
        assert fleet_report_bytes(resume(tmp_path)) == baseline

    def test_double_crash_recovery(self, tmp_path):
        """Crash, resume, crash again, resume again — still bit-identical."""
        baseline = fleet_report_bytes(ServeRuntime(serve_config()).run())
        crash_at(ServeRuntime(serve_config()), tmp_path, 100)
        restored = restore_runtime(tmp_path)
        with pytest.raises(SimulatedCrash):
            run_with_checkpoints(
                restored.runtime, tmp_path, every=60,
                kill=ProcessKill(at_event=250), _resume=True,
            )
        assert fleet_report_bytes(resume(tmp_path)) == baseline

    def test_fleet_runtime_restore_classmethod(self, tmp_path):
        config = FleetConfig(serve=serve_config(), n_shards=2)
        baseline = fleet_report_bytes(FleetRuntime(config).run())
        crash_at(FleetRuntime(config), tmp_path, 90)
        runtime = FleetRuntime.restore(tmp_path)
        while runtime.step():
            pass
        assert fleet_report_bytes(runtime.finish()) == baseline


class TestRestoreDetails:
    def test_journal_tail_replayed(self, tmp_path):
        crash_at(ServeRuntime(serve_config()), tmp_path, kill_at=100, every=60)
        restored = restore_runtime(tmp_path)
        assert restored.checkpoint.event_index == 60
        assert restored.replayed_events == 40
        assert restored.runtime.events_processed == 100
        assert restored.skipped_checkpoints == []

    def test_restore_rebuilds_from_directory_alone(self, tmp_path):
        """The manifest embeds the config — no arguments beyond the dir."""
        config = replace(serve_config(), n_sessions=5, seed=9)
        crash_at(ServeRuntime(config), tmp_path, 50)
        restored = restore_runtime(tmp_path)
        assert restored.runtime.config == config

    def test_kill_requires_positive_event(self):
        with pytest.raises(ValueError):
            ProcessKill(at_event=0)

    def test_journal_has_write_ahead_record_of_every_event(self, tmp_path):
        runtime = ServeRuntime(serve_config())
        crash_at(runtime, tmp_path, kill_at=70)
        records = read_journal(tmp_path / JOURNAL_NAME)
        # The kill fires after applying event 70; the WAL must already
        # hold all 70 records (each written before its event applied).
        assert [r["i"] for r in records] == list(range(1, 71))


class TestCorruptionFallback:
    def test_falls_back_past_bit_flipped_checkpoint(self, tmp_path):
        baseline = fleet_report_bytes(ServeRuntime(serve_config()).run())
        crash_at(ServeRuntime(serve_config()), tmp_path, kill_at=150, every=60)
        store = CheckpointStore(tmp_path)
        newest = store.indices()[-1]
        payload = store.payload_path(newest)
        data = bytearray(payload.read_bytes())
        data[7] ^= 0x01
        payload.write_bytes(bytes(data))

        restored = restore_runtime(tmp_path)
        assert [i for i, _ in restored.skipped_checkpoints] == [newest]
        runtime = restored.runtime
        while runtime.step():
            pass
        assert fleet_report_bytes(runtime.finish()) == baseline

    def test_half_written_journal_line_tolerated(self, tmp_path):
        baseline = fleet_report_bytes(ServeRuntime(serve_config()).run())
        crash_at(ServeRuntime(serve_config()), tmp_path, kill_at=100, every=60)
        journal = tmp_path / JOURNAL_NAME
        text = journal.read_text()
        journal.write_text(text[: len(text) - 15])  # tear the last record
        assert fleet_report_bytes(resume(tmp_path)) == baseline

    def test_no_valid_checkpoint_raises(self, tmp_path):
        with pytest.raises(RecoveryError, match="no valid checkpoint"):
            restore_runtime(tmp_path)

    def test_all_checkpoints_corrupt_raises_with_reasons(self, tmp_path):
        crash_at(ServeRuntime(serve_config()), tmp_path, kill_at=100, every=60)
        store = CheckpointStore(tmp_path)
        for index in store.indices():
            store.payload_path(index).write_bytes(b"garbage")
        with pytest.raises(RecoveryError, match="no valid checkpoint"):
            restore_runtime(tmp_path)

    def test_format_4_chaos_checkpoint_is_refused(self, tmp_path):
        # Format 5 moved the breakers and the armed wake-up into the worker
        # pool's state: a chaos run checkpointed under format 4 is refused
        # with the reason, never resumed with fresh breakers.
        crash_at(chaos_runtime(chaos_config()), tmp_path, 130)
        store = CheckpointStore(tmp_path)
        for index in store.indices():
            manifest = store.manifest_path(index)
            doc = json.loads(manifest.read_bytes())
            doc["format_version"] = 4
            manifest.write_bytes(canonical_bytes(doc))
        with pytest.raises(RecoveryError, match="is format 4; this build reads only 10 — rerun"):
            resume(tmp_path)

    def test_format_7_chaos_checkpoint_is_refused(self, tmp_path):
        # Format 8 took bypass frames, drops and CRC failures off the
        # chaos heap: an older chaos checkpoint is refused with the
        # reason, never resumed with those frames recorded twice.
        crash_at(chaos_runtime(chaos_config()), tmp_path, 130)
        store = CheckpointStore(tmp_path)
        for index in store.indices():
            manifest = store.manifest_path(index)
            doc = json.loads(manifest.read_bytes())
            doc["format_version"] = 7
            manifest.write_bytes(canonical_bytes(doc))
        with pytest.raises(RecoveryError, match="is format 7; this build reads only 10 — rerun"):
            resume(tmp_path)

    def test_journal_divergence_detected(self, tmp_path):
        """A resealed-but-wrong journal record must fail the replay."""
        crash_at(ServeRuntime(serve_config()), tmp_path, kill_at=100, every=60)
        journal = tmp_path / JOURNAL_NAME
        lines = journal.read_text().splitlines()
        record = json.loads(lines[80])  # inside the replayed tail (> 60)
        record.pop("crc")
        record["t"] += 1.0  # plausible but wrong timestamp
        writer = JournalWriter(tmp_path / "reseal.jsonl")
        writer.append(record)
        writer.close()
        lines[80] = (tmp_path / "reseal.jsonl").read_text().strip()
        journal.write_text("\n".join(lines) + "\n")
        (tmp_path / "reseal.jsonl").unlink()
        with pytest.raises(RecoveryError, match="diverged"):
            restore_runtime(tmp_path)


class TestOverhead:
    def test_checkpointing_does_not_change_simulated_goodput(self, tmp_path):
        """Durability must be invisible to the simulation: 0% overhead on
        every simulated metric, not just approximately."""
        plain = ServeRuntime(serve_config()).run()
        checkpointed = run_with_checkpoints(
            ServeRuntime(serve_config()), tmp_path, every=50
        )
        assert fleet_report_bytes(checkpointed) == fleet_report_bytes(plain)
        assert checkpointed.predict_goodput_fps == plain.predict_goodput_fps
