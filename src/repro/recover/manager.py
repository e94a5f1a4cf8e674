"""Checkpointed execution, warm restart, and deterministic replay.

:func:`run_with_checkpoints` drives a runtime's ``start/step/finish``
loop with durability folded in: every event is journaled *before* it is
applied (write-ahead), the full serving state is checkpointed atomically
every ``every`` events, and an optional
:class:`~repro.faults.injectors.ProcessKill` injector terminates the
process at an exact event index — the crash-recovery chaos mode.

:func:`restore_runtime` is the other half of the contract: rebuild the
runtime from the latest *valid* checkpoint (falling back past corrupt
ones), replay the journal tail by re-executing the deterministic event
loop while cross-checking every regenerated event against its journal
record, and hand back a runtime whose continuation is bit-identical to
the uninterrupted run.  :func:`resume` composes both: restore, then run
to completion with checkpointing re-armed.

Recovery telemetry flows through ``repro.obs``: checkpoint/journal/
restore counters in the metrics registry and sim-clock ``checkpoint`` /
``restore`` instants on the ``recover`` trace track.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from repro.faults.injectors import ProcessKill, SimulatedCrash
from repro.obs import Obs, PID_RECOVER
from repro.recover import kinds
from repro.recover.checkpoint import Checkpoint, CheckpointStore
from repro.recover.configio import encode
from repro.recover.errors import RecoveryError
from repro.recover.journal import JOURNAL_NAME, JournalWriter, read_journal
from repro.serve.config import BatchServiceModel
from repro.serve.runtime import InferenceFn, ServeRuntime
from repro.serve.telemetry import FleetReport

#: Default checkpoint cadence (events between snapshots).
DEFAULT_CHECKPOINT_EVERY = 1000


@dataclass(frozen=True)
class RestoredRuntime:
    """What :func:`restore_runtime` hands back."""

    runtime: ServeRuntime
    checkpoint: Checkpoint
    replayed_events: int
    skipped_checkpoints: list[tuple[int, str]]


# ----------------------------------------------------------------------
# Observability
# ----------------------------------------------------------------------
class _RecoverInstruments:
    """Pre-resolved recovery counters (only built when obs is enabled)."""

    def __init__(self, obs: Obs):
        self.obs = obs
        metrics = obs.metrics
        self.checkpoints = metrics.counter(
            "recover_checkpoints_written_total", "Checkpoints persisted"
        )
        self.checkpoint_bytes = metrics.gauge(
            "recover_last_checkpoint_bytes", "Payload size of the last checkpoint"
        )
        self.journal_records = metrics.counter(
            "recover_journal_records_total", "Write-ahead journal records appended"
        )
        self.restores = metrics.counter(
            "recover_restores_total", "Warm restarts from a checkpoint"
        )
        self.replayed = metrics.counter(
            "recover_journal_replayed_total", "Journal-tail events replayed on restore"
        )
        self.skipped = metrics.counter(
            "recover_checkpoints_skipped_total",
            "Corrupt checkpoints skipped during restore",
        )
        obs.tracer.declare_track(PID_RECOVER, "recover", thread_name="durability")


def _instruments(obs: Obs) -> "_RecoverInstruments | None":
    return _RecoverInstruments(obs) if obs.enabled else None


# ----------------------------------------------------------------------
# Checkpointing run loop
# ----------------------------------------------------------------------
def _write_checkpoint(
    store: CheckpointStore,
    runtime: ServeRuntime,
    every: int,
    instruments: "_RecoverInstruments | None",
    now_s: float,
) -> None:
    payload_bytes = store.write(
        runtime.state_dict(),
        event_index=runtime.events_processed,
        kind=runtime.RUNTIME_KIND,
        config=kinds.runtime_config_dict(runtime),
        service=encode(runtime.service),
        checkpoint_every=every,
    )
    if instruments is not None:
        instruments.checkpoints.inc()
        instruments.checkpoint_bytes.set(float(payload_bytes))
        instruments.obs.tracer.instant(
            "checkpoint", now_s, cat="recover", pid=PID_RECOVER,
            args={"event_index": runtime.events_processed, "bytes": payload_bytes},
        )


def run_with_checkpoints(
    runtime: ServeRuntime,
    directory: "str | os.PathLike",
    every: int = DEFAULT_CHECKPOINT_EVERY,
    *,
    kill: "ProcessKill | None" = None,
    _resume: bool = False,
) -> FleetReport:
    """Run ``runtime`` to completion under checkpoint + journal cover.

    Durability is invisible to the simulation: snapshots and journal
    appends happen *between* events and read sim-state without touching
    it, so the report is bit-identical to a bare ``runtime.run()``.

    ``kill`` injects a process death (:class:`SimulatedCrash` escapes
    this function) after exactly ``kill.at_event`` events; the journal
    is fsynced first, mirroring a real WAL's commit barrier.
    """
    if every <= 0:
        raise ValueError(f"checkpoint cadence must be positive, got {every}")
    store = CheckpointStore(directory)
    instruments = _instruments(runtime.obs)
    runtime.start()
    if not _resume:
        # Baseline checkpoint: restore works even if the process dies
        # before the first cadence boundary.
        _write_checkpoint(store, runtime, every, instruments, now_s=0.0)
    journal = JournalWriter(Path(directory) / JOURNAL_NAME, resume=_resume)
    try:
        while True:
            head = runtime.peek_event()
            if head is None:
                break
            time_s, kind, seq = head
            journal.append(
                {"i": runtime.events_processed + 1, "t": time_s, "k": kind,
                 "seq": seq}
            )
            if instruments is not None:
                instruments.journal_records.inc()
            runtime.step()
            if kill is not None and kill.fires_at(runtime.events_processed):
                journal.sync()
                raise SimulatedCrash(
                    f"process killed at event {runtime.events_processed} "
                    f"(t={time_s:.6f}s)"
                )
            if runtime.events_processed % every == 0:
                journal.sync()
                _write_checkpoint(store, runtime, every, instruments, now_s=time_s)
    finally:
        journal.close()
    return runtime.finish()


# ----------------------------------------------------------------------
# Restore / resume
# ----------------------------------------------------------------------
def build_runtime(
    checkpoint: Checkpoint,
    service: "BatchServiceModel | None",
    inference: "InferenceFn | None",
    obs: "Obs | None",
) -> ServeRuntime:
    """Construct a fresh runtime of the checkpoint's kind and config.

    The manifest embeds the complete run configuration, so this needs
    nothing beyond the checkpoint itself; pass ``service``/``inference``
    only to override what the manifest recorded.
    """
    if checkpoint.kind not in kinds.RUN_KINDS:
        raise RecoveryError(
            f"checkpoint {checkpoint.manifest_path} has unknown runtime kind "
            f"{checkpoint.kind!r}"
        )
    return kinds.build_runtime(
        checkpoint.resolved, service=service, inference=inference, obs=obs
    )


def restore_runtime(
    directory: "str | os.PathLike",
    *,
    service: "BatchServiceModel | None" = None,
    inference: "InferenceFn | None" = None,
    obs: "Obs | None" = None,
) -> RestoredRuntime:
    """Warm-restart from ``directory``: latest valid checkpoint + replay.

    The journal tail (records past the checkpoint's event index) is
    replayed by re-stepping the deterministic event loop; every
    regenerated event must match its journal record exactly (index,
    time, kind, sequence) or the restore fails with
    :class:`RecoveryError` — a divergence means the snapshot and the
    journal describe different histories, and continuing would
    silently fork the run.
    """
    directory = Path(directory)
    store = CheckpointStore(directory)
    checkpoint, skipped = store.latest_valid()
    if checkpoint is None:
        detail = "; ".join(reason for _, reason in skipped) or "directory is empty"
        raise RecoveryError(f"no valid checkpoint under {directory}: {detail}")
    runtime = build_runtime(checkpoint, service, inference, obs)
    try:
        runtime.load_state(checkpoint.state)
    except (TypeError, ValueError, KeyError) as err:
        # The payload passed its CRC, so it is intact: it was written by
        # a build whose format differs, and an older checkpoint would not
        # load either.
        detail = f"{err.args[0]} is missing" if isinstance(err, KeyError) else err
        raise RecoveryError(
            f"checkpoint {checkpoint.manifest_path} does not match this "
            f"build: {detail}"
        ) from err
    instruments = _instruments(runtime.obs)

    tail = read_journal(directory / JOURNAL_NAME, after_index=checkpoint.event_index)
    for record in tail:
        head = runtime.peek_event()
        if head is None:
            raise RecoveryError(
                f"journal records event {record['i']} but the restored run "
                "has no events left — snapshot and journal disagree"
            )
        time_s, kind, seq = head
        expected_index = runtime.events_processed + 1
        if (
            record["i"] != expected_index
            or record["t"] != time_s
            or record["k"] != kind
            or record["seq"] != seq
        ):
            raise RecoveryError(
                f"replay diverged at event {expected_index}: journal pinned "
                f"(i={record['i']}, t={record['t']!r}, k={record['k']}, "
                f"seq={record['seq']}), the restored loop regenerated "
                f"(i={expected_index}, t={time_s!r}, k={kind}, seq={seq})"
            )
        runtime.step()
    if instruments is not None:
        instruments.restores.inc()
        instruments.replayed.inc(len(tail))
        instruments.skipped.inc(len(skipped))
        instruments.obs.tracer.instant(
            "restore", 0.0, cat="recover", pid=PID_RECOVER,
            args={
                "checkpoint": checkpoint.event_index,
                "replayed": len(tail),
                "skipped": len(skipped),
            },
        )
    return RestoredRuntime(
        runtime=runtime,
        checkpoint=checkpoint,
        replayed_events=len(tail),
        skipped_checkpoints=skipped,
    )


def restore_as(cls: type, directory: "str | os.PathLike", **kwargs):
    """:func:`restore_runtime` for ``FleetRuntime.restore``: the
    restored runtime, which must be a ``cls``.

    A checkpoint of another kind raises :class:`TypeError`.
    """
    runtime = restore_runtime(directory, **kwargs).runtime
    if not isinstance(runtime, cls):
        raise TypeError(
            f"checkpoint holds a {type(runtime).__name__}, not a {cls.__name__}"
        )
    return runtime


def resume(
    directory: "str | os.PathLike",
    *,
    service: "BatchServiceModel | None" = None,
    inference: "InferenceFn | None" = None,
    obs: "Obs | None" = None,
    every: "int | None" = None,
) -> FleetReport:
    """Restore and run to completion with checkpointing re-armed.

    The final :class:`FleetReport` is bit-identical to the report of the
    same config run uninterrupted (the ``recover-smoke`` CI job and
    ``benchmarks/test_recover_crash.py`` byte-diff exactly that).
    """
    restored = restore_runtime(
        directory, service=service, inference=inference, obs=obs
    )
    if every is None:
        every = restored.checkpoint.checkpoint_every or DEFAULT_CHECKPOINT_EVERY
    return run_with_checkpoints(
        restored.runtime, directory, every=every, _resume=True
    )
