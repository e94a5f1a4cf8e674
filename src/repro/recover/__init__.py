"""Durable checkpointing, write-ahead journaling, and crash recovery.

The serving fleet (``repro.serve`` / ``repro.faults``) is a deterministic
discrete-event simulation, which makes *bit-identical* crash recovery a
testable property rather than an aspiration: snapshot the full runtime
state atomically (:class:`CheckpointStore`), journal every event before
applying it (:class:`JournalWriter`), and after a kill rebuild from the
latest valid checkpoint and replay the journal tail
(:func:`restore_runtime`).  The recovered run's final
:class:`~repro.serve.telemetry.FleetReport` is byte-equal — via
:func:`fleet_report_bytes` — to the report of the same seed run
uninterrupted.

Entry points live in :mod:`repro.recover.manager`:
``run_with_checkpoints`` wraps a runtime's event loop with durability
(and an optional :class:`~repro.faults.injectors.ProcessKill`),
``resume`` restores and runs to completion, and ``python -m repro
recover`` does the same from the command line.  This package's own
namespace holds only the leaf modules (format, codec, journal), which
import nothing of the serving layer, so the serving layer can import
:mod:`repro.recover.configio` at module level.
"""

from repro.recover.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    CheckpointStore,
)
from repro.recover.codec import (
    CONFIG_HASH_LEN,
    canonical_bytes,
    canonical_json,
    config_hash,
    crc32,
    fleet_report_bytes,
)
from repro.recover.errors import CheckpointError, JournalError, RecoveryError
from repro.recover.journal import JOURNAL_NAME, JournalWriter, read_journal

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CONFIG_HASH_LEN",
    "Checkpoint",
    "CheckpointError",
    "CheckpointStore",
    "JOURNAL_NAME",
    "JournalError",
    "JournalWriter",
    "RecoveryError",
    "canonical_bytes",
    "canonical_json",
    "config_hash",
    "crc32",
    "fleet_report_bytes",
    "read_journal",
]
