"""Atomic, checksummed checkpoints of the serving state.

One checkpoint is a *pair* of files keyed by the event index it was
taken at:

* ``ckpt-<index>.state.json`` — the runtime's full ``state_dict`` as
  canonical JSON (the payload);
* ``ckpt-<index>.manifest.json`` — a versioned manifest naming the
  payload and pinning its CRC32 and byte length, plus the complete run
  configuration (so restore needs nothing but the directory).

Both files are written temp-file-then-``os.replace`` with an fsync, and
the manifest is written *after* its payload: at every instant the
directory either contains a fully valid checkpoint or recognizably lacks
one — there is no window in which a torn write masquerades as valid.
:meth:`CheckpointStore.latest_valid` walks checkpoints newest-first and
falls back past any that fail validation, so a bit-flipped payload or a
tampered manifest costs replay distance, never correctness.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

from repro.recover.codec import canonical_bytes, crc32
from repro.recover.errors import CheckpointError

#: Bump when the manifest/payload schema changes incompatibly.
#: Version 2: a lossy-transport fleet's control heap holds only the next
#: frame SEND (the rest are chained), and its SEND payloads, envelopes
#: and pending entries carry sequence numbers instead of frame dicts.
#: Version 3: the fleet owns one session ledger; each shard serializes
#: the slice of its member sessions (a lossy-transport fleet no longer
#: writes a separate ledger under ``net``).
#: Version 4: serve runtimes and direct-mode fleet shards keep saccade
#: and reuse frames off the heap, as per-session backlogs the ledger
#: records in bulk; event indices count only pool and control events.
#: Version 5: a chaos run's worker pool holds its circuit breakers, the
#: causes of failing in-flight batches and the armed wake-up; COMPLETE
#: payloads no longer carry a dispatch outcome.  Serve and fleet
#: payloads are unchanged since version 4.
#: Version 6: only predict frames cross a lossy-transport fleet's
#: network; its SEND payloads and envelope seqs index the predict-frame
#: stream, and saccade and reuse frames are per-session backlogs.
#: Serve, chaos and direct-mode fleet payloads are unchanged since 5.
#: Version 7: a fleet applies its events shard-major between control
#: events, so event indices, checkpoints and the journal of a fleet run
#: follow that order.  Fleet payloads are unchanged; serve and chaos
#: checkpoints are unchanged since 6.
#: Version 8: a chaos run keeps saccade and reuse frames, sensor drops
#: and CRC failures as per-session backlogs: only delivered predict
#: frames and retries are ARRIVALs, and the payload holds each session's
#: backlog cursor instead of the set of retransmitted frames.  Serve and
#: fleet payloads are unchanged since 7.
#: Version 9: a runtime arms one batch-window event per deadline, and
#: none for a deadline already passed; the batcher holds the armed
#: deadline.  Every kind's heap, event indices and journal change, so
#: every older checkpoint is refused.
#: Version 10: a runtime reads its seeded predict arrivals from a cursor;
#: the heap holds the work in flight and one entry for the cursor head,
#: whose payload is the cursor as two int columns (``{"rows": [...],
#: "seqs": [...]}``: source rows and event seqs).  Every kind's payload,
#: event indices and journal change.  A state with several cursor
#: entries in one runtime (written before a runtime kept one cursor) is
#: merged into one on load.
CHECKPOINT_FORMAT_VERSION = 10

_MANIFEST_KEYS = frozenset(
    {
        "format_version",
        "event_index",
        "kind",
        "payload_file",
        "payload_crc32",
        "payload_bytes",
        "config",
        "service",
        "checkpoint_every",
    }
)

_MANIFEST_RE = re.compile(r"^ckpt-(\d{9})\.manifest\.json$")


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write-temp + fsync + rename: the file exists fully or not at all."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


@dataclass(frozen=True)
class Checkpoint:
    """One validated checkpoint, fully loaded."""

    event_index: int
    kind: str
    config: dict
    service: dict
    checkpoint_every: "int | None"
    state: dict
    manifest_path: Path

    @property
    def resolved(self) -> dict:
        """The run this checkpoint belongs to, as a resolved run dict
        (see :func:`repro.recover.kinds.resolve_run_config`)."""
        return {"kind": self.kind, "config": self.config, "service": self.service}


class CheckpointStore:
    """The checkpoint directory: write, enumerate, validate, load."""

    def __init__(self, directory: "str | os.PathLike"):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Naming
    # ------------------------------------------------------------------
    def manifest_path(self, event_index: int) -> Path:
        return self.directory / f"ckpt-{event_index:09d}.manifest.json"

    def payload_path(self, event_index: int) -> Path:
        return self.directory / f"ckpt-{event_index:09d}.state.json"

    def indices(self) -> list[int]:
        """Event indices of every checkpoint present, ascending."""
        found = []
        for entry in self.directory.iterdir():
            match = _MANIFEST_RE.match(entry.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    # ------------------------------------------------------------------
    # Write
    # ------------------------------------------------------------------
    def write(
        self,
        state: dict,
        *,
        event_index: int,
        kind: str,
        config: dict,
        service: dict,
        checkpoint_every: "int | None" = None,
    ) -> int:
        """Atomically persist one checkpoint; returns the payload size."""
        payload = canonical_bytes(state)
        _atomic_write_bytes(self.payload_path(event_index), payload)
        manifest = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "event_index": event_index,
            "kind": kind,
            "payload_file": self.payload_path(event_index).name,
            "payload_crc32": crc32(payload),
            "payload_bytes": len(payload),
            "config": config,
            "service": service,
            "checkpoint_every": checkpoint_every,
        }
        _atomic_write_bytes(
            self.manifest_path(event_index), canonical_bytes(manifest)
        )
        return len(payload)

    # ------------------------------------------------------------------
    # Validate + load
    # ------------------------------------------------------------------
    def load(self, event_index: int) -> Checkpoint:
        """Load and fully validate the checkpoint at ``event_index``.

        Raises :class:`CheckpointError` naming the file and the failed
        check; never partially constructs a checkpoint.
        """
        manifest_path = self.manifest_path(event_index)
        try:
            raw = manifest_path.read_bytes()
        except FileNotFoundError:
            raise CheckpointError(f"no checkpoint manifest at {manifest_path}")
        try:
            manifest = json.loads(raw)
        except json.JSONDecodeError as err:
            raise CheckpointError(
                f"tampered or corrupt manifest {manifest_path}: {err}"
            ) from err
        if not isinstance(manifest, dict):
            raise CheckpointError(
                f"manifest {manifest_path} is not a JSON object"
            )
        missing = _MANIFEST_KEYS - manifest.keys()
        unknown = manifest.keys() - _MANIFEST_KEYS
        if missing or unknown:
            raise CheckpointError(
                f"manifest {manifest_path} schema mismatch: "
                f"missing={sorted(missing)}, unknown={sorted(unknown)}"
            )
        version = manifest["format_version"]
        if not isinstance(version, int):
            raise CheckpointError(
                f"manifest {manifest_path} format_version is not an integer"
            )
        if version > CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {manifest_path} uses format version {version}, "
                f"newer than the supported {CHECKPOINT_FORMAT_VERSION} — "
                "upgrade repro to restore it"
            )
        if version < CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {manifest_path} is format {version}; this build "
                f"reads only {CHECKPOINT_FORMAT_VERSION} — rerun"
            )
        if manifest["event_index"] != event_index:
            raise CheckpointError(
                f"manifest {manifest_path} claims event index "
                f"{manifest['event_index']}, file name says {event_index}"
            )

        payload_path = self.directory / str(manifest["payload_file"])
        try:
            payload = payload_path.read_bytes()
        except FileNotFoundError:
            raise CheckpointError(
                f"checkpoint payload {payload_path} is missing"
            )
        if len(payload) != manifest["payload_bytes"]:
            raise CheckpointError(
                f"checkpoint payload {payload_path} is truncated: "
                f"{len(payload)} bytes, manifest pins {manifest['payload_bytes']}"
            )
        if crc32(payload) != manifest["payload_crc32"]:
            raise CheckpointError(
                f"checkpoint payload {payload_path} failed its CRC32 check "
                "(bit flip or partial write)"
            )
        try:
            state = json.loads(payload)
        except json.JSONDecodeError as err:  # CRC passed but JSON bad
            raise CheckpointError(
                f"checkpoint payload {payload_path} is not valid JSON: {err}"
            ) from err
        return Checkpoint(
            event_index=event_index,
            kind=str(manifest["kind"]),
            config=manifest["config"],
            service=manifest["service"],
            checkpoint_every=manifest["checkpoint_every"],
            state=state,
            manifest_path=manifest_path,
        )

    def latest_valid(
        self,
    ) -> "tuple[Checkpoint | None, list[tuple[int, str]]]":
        """Newest checkpoint that validates, plus ``(index, reason)`` for
        every newer one that was skipped as corrupt."""
        skipped: list[tuple[int, str]] = []
        for event_index in reversed(self.indices()):
            try:
                return self.load(event_index), skipped
            except CheckpointError as err:
                skipped.append((event_index, str(err)))
        return None, skipped
