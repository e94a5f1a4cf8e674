"""Zero-dependency on-disk tracking backend.

A campaign directory is the whole database::

    <dir>/campaign.json     manifest: name + campaign config + its hash
    <dir>/runs.jsonl        append-only CRC-sealed runs ledger
    <dir>/objects/ab/abcd.. content-addressed artifact store (sha256)

The ledger reuses the write-ahead frame journal's format and reader
(:mod:`repro.recover.journal`): canonical-JSON records sealed with a
CRC32, strictly increasing ``i``, a torn final line tolerated (that is
what a kill mid-append produces) and truncated before the file is
reopened for append, any interior damage fatal.  Records carry no wall
clocks or host names, and are appended in campaign-expansion order even
under the process-pool executor — so two runs of the same campaign
produce byte-identical ledgers, and a killed-then-resumed ledger
byte-equals an uninterrupted one.  The ``exp-smoke`` CI job diffs
exactly that.

Artifacts are immutable: stored under their own sha256, fetched back
through a hash check, shared between runs that produce identical bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.exp.errors import LedgerError
from repro.obs.metrics import MetricsRegistry
from repro.recover.codec import canonical_json, config_hash
from repro.recover.errors import JournalError
from repro.recover.journal import JournalWriter, _verify_line, read_journal

MANIFEST_NAME = "campaign.json"
LEDGER_NAME = "runs.jsonl"
OBJECTS_DIR = "objects"


# ----------------------------------------------------------------------
# Artifact store
# ----------------------------------------------------------------------
class ArtifactStore:
    """Content-addressed text blobs: ``objects/<sha[:2]>/<sha256>``."""

    def __init__(self, root: "str | os.PathLike"):
        self.root = Path(root)

    def _path(self, digest: str) -> Path:
        return self.root / digest[:2] / digest

    def put(self, text: str) -> str:
        """Store ``text``; return its sha256 digest.  Idempotent."""
        data = text.encode("utf-8")
        digest = hashlib.sha256(data).hexdigest()
        path = self._path(digest)
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            tmp.write_bytes(data)
            os.replace(tmp, path)  # atomic: readers never see half a blob
        return digest

    def get(self, digest: str) -> str:
        path = self._path(digest)
        if not path.exists():
            raise LedgerError(f"artifact {digest} missing from {self.root}")
        data = path.read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            raise LedgerError(f"artifact {digest} fails its content hash")
        return data.decode("utf-8")

    def __contains__(self, digest: str) -> bool:
        return self._path(digest).exists()


# ----------------------------------------------------------------------
# Runs ledger
# ----------------------------------------------------------------------
def _truncate_torn_tail(path: Path) -> None:
    """Drop a torn final line so append-mode reopen stays canonical.

    ``read_journal`` tolerates the torn tail at *read* time, but a
    writer reopened in append mode would concatenate the next record
    onto it — truncate the file to its last verifiable line instead.
    """
    if not path.exists():
        return
    data = path.read_bytes()
    lines = data.decode("utf-8").splitlines(keepends=True)
    if not lines:
        return
    last = lines[-1]
    torn = not last.endswith("\n")
    if not torn:
        try:
            _verify_line(last.rstrip("\n"), path, len(lines))
        except JournalError:
            torn = True
    if torn:
        keep = len(data) - len(last.encode("utf-8"))
        with open(path, "r+b") as handle:
            handle.truncate(keep)


def load_records(directory: "str | os.PathLike") -> list[dict]:
    """All verified ledger records, in append (= campaign) order."""
    try:
        return read_journal(Path(directory) / LEDGER_NAME)
    except JournalError as err:
        raise LedgerError(str(err)) from err


def load_manifest(directory: "str | os.PathLike") -> dict:
    path = Path(directory) / MANIFEST_NAME
    if not path.exists():
        raise LedgerError(f"{directory} is not a campaign directory "
                          f"(no {MANIFEST_NAME})")
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise LedgerError(f"manifest {path}: {err}") from err
    stored = manifest.get("config_hash")
    actual = config_hash(manifest.get("config"))
    if stored != actual:
        raise LedgerError(
            f"manifest {path}: config hash {stored} does not match its "
            f"config ({actual}) — the manifest was edited or corrupted"
        )
    return manifest


@dataclass
class Ledger:
    """Open tracking backend for one campaign directory."""

    directory: Path
    manifest: dict
    store: ArtifactStore
    records: list[dict] = field(default_factory=list)
    _writer: "JournalWriter | None" = None

    @property
    def completed_ids(self) -> "set[str]":
        """Run ids with a successful record — the resume skip set."""
        return {r["run_id"] for r in self.records if r["status"] == "ok"}

    def record_run(
        self,
        run_id: str,
        runner: str,
        config: dict,
        status: str,
        metrics: dict,
        artifacts: "dict[str, str]",
    ) -> dict:
        """Append one sealed run record and fsync it — the durability
        barrier a kill can land after, never inside (a torn line is
        truncated on the next open)."""
        record = {
            "i": (self.records[-1]["i"] + 1) if self.records else 1,
            "run_id": run_id,
            "runner": runner,
            "status": status,
            "config": config,
            "metrics": metrics,
            "artifacts": artifacts,
        }
        self._writer.append(record)
        self._writer.sync()
        self.records.append(record)
        return record

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_ledger(
    directory: "str | os.PathLike", name: str, campaign_config: dict
) -> Ledger:
    """Create or resume the tracking backend for ``campaign_config``.

    A fresh directory gets a manifest; an existing one must belong to
    the *same* campaign (same config hash) — pointing a different sweep
    at a populated directory is an error, not a silent merge.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / MANIFEST_NAME
    digest = config_hash(campaign_config)
    if manifest_path.exists():
        manifest = load_manifest(directory)
        if manifest["config_hash"] != digest:
            raise LedgerError(
                f"{directory} already tracks campaign "
                f"{manifest['name']!r} (config {manifest['config_hash']}); "
                f"refusing to mix in {name!r} (config {digest})"
            )
    else:
        manifest = {"name": name, "config": campaign_config,
                    "config_hash": digest}
        tmp = manifest_path.with_name(manifest_path.name + ".tmp")
        tmp.write_text(canonical_json(manifest) + "\n", encoding="utf-8")
        os.replace(tmp, manifest_path)
    ledger_path = directory / LEDGER_NAME
    _truncate_torn_tail(ledger_path)
    records = load_records(directory)
    writer = JournalWriter(ledger_path, resume=True)
    return Ledger(
        directory=directory,
        manifest=manifest,
        store=ArtifactStore(directory / OBJECTS_DIR),
        records=records,
        _writer=writer,
    )


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
def export_jsonl(directory: "str | os.PathLike") -> str:
    """One canonical-JSON line per run: id, runner, status, metrics."""
    lines = []
    for record in load_records(directory):
        lines.append(canonical_json({
            "run_id": record["run_id"],
            "runner": record["runner"],
            "status": record["status"],
            "metrics": record["metrics"],
        }))
    return "".join(line + "\n" for line in lines)


def export_prometheus(directory: "str | os.PathLike") -> str:
    """Every numeric run metric as a labelled gauge, one scrape page."""
    manifest = load_manifest(directory)
    registry = MetricsRegistry()
    for record in load_records(directory):
        for name, value in record["metrics"].items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                continue
            registry.gauge(
                "exp_run_metric",
                "Per-run campaign metric",
                campaign=manifest["name"],
                run=record["run_id"],
                runner=record["runner"],
                metric=name,
            ).set(value)
    return registry.to_prometheus()
