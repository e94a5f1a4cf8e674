"""Canonical JSON and CRC32 — the byte-level substrate of durability.

Every durable artifact (checkpoint payloads, manifests, journal records)
is canonical JSON: sorted keys, no whitespace, ``repr``-exact floats
(Python's ``json`` emits the shortest round-tripping decimal, so a float
written and re-read is the *same* binary64 — the property bit-identical
recovery rests on).  NaN/Inf are rejected outright: no serving-state
field may legally hold them, so allowing them would only mask a bug.
"""

from __future__ import annotations

import hashlib
import json
import zlib


def canonical_json(obj) -> str:
    """Deterministic minimal JSON (sorted keys, exact float round-trip)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def canonical_bytes(obj) -> bytes:
    return canonical_json(obj).encode("utf-8")


def crc32(data: bytes) -> int:
    """Unsigned CRC32 of ``data`` (the per-payload integrity check)."""
    return zlib.crc32(data) & 0xFFFFFFFF


#: Hex digits of a :func:`config_hash` — short enough to type, long
#: enough that collisions within one campaign are out of the question.
CONFIG_HASH_LEN = 12


def config_hash(obj) -> str:
    """Canonical identity of a JSON-safe config: SHA-256 over its
    canonical bytes, truncated to :data:`CONFIG_HASH_LEN` hex digits.

    Two configs hash equal iff they serialize to the same canonical
    JSON — dict ordering never matters.  This is the run identity the
    experiment ledger (``repro.exp``) and the ``--obs`` artifact
    namespacing key on.
    """
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()[:CONFIG_HASH_LEN]


def fleet_report_bytes(report) -> bytes:
    """Canonical bytes of a :class:`~repro.serve.telemetry.FleetReport`.

    The bit-identity oracle: a recovered run and its uninterrupted twin
    must produce byte-equal output from this function.
    """
    # Cycle: serve.telemetry -> recover.configio -> recover/__init__ -> codec.
    from repro.serve.telemetry import fleet_report_state

    return canonical_bytes(fleet_report_state(report))
