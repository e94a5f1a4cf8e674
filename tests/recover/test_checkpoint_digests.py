"""Serve and fleet checkpoints are pinned bit for bit.

A checkpoint stores ``canonical_bytes(runtime.state_dict())`` and a
manifest embedding the run's config.  Pinning both at fixed events
proves that the snapshot format does not move when the code that writes
and reads it is restructured: every key, value, list order and number
spelling of every section stays put.  Chaos runs are pinned the same
way in ``tests/faults/test_chaos_checkpoint_digests.py``.

The runs are built from campaign params through
:mod:`repro.recover.kinds`, as ``python -m repro`` and ``recover`` build
them:

* a serve run (24 sessions x 1 s, 221 events);
* a direct fleet (325 events) whose rebalancer spawns a shard and later
  drains it, with a planned migration and a shard kill;
* a ``--net`` fleet (3,491 events) with a partition, a gray window,
  drops, duplicates and ``on_exhaust="drop"`` exhaustion, whose detector
  suspects and heals two shards.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.recover import canonical_bytes
from repro.recover.kinds import build_runtime, resolve_run_config
from repro.recover.manager import run_with_checkpoints

SERVE = {"n_sessions": 24, "duration_s": 1.0, "n_workers": 2}

DIRECT = {
    "serve": {
        "n_sessions": 32, "duration_s": 0.6, "n_workers": 1,
        "reuse_displacement_deg": 0.3, "queue_budget_deadlines": 0.8,
        "seed": 0,
    },
    "n_shards": 2,
    "kills": [{"shard_id": 1, "at_s": 0.45}],
    "migrations": [{"session_id": 3, "at_s": 0.2, "to_shard": 0}],
    "rebalancer": {
        "interval_s": 0.1, "p95_high_s": 2.5e-3, "p95_low_s": 2.1e-3,
        "cooldown_s": 0.1,
    },
}

NET = {
    "serve": {
        "n_sessions": 16, "duration_s": 0.5, "n_workers": 1,
        "reuse_displacement_deg": 0.05, "seed": 0,
    },
    "n_shards": 3,
    "net": {
        "enabled": True,
        "seed": 4,
        "link": {
            "drop_rate": 0.3, "dup_rate": 0.1, "delay_s": 5e-4,
            "jitter_s": 1e-3,
        },
        "partitions": [{"start_s": 0.15, "stop_s": 0.3, "shard_ids": [1]}],
        "gray": [{"shard_id": 0, "start_s": 0.32, "stop_s": 0.4}],
        "ack_timeout_s": 4e-3,
        "max_retransmits": 2,
        "on_exhaust": "drop",
    },
}

RUNS = {
    "serve": ("serve", SERVE, 25),
    "direct": ("fleet", DIRECT, 25),
    "net": ("fleet", NET, 250),
}

#: sha of the state after ``start()`` (key 0), after every ``every``-th
#: event, after the last event and after ``finish()``.
STATE_PINS = {
    "serve": {
        0: "a8c9ebc552c31659",
        25: "366756cbe4ed6197",
        50: "aeef8f3309208f15",
        75: "7e42ad4df146f0c1",
        100: "3aa991483234904c",
        125: "33f22a50bc11013e",
        150: "114bbfc2f5a9906f",
        175: "93dbfcf54d28468e",
        200: "64a74a1413fa63ff",
        "last": "0f10269ee308e578",
        "finished": "8c492b5d49805bc0",
    },
    "direct": {
        0: "6bd5e725ba09f68f",
        25: "0dd8f15140eb8572",
        50: "11e04b872ff82b57",
        75: "2f814961d138d9bf",
        100: "e041e8b3e72c32f4",
        125: "317f4691e7c46d6f",
        150: "63e10cf32252845b",
        175: "4b9e6223cfd69cf7",
        200: "15081d23fc53efd7",
        225: "9be53f4f53296db8",
        250: "37e4682766f68853",
        275: "56e3f22298be78bb",
        300: "d09ff4142e56bfe9",
        325: "c6a54cf7445f0d3c",
        "last": "c6a54cf7445f0d3c",
        "finished": "60c0b841d505f501",
    },
    "net": {
        0: "400f9ba2a69c14f1",
        250: "ea433c2fc6bdf391",
        500: "6cfcc7c3ee79bca0",
        750: "35321cf21d860f1f",
        1000: "27c8af68f0f5ae11",
        1250: "baa761c0693052c5",
        1500: "ecfd14cbea51d8b2",
        1750: "f0ed97adfd57b9a0",
        2000: "5cb1ce73941e85fa",
        2250: "b6904947c6cc83ed",
        2500: "b20c0a7ad43aa0c6",
        2750: "73534a77cf73c297",
        3000: "33b052d2f08d026e",
        3250: "17f053da78a7e9e3",
        "last": "0263439a4016ea1e",
        "finished": "9f8812ddda9f557b",
    },
}

#: sha of the first checkpoint manifest's ``{"kind", "config"}``.
MANIFEST_PINS = {
    "serve": "90988dcb1bf33e2e",
    "direct": "7a7c3e8fec94d71f",
    "net": "e3d1a536ea395b0c",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def build(name: str):
    kind, params, _ = RUNS[name]
    return build_runtime(resolve_run_config(kind, params))


def state_digests(name: str) -> dict:
    every = RUNS[name][2]
    runtime = build(name)
    runtime.start()
    digests = {0: sha(canonical_bytes(runtime.state_dict()))}
    while runtime.step():
        if runtime.events_processed % every == 0:
            digests[runtime.events_processed] = sha(
                canonical_bytes(runtime.state_dict())
            )
    digests["last"] = sha(canonical_bytes(runtime.state_dict()))
    runtime.finish()
    digests["finished"] = sha(canonical_bytes(runtime.state_dict()))
    return digests


def test_runs_exercise_what_they_pin():
    direct = build("direct").run()
    log = direct.shards.log
    assert (log.rebalance_spawns, log.rebalance_drains) == (1, 1)
    assert len(log.failovers) == 1
    assert "plan" in [m["reason"] for m in log.migrations]
    net = build("net").run().net
    assert net.counters["exhausted_lost"] > 0
    assert net.counters["false_suspects"] == net.counters["heals"] == 2
    assert net.n_partitions == net.n_gray == 1


@pytest.mark.parametrize("name", sorted(RUNS))
def test_checkpoint_states_are_pinned(name):
    assert state_digests(name) == STATE_PINS[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_manifest_kind_and_config_are_pinned(name, tmp_path):
    kind, _, every = RUNS[name]
    run_with_checkpoints(build(name), tmp_path, every=every)
    manifest = json.loads((tmp_path / "ckpt-000000000.manifest.json").read_bytes())
    assert manifest["kind"] == kind
    pinned = {"kind": manifest["kind"], "config": manifest["config"]}
    assert sha(canonical_bytes(pinned)) == MANIFEST_PINS[name]
