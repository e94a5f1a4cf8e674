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

* a serve run (24 sessions x 1 s, 205 events);
* a direct fleet (305 events) whose rebalancer spawns a shard and later
  drains it, with a planned migration and a shard kill;
* a ``--net`` fleet (3,311 events) with a partition, a gray window,
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
        0: "9a72bf0c26af0b74",
        25: "a2df31c470f3dd05",
        50: "e970f678f906b315",
        75: "64cdebd01d8bea66",
        100: "f0e237cd47940174",
        125: "e7ab8fd6a6531d61",
        150: "59dfaa8d9dbece51",
        175: "acfa46aa1f07e045",
        200: "24ad91a951f82ee1",
        "last": "8c5a3bb32ab37b5f",
        "finished": "9b74fc9af29474e3",
    },
    "direct": {
        0: "a83889e1c7748e3e",
        25: "c468f03af58d28af",
        50: "5646fe5dea4a6e78",
        75: "ff0f9e085914786d",
        100: "f02dbf114ee3b88d",
        125: "ed237fc14c99e1f7",
        150: "3ba297309bd43155",
        175: "fa60c6f7496b794a",
        200: "b907968943805814",
        225: "341db1137a4a45f5",
        250: "73b4607f855c9eea",
        275: "f6d1a91b61d5db6c",
        300: "6bfbfa6ae71b1b6e",
        "last": "7acef05f789892aa",
        "finished": "d8184e8976b14f75",
    },
    "net": {
        0: "dedeb03ec2707ffb",
        250: "13227bac36cb9990",
        500: "2b16f96cb40b9bd9",
        750: "631aa2c9b29a790d",
        1000: "a56e0c009735d7e6",
        1250: "fc59bdeb557e96c0",
        1500: "9535db7afe1bac8a",
        1750: "30bb72b79570e8dc",
        2000: "6b45f4ca8b7210ac",
        2250: "0fcfcdb0ef588be4",
        2500: "d499fee6fe7d1d57",
        2750: "ecf432db59976386",
        3000: "ee76d20acbb68f32",
        3250: "97917f015c3903b7",
        "last": "867b9efdcb8fd72c",
        "finished": "3ab6e0a9676c2822",
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
