"""Chaos checkpoints are pinned bit for bit.

A checkpoint stores ``canonical_bytes(runtime.state_dict())`` and a
manifest naming the run's kind and config.  Pinning both at fixed
events proves that a checkpoint written by one build still loads, and
continues identically, after the runtime is restructured: the state
keys (``faults``, ``cursors``, ``watchdogs``, ``sdc``), their order and
their values may not move.

Both runs are built the way ``python -m repro chaos`` and ``recover``
build them, from campaign params through :mod:`repro.recover.kinds`:

* the CI scenario (``chaos --sessions 12 --duration 1 --seed 7``, 177
  events), whose worker 0 breaker is OPEN at event 150;
* the soft-error scenario (``chaos --sessions 6 --duration 0.5 --seed 2
  --soft-error-fit 500 --soft-error-accel 2e11``, 100 events, 21 upsets,
  4 detections), whose snapshots carry the SDC guards.
"""

from __future__ import annotations

import hashlib
import json

from repro.recover import canonical_bytes
from repro.recover.kinds import build_runtime, resolve_run_config
from repro.recover.manager import run_with_checkpoints
from repro.serve.breaker import BreakerState

CI = {"seed": 7, "serve": {"n_sessions": 12, "duration_s": 1.0}}
SOFT = {
    "seed": 2,
    "serve": {"n_sessions": 6, "duration_s": 0.5},
    "soft_error_fit": 500.0,
    "soft_error_accel": 2e11,
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def build(params: dict):
    return build_runtime(resolve_run_config("chaos", params))


def state_digests(params: dict, events: "tuple[int, ...]") -> dict:
    """sha of the state after ``start()`` (key 0), after each of
    ``events``, after the last event and after ``finish()``."""
    runtime = build(params)
    runtime.start()
    digests = {0: sha(canonical_bytes(runtime.state_dict()))}
    while runtime.step():
        if runtime.events_processed in events:
            digests[runtime.events_processed] = sha(
                canonical_bytes(runtime.state_dict())
            )
    digests["last"] = sha(canonical_bytes(runtime.state_dict()))
    runtime.finish()
    digests["finished"] = sha(canonical_bytes(runtime.state_dict()))
    return digests


def test_ci_scenario_checkpoints_are_pinned():
    assert state_digests(CI, (150,)) == {
        0: "6faa307025bb4c26",
        150: "25a18e2cadeec103",
        "last": "7e3158c8863f1231",
        "finished": "ec0295145f99ff1a",
    }


def test_ci_scenario_event_150_holds_an_open_breaker():
    runtime = build(CI)
    runtime.start()
    while runtime.events_processed < 150:
        runtime.step()
    now = runtime.peek_event()[0]
    assert runtime.pool.breakers[0].state(now) is BreakerState.OPEN


def test_soft_error_checkpoints_are_pinned():
    runtime = build(SOFT)
    runtime.start()
    while runtime.events_processed < 60:
        runtime.step()
    assert runtime.state_dict()["sdc"]["guards"] is not None
    report = runtime.run()
    assert runtime.events_processed == 100
    assert (report.faults.soft_errors_injected, report.faults.sdc_detected) == (21, 4)
    assert state_digests(SOFT, (60,)) == {
        0: "e0bb226b8f4448af",
        60: "f022b207177b3c24",
        "last": "58a50fbb7b1e5fab",
        "finished": "70525b65d04607a8",
    }


def test_manifest_kind_and_config_are_pinned(tmp_path):
    pins = {"ci": (CI, "1b025f000d916653"), "soft": (SOFT, "a8ef92755bb68b26")}
    for name, (params, digest) in pins.items():
        directory = tmp_path / name
        run_with_checkpoints(build(params), directory, every=25)
        manifest = json.loads(
            (directory / "ckpt-000000000.manifest.json").read_bytes()
        )
        assert manifest["kind"] == "chaos"
        pinned = {"kind": manifest["kind"], "config": manifest["config"]}
        assert sha(canonical_bytes(pinned)) == digest, name
