"""Chaos reports are pinned bit for bit across changes to the event loop.

Every pin below is the first 16 hex digits of a sha256 computed while
each chaos frame, saccade and reuse frames included, was its own heap
ARRIVAL.  The grid covers each part of the per-frame fault step: sensor
drops, MIPI retransmits (at 1,200 fps a retransmitted frame arrives
after its successor), noise bursts and occlusion up to the watchdog's
FULL_RES rung, silicon soft errors through the SDC guard, worker stalls
and crashes, and an SLO page that widens every watchdog.  A run may
become cheaper to simulate; its report, CLI output and alert stream may
not move.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.faults import (
    ChaosConfig,
    InputFaultConfig,
    WorkerFaultSchedule,
    WorkerStall,
    chaos_runtime,
    default_chaos_scenario,
)
from repro.obs import Obs, ObsConfig
from repro.obs.slo import SloEngine, parse_slo_config
from repro.recover import fleet_report_bytes
from repro.reliability.softerror import SoftErrorConfig
from repro.serve import ServeConfig

SLO_CONFIG = Path(__file__).resolve().parents[2] / "examples" / "slo" / "serve.slo.json"
CI = ["chaos", "--sessions", "12", "--duration", "1", "--seed", "7"]


def sha(data: "bytes | str") -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()[:16]


def small(seed: int, **input_faults) -> ChaosConfig:
    base = default_chaos_scenario(seed=seed)
    return replace(
        base,
        serve=replace(base.serve, n_sessions=6, duration_s=1.0),
        input_faults=replace(base.input_faults, **input_faults),
    )


def soft_errors() -> ChaosConfig:
    return replace(
        small(4), soft_errors=SoftErrorConfig(fit_per_mbit=500.0, acceleration=2e11)
    )


def full_res() -> ChaosConfig:
    # Noise bursts this large push the online P95 past 4x delta-theta.
    return small(
        5, occlusion_rate_hz=2.0, noise_burst_rate_hz=2.0,
        noise_burst_std_deg=10.0, noise_burst_duration_s=0.4,
    )


def fast_link() -> ChaosConfig:
    # The 0.84 ms retransmit exceeds the 0.83 ms frame period.
    return ChaosConfig(
        serve=ServeConfig(
            n_sessions=4, duration_s=0.25, fps=1200, n_workers=2,
            reuse_displacement_deg=0.1, queue_budget_deadlines=4.0, seed=2,
        ),
        input_faults=InputFaultConfig(bit_error_rate=1e-7, frame_drop_rate=0.05),
        worker_faults=WorkerFaultSchedule(
            stalls=(WorkerStall(worker_id=0, start_s=0.02, stop_s=0.15),),
        ),
        fault_seed=2,
    )


def widen() -> ChaosConfig:
    # tests/faults/test_slo_integration.py's stall: the budget pages.
    return ChaosConfig(
        serve=ServeConfig(
            n_sessions=10, duration_s=1.0, n_workers=2,
            reuse_displacement_deg=0.3, seed=3,
        ),
        fault_seed=3,
        worker_faults=WorkerFaultSchedule(
            stalls=(WorkerStall(worker_id=0, start_s=0.3, stop_s=0.55),),
        ),
    )


STRICT_LATENCY = {
    "eval_interval_s": 0.05,
    "objectives": [{
        "name": "frame_deadline",
        "kind": "ratio",
        "total": {"metric": "serve_frame_latency_seconds"},
        "bad": {"metric": "serve_frame_latency_seconds", "above_s": 0.01},
        "target": 0.999,
        "window_s": 0.4,
        "fast_window_s": 0.1,
        "min_events": 10,
        "on_page": "widen",
    }],
}

#: name -> (config, sha of fleet_report_bytes).
REPORTS = {
    "default-0": (lambda: default_chaos_scenario(seed=0), "4e3fde61e586ae74"),
    "default-1": (lambda: default_chaos_scenario(seed=1), "a870ca11f030598c"),
    "default-2": (lambda: default_chaos_scenario(seed=2), "dd314057248d6973"),
    "soft-errors": (soft_errors, "678cc58acdcd74c7"),
    "full-res": (full_res, "805eda5afaade6d1"),
    "fast-link": (fast_link, "b3ee7b7a5bf33892"),
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_chaos_report_is_pinned(name):
    build, digest = REPORTS[name]
    assert sha(fleet_report_bytes(chaos_runtime(build()).run())) == digest


def test_the_grid_reaches_every_fault_step():
    soft = chaos_runtime(soft_errors()).run().faults
    assert soft.soft_errors_injected > 0 and soft.sdc_detected > 0
    lost = chaos_runtime(full_res()).run().faults
    assert lost.watchdog_full_res_frames > 0 and lost.occlusion_degraded > 0
    runtime = chaos_runtime(fast_link())
    runtime.run()
    # A retransmitted frame whose successor arrives before it does.
    assert any(
        trace.corrupted[i] and not trace.dropped[i] and not trace.dropped[i + 1]
        for trace in runtime.chaos.traces
        for i in range(trace.n_frames - 1)
    )
    assert runtime.chaos.report.mipi_corrupted_frames > 0
    assert runtime.chaos.report.batch_failures > 0


def test_widening_page_is_pinned():
    obs = Obs(ObsConfig())
    runtime = chaos_runtime(widen(), obs=obs)
    engine = SloEngine(parse_slo_config(STRICT_LATENCY), obs)
    runtime.attach_slo(engine)
    report = runtime.run()
    history = engine.history_jsonl()
    assert '"state":"PAGE"' in history
    assert (sha(fleet_report_bytes(report)), sha(history)) == (
        "223eabfef48dccfc", "66364678d37d2882",
    )


def run_cli(argv: "list[str]", capsys) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


#: name -> (argv, sha of stdout).
CLI = {
    "ci": (CI, "af8cb53ced439f2d"),
    "soft-errors": (
        ["chaos", "--sessions", "6", "--duration", "0.5", "--seed", "2",
         "--soft-error-fit", "500", "--soft-error-accel", "2e11"],
        "9fb0545cfe90c542",
    ),
}


@pytest.mark.parametrize("name", sorted(CLI))
def test_chaos_stdout_is_pinned(name, capsys):
    argv, digest = CLI[name]
    assert sha(run_cli(argv, capsys)) == digest


def test_ci_slo_run_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = run_cli(CI + ["--slo", str(SLO_CONFIG), "--obs", "--obs-out", "slo"], capsys)
    history = (tmp_path / "slo" / "slo.jsonl").read_text()
    assert '"state":"PAGE"' in history
    assert (sha(out), sha(history)) == ("ddc872f5a1f434a8", "577987ea46eca786")
