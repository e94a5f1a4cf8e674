"""SLO engine on the chaos runtime: a burning budget pages and widens."""

from __future__ import annotations

import pytest

from repro.faults import (
    ChaosConfig,
    WorkerFaultSchedule,
    WorkerStall,
    chaos_runtime,
)
from repro.obs import Obs, ObsConfig, PID_SLO
from repro.obs.slo import SloEngine, parse_slo_config
from repro.serve import ServeConfig
from repro.system import DegradationLevel

#: A latency objective strict enough that the stall below must page.
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


def stall_config() -> ChaosConfig:
    serve = ServeConfig(
        n_sessions=10,
        duration_s=1.0,
        n_workers=2,
        reuse_displacement_deg=0.3,
        seed=3,
    )
    return ChaosConfig(
        serve=serve,
        fault_seed=3,
        worker_faults=WorkerFaultSchedule(
            stalls=(WorkerStall(worker_id=0, start_s=0.3, stop_s=0.55),),
        ),
    )


def run_with_slo(config_dict=STRICT_LATENCY):
    obs = Obs(ObsConfig())
    runtime = chaos_runtime(stall_config(), obs=obs)
    engine = SloEngine(parse_slo_config(config_dict), obs)
    runtime.attach_slo(engine)
    report = runtime.run()
    return runtime, engine, report


class TestPageToWiden:
    def test_stall_pages_and_widens_every_watchdog(self):
        runtime, engine, report = run_with_slo()
        (verdict,) = engine.verdicts
        assert verdict.pages >= 1
        # The page hook escalated the fleet's watchdogs to WIDENED (or
        # further, if a watchdog had already climbed on its own).
        widened = [
            w for w in runtime.chaos.watchdogs
            if any(dst != "NOMINAL" for _, _, dst in w.transitions)
        ]
        assert len(widened) == len(runtime.chaos.watchdogs)
        page_t = min(
            s.ts_s for s in engine.obs.tracer.spans()
            if s.pid == PID_SLO and s.name.endswith("->PAGE")
        )
        hook_widened = [
            w for w in runtime.chaos.watchdogs
            if any(
                t == pytest.approx(page_t) and dst == "WIDENED"
                for t, _, dst in w.transitions
            )
        ]
        assert hook_widened, "no watchdog transition at the page instant"

    def test_page_instant_precedes_widen_instants_in_trace(self):
        runtime, engine, _ = run_with_slo()
        spans = engine.obs.tracer.spans()
        page_t = min(
            s.ts_s for s in spans
            if s.pid == PID_SLO and s.name.endswith("->PAGE")
        )
        widen_t = [
            s.ts_s for s in spans
            if s.name == "watchdog.NOMINAL->WIDENED" and s.ts_s >= page_t
        ]
        assert widen_t, "PAGE did not produce watchdog widen instants"

    def test_alert_stream_is_deterministic(self):
        _, first, _ = run_with_slo()
        _, second, _ = run_with_slo()
        assert first.history_jsonl() == second.history_jsonl()
        assert first.verdicts_json() == second.verdicts_json()

    def test_non_widening_objective_only_reports(self):
        config = {
            "eval_interval_s": 0.05,
            "objectives": [
                dict(STRICT_LATENCY["objectives"][0], on_page="none")
            ],
        }
        runtime, engine, _ = run_with_slo(config)
        (verdict,) = engine.verdicts
        assert verdict.pages >= 1
        page_t = min(
            s.ts_s for s in engine.obs.tracer.spans()
            if s.pid == PID_SLO and s.name.endswith("->PAGE")
        )
        # No watchdog moved at the page instant: on_page none observes.
        assert not any(
            t == pytest.approx(page_t) and dst == "WIDENED"
            for w in runtime.chaos.watchdogs
            for t, _, dst in w.transitions
        )

    def test_attach_slo_requires_observed_runtime(self):
        obs = Obs(ObsConfig())
        engine = SloEngine(parse_slo_config(STRICT_LATENCY), obs)
        runtime = chaos_runtime(stall_config())  # no obs bundle
        with pytest.raises(ValueError, match="Obs bundle"):
            runtime.attach_slo(engine)
