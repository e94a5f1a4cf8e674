"""Online SLO engine: config parsing, burn math, alerting, verdicts."""

from __future__ import annotations

import json

import pytest

from repro.obs import Obs, ObsConfig, PID_SLO
from repro.obs.slo import (
    BURN_CAP,
    MetricRef,
    SloConfig,
    SloConfigError,
    SloEngine,
    SloObjective,
    default_slo_config,
    evaluate_summary,
    format_summary_verdicts,
    load_slo_config,
    parse_slo_config,
    parse_summary_slo,
    resolve_slo_config,
    summary_verdict_metrics,
)

LATENCY = {"metric": "serve_frame_latency_seconds"}


def ratio_objective(**overrides) -> dict:
    base = {
        "name": "frame_deadline",
        "kind": "ratio",
        "total": dict(LATENCY),
        "bad": dict(LATENCY, above_s=0.01),
        "target": 0.95,
        "window_s": 0.4,
        "fast_window_s": 0.1,
    }
    base.update(overrides)
    return base


def make_config(**objective_overrides) -> SloConfig:
    return parse_slo_config({
        "eval_interval_s": 0.05,
        "objectives": [ratio_objective(**objective_overrides)],
    })


def make_engine(config: SloConfig) -> SloEngine:
    return SloEngine(config, Obs(ObsConfig()))


class TestConfigParsing:
    def test_round_trip_of_a_full_config(self):
        config = parse_slo_config({
            "eval_interval_s": 0.02,
            "objectives": [ratio_objective(min_events=5, on_page="widen")],
            "summary_objectives": [
                {"name": "miss", "metric": "miss_rate", "op": "<=",
                 "target": 0.05},
            ],
        })
        (objective,) = config.objectives
        assert objective.error_budget == pytest.approx(0.05)
        assert objective.bad.above_s == pytest.approx(0.01)
        assert objective.on_page == "widen"
        assert config.summary_objectives[0].op == "<="
        assert config.eval_interval_s == pytest.approx(0.02)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SloConfigError, match="unknown slo params"):
            parse_slo_config({"objectives": [], "alerting": {}})

    def test_empty_config_rejected(self):
        with pytest.raises(SloConfigError, match="no objectives"):
            parse_slo_config({"objectives": []})

    def test_unknown_metric_rejected(self):
        with pytest.raises(SloConfigError, match="unknown metric"):
            make_config(total={"metric": "typo_latency_seconds"})

    def test_fast_window_must_be_shorter(self):
        with pytest.raises(SloConfigError, match="fast_window_s"):
            make_config(fast_window_s=0.4)

    def test_ratio_target_must_be_a_fraction(self):
        with pytest.raises(SloConfigError, match="ratio target"):
            make_config(target=1.0)

    def test_ratio_needs_a_bad_ref(self):
        objective = ratio_objective()
        del objective["bad"]
        with pytest.raises(SloConfigError, match="'bad' ref"):
            parse_slo_config({"objectives": [objective]})

    def test_rate_min_takes_no_bad_ref(self):
        with pytest.raises(SloConfigError, match="no 'bad' ref"):
            make_config(kind="rate_min", target=100.0)

    def test_warn_burn_must_not_exceed_page_burn(self):
        with pytest.raises(SloConfigError, match="warn_burn"):
            make_config(warn_burn=5.0, page_burn=4.0)

    def test_duplicate_names_rejected(self):
        with pytest.raises(SloConfigError, match="duplicate"):
            parse_slo_config({
                "objectives": [ratio_objective(), ratio_objective()],
            })

    def test_uppercase_name_rejected(self):
        with pytest.raises(SloConfigError, match="lowercase"):
            make_config(name="FrameDeadline")

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(SloConfigError, match="unreadable"):
            load_slo_config(tmp_path / "nope.slo.json")

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.slo.json"
        path.write_text("{not json")
        with pytest.raises(SloConfigError, match="invalid JSON"):
            load_slo_config(path)

    def test_resolve_default_uses_the_run_deadline(self):
        config = resolve_slo_config("default", deadline_s=0.007)
        (objective,) = config.objectives
        assert objective.bad.above_s == pytest.approx(0.007)
        assert objective.on_page == "widen"


class TestBurnRates:
    def feed(self, engine, t, latencies):
        hist = engine.obs.metrics.histogram(
            "serve_frame_latency_seconds", "Frame latency"
        )
        for value in latencies:
            hist.observe(value)
        engine.maybe_evaluate(t)

    def test_clean_stream_burns_zero(self):
        engine = make_engine(make_config())
        self.feed(engine, 0.05, [0.002] * 50)
        row = engine.history[-1]
        assert row["burn_fast"] == 0.0
        assert row["burn_slow"] == 0.0
        assert row["state"] == "OK"

    def test_ratio_burn_is_bad_fraction_over_budget(self):
        engine = make_engine(make_config())
        # 10% bad against a 5% budget: burn 2.0 on both windows.
        self.feed(engine, 0.05, [0.002] * 90 + [0.02] * 10)
        row = engine.history[-1]
        assert row["burn_fast"] == pytest.approx(2.0)
        assert row["burn_slow"] == pytest.approx(2.0)

    def test_min_events_holds_state_and_history(self):
        engine = make_engine(make_config(min_events=100))
        self.feed(engine, 0.05, [0.02] * 99)  # 100% bad, but too few
        assert engine.history == []
        assert engine._states[0].state == "OK"

    def test_rate_min_burn_is_target_over_observed(self):
        config = parse_slo_config({"objectives": [{
            "name": "rate_floor", "kind": "rate_min",
            "total": dict(LATENCY), "target": 1000.0,
            "window_s": 0.4, "fast_window_s": 0.1,
        }]})
        engine = make_engine(config)
        # 100 events in 0.2 s = 500/s against a 1000/s floor: burn 2.
        self.feed(engine, 0.1, [0.001] * 50)
        self.feed(engine, 0.2, [0.001] * 50)
        assert engine.history[-1]["burn_slow"] == pytest.approx(2.0)

    def test_rate_min_outage_burn_is_capped(self):
        config = parse_slo_config({"objectives": [{
            "name": "rate_floor", "kind": "rate_min",
            "total": dict(LATENCY), "target": 1000.0,
            "window_s": 0.4, "fast_window_s": 0.1,
        }]})
        engine = make_engine(config)
        self.feed(engine, 0.2, [])  # no events at all
        assert engine.history[-1]["burn_fast"] == BURN_CAP


class TestStateMachine:
    @pytest.mark.parametrize(
        "state,page,warn,expected",
        [
            ("OK", False, False, "OK"),
            ("OK", False, True, "WARN"),
            ("OK", True, True, "PAGE"),
            ("WARN", True, True, "PAGE"),
            ("WARN", False, False, "OK"),
            ("PAGE", True, True, "PAGE"),
            ("PAGE", False, True, "PAGE"),
            ("PAGE", False, False, "RESOLVED"),
            ("RESOLVED", False, False, "OK"),
            ("RESOLVED", False, True, "WARN"),
            ("RESOLVED", True, True, "PAGE"),
        ],
    )
    def test_transitions(self, state, page, warn, expected):
        assert SloEngine._next_state(state, page, warn) == expected

    def run_burst_scenario(self):
        """A bad burst that pages, then a long clean recovery."""
        engine = make_engine(make_config(min_events=10))
        hist = engine.obs.metrics.histogram(
            "serve_frame_latency_seconds", "Frame latency"
        )
        for step in range(1, 21):  # 1.0 s in 0.05 s steps
            bad = 5 if step <= 4 else 0  # 25% bad during the burst
            for _ in range(bad):
                hist.observe(0.02)
            for _ in range(20 - bad):
                hist.observe(0.002)
            engine.maybe_evaluate(step * 0.05)
        return engine

    def test_page_fires_and_resolves_to_ok(self):
        engine = self.run_burst_scenario()
        states = [row["state"] for row in engine.history]
        assert "PAGE" in states
        assert "RESOLVED" in states
        assert states[-1] == "OK"
        # Once resolved the machine never re-pages on this trace.
        assert states.index("RESOLVED") > states.index("PAGE")

    def test_page_emits_instant_on_slo_track_and_counts(self):
        engine = self.run_burst_scenario()
        spans = [
            s for s in engine.obs.tracer.spans()
            if s.pid == PID_SLO and "PAGE" in s.name
        ]
        assert any("->PAGE" in s.name for s in spans)
        pages = engine.obs.metrics.get("slo_pages_total", slo="frame_deadline")
        assert pages is not None and pages.value == 1

    def test_on_page_hook_fires_with_objective_and_time(self):
        engine = make_engine(make_config(min_events=10, on_page="widen"))
        fired = []
        engine.on_page = lambda objective, now_s: fired.append(
            (objective.name, now_s)
        )
        hist = engine.obs.metrics.histogram(
            "serve_frame_latency_seconds", "Frame latency"
        )
        for _ in range(50):
            hist.observe(0.02)  # 100% bad
        engine.maybe_evaluate(0.05)
        assert fired == [("frame_deadline", 0.05)]

    def test_engine_requires_enabled_obs(self):
        from repro.obs.config import NULL_OBS

        with pytest.raises(ValueError, match="enabled Obs"):
            SloEngine(make_config(), NULL_OBS)


class TestVerdicts:
    def test_finalize_is_idempotent_and_verdicts_flat_metrics(self):
        engine = make_engine(make_config())
        hist = engine.obs.metrics.histogram(
            "serve_frame_latency_seconds", "Frame latency"
        )
        for _ in range(90):
            hist.observe(0.002)
        for _ in range(10):
            hist.observe(0.02)
        first = engine.finalize(1.0)
        assert engine.finalize(5.0) is first
        (verdict,) = first
        assert verdict.attained == pytest.approx(0.9)
        assert not verdict.ok
        flat = engine.verdict_metrics()
        assert flat["slo_pass_frame_deadline"] == 0.0
        assert flat["slo_failed_total"] == 1.0

    def test_verdict_gauges_exported_to_prometheus(self):
        engine = make_engine(make_config())
        hist = engine.obs.metrics.histogram(
            "serve_frame_latency_seconds", "Frame latency"
        )
        for _ in range(40):
            hist.observe(0.002)
        engine.finalize(1.0)
        text = engine.obs.metrics.to_prometheus()
        assert 'slo_attainment{slo="frame_deadline"} 1' in text
        assert 'slo_ok{slo="frame_deadline"} 1' in text

    def test_verdicts_raise_before_finalize(self):
        engine = make_engine(make_config())
        with pytest.raises(RuntimeError, match="finalize"):
            engine.verdicts

    def test_history_and_verdict_artifacts_are_canonical_json(self):
        engine = make_engine(make_config())
        hist = engine.obs.metrics.histogram(
            "serve_frame_latency_seconds", "Frame latency"
        )
        for _ in range(40):
            hist.observe(0.002)
        engine.maybe_evaluate(0.3)
        engine.finalize(0.3)
        for line in engine.history_jsonl().splitlines():
            row = json.loads(line)
            assert set(row) == {
                "t", "slo", "burn_fast", "burn_slow", "state", "total", "bad"
            }
        (verdict,) = json.loads(engine.verdicts_json())
        assert verdict["name"] == "frame_deadline"

    def test_identical_runs_produce_identical_artifacts(self):
        def run():
            engine = make_engine(make_config(min_events=10))
            hist = engine.obs.metrics.histogram(
                "serve_frame_latency_seconds", "Frame latency"
            )
            for step in range(1, 11):
                bad = 3 if step in (4, 5) else 0
                for _ in range(bad):
                    hist.observe(0.02)
                for _ in range(15 - bad):
                    hist.observe(0.002)
                engine.maybe_evaluate(step * 0.05)
            engine.finalize(0.5)
            return engine.history_jsonl() + engine.verdicts_json()

        assert run() == run()

    def test_default_config_passes_a_clean_run(self):
        engine = make_engine(default_slo_config(deadline_s=0.01))
        hist = engine.obs.metrics.histogram(
            "serve_frame_latency_seconds", "Frame latency"
        )
        for _ in range(200):
            hist.observe(0.003)
        (verdict,) = engine.finalize(1.0)
        assert verdict.ok and verdict.pages == 0


class TestSummaryObjectives:
    OBJECTIVES = parse_summary_slo({"objectives": [
        {"name": "miss", "metric": "miss_rate", "op": "<=", "target": 0.05},
        {"name": "fps", "metric": "throughput_fps", "op": ">=",
         "target": 500.0},
    ]})

    def test_pass_and_fail_against_flat_metrics(self):
        rows = evaluate_summary(
            self.OBJECTIVES, {"miss_rate": 0.01, "throughput_fps": 300.0}
        )
        assert [row["ok"] for row in rows] == [True, False]
        flat = summary_verdict_metrics(rows)
        assert flat["slo_pass_miss"] == 1.0
        assert flat["slo_pass_fps"] == 0.0
        assert flat["slo_failed_total"] == 1.0

    def test_missing_metric_fails_never_passes(self):
        rows = evaluate_summary(self.OBJECTIVES, {"miss_rate": 0.01})
        fps = next(row for row in rows if row["name"] == "fps")
        assert fps["value"] is None and not fps["ok"]
        table = format_summary_verdicts(rows)
        assert "FAIL" in table and "-" in table

    def test_campaign_block_validation(self):
        with pytest.raises(SloConfigError, match="unknown keys"):
            parse_summary_slo({"objectives": [], "window_s": 1})
        with pytest.raises(SloConfigError, match="non-empty list"):
            parse_summary_slo({"objectives": []})
        with pytest.raises(SloConfigError, match="must be a dict"):
            parse_summary_slo([])


class TestExampleConfig:
    def test_shipped_example_parses_and_lints(self):
        from pathlib import Path

        from repro.obs.lint import lint_slo

        example = (
            Path(__file__).resolve().parents[2]
            / "examples" / "slo" / "serve.slo.json"
        )
        config = load_slo_config(example)
        assert any(o.on_page == "widen" for o in config.objectives)
        assert config.summary_objectives
        assert lint_slo(example) == []
