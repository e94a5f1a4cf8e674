"""Campaign execution: identity, resume, kill/resume, determinism."""

from __future__ import annotations

import pytest

from repro.exp.errors import CampaignConfigError, CampaignKilled
from repro.exp.runner import resolve_campaign, run_campaign
from repro.exp.runners import execute_spec, resolve_spec
from repro.exp.track import LEDGER_NAME, load_records
from repro.experiments.cli import run_analytic


class TestIdentity:
    def test_run_id_is_spelling_independent(self, fake_runner):
        explicit = resolve_spec("echo", {"value": 1.0, "fail": False})
        defaulted = resolve_spec("echo", {"value": 1})
        assert explicit.run_id == defaulted.run_id

    def test_unknown_runner_is_rejected(self):
        with pytest.raises(CampaignConfigError, match="unknown runner"):
            resolve_spec("warp", {})

    def test_bad_params_are_rejected_at_resolve_time(self, fake_runner):
        with pytest.raises(CampaignConfigError, match="rejected"):
            resolve_spec("echo", {"bogus": 1})

    def test_equivalent_sweep_points_collapse_to_one_run(self, fake_runner):
        _, specs = resolve_campaign({
            "name": "dup",
            "runs": [
                {"runner": "echo", "params": {"value": 1.0}},
                {"runner": "echo", "params": {"value": 1.0, "fail": False}},
                {"runner": "echo", "params": {"value": 2.0}},
            ],
        })
        assert len(specs) == 2


class TestExecution:
    def test_fresh_campaign_executes_everything(self, fake_runner,
                                                echo_campaign, tmp_path):
        result = run_campaign(echo_campaign, tmp_path)
        assert (result.total, result.skipped, result.executed,
                result.failed) == (4, 0, 4, 0)
        assert result.summary_line() == (
            "campaign echo-sweep: 4 runs (0 cached, 4 executed, 0 failed)"
        )

    def test_identical_rerun_is_a_full_cache_hit(self, fake_runner,
                                                 echo_campaign, tmp_path):
        run_campaign(echo_campaign, tmp_path)
        before = (tmp_path / LEDGER_NAME).read_bytes()
        result = run_campaign(echo_campaign, tmp_path)
        assert (result.skipped, result.executed) == (4, 0)
        assert (tmp_path / LEDGER_NAME).read_bytes() == before

    def test_failed_runs_are_recorded_and_retried(self, fake_runner, tmp_path):
        campaign = {
            "name": "flaky",
            "runs": [{"runner": "echo",
                      "list": [{"value": 1.0}, {"value": 2.0, "fail": True}]}],
        }
        result = run_campaign(campaign, tmp_path)
        assert (result.executed, result.failed) == (1, 1)
        failed = [r for r in load_records(tmp_path) if r["status"] == "failed"]
        assert len(failed) == 1
        assert "error.txt" in failed[0]["artifacts"]
        # A rerun retries the failure (and re-records it) but not the success.
        again = run_campaign(campaign, tmp_path)
        assert (again.skipped, again.failed) == (1, 1)

    def test_ledger_is_byte_deterministic_across_directories(
            self, fake_runner, echo_campaign, tmp_path):
        run_campaign(echo_campaign, tmp_path / "a")
        run_campaign(echo_campaign, tmp_path / "b")
        assert ((tmp_path / "a" / LEDGER_NAME).read_bytes()
                == (tmp_path / "b" / LEDGER_NAME).read_bytes())


class TestKillAndResume:
    def test_kill_after_runs_raises_and_persists_the_prefix(
            self, fake_runner, echo_campaign, tmp_path):
        with pytest.raises(CampaignKilled):
            run_campaign(echo_campaign, tmp_path, kill_after_runs=2)
        assert len(load_records(tmp_path)) == 2

    def test_resume_skips_the_completed_prefix_exactly(
            self, fake_runner, echo_campaign, tmp_path):
        with pytest.raises(CampaignKilled):
            run_campaign(echo_campaign, tmp_path, kill_after_runs=3)
        result = run_campaign(echo_campaign, tmp_path)
        assert (result.skipped, result.executed) == (3, 1)

    def test_resumed_ledger_byte_equals_an_uninterrupted_one(
            self, fake_runner, echo_campaign, tmp_path):
        run_campaign(echo_campaign, tmp_path / "whole")
        with pytest.raises(CampaignKilled):
            run_campaign(echo_campaign, tmp_path / "killed", kill_after_runs=2)
        run_campaign(echo_campaign, tmp_path / "killed")
        assert ((tmp_path / "killed" / LEDGER_NAME).read_bytes()
                == (tmp_path / "whole" / LEDGER_NAME).read_bytes())


class TestRealRunners:
    """End-to-end at tiny scale: the acceptance sweep spans three runner
    families and the process pool preserves ledger bytes."""

    CAMPAIGN = {
        "name": "accept",
        "runs": [
            {"runner": "serve",
             "params": {"n_sessions": 2, "duration_s": 0.1}, "seeds": [0, 1]},
            {"runner": "chaos",
             "params": {"serve": {"n_sessions": 2, "duration_s": 0.1}}},
            {"runner": "sdc",
             "params": {"n_frames": 20, "fit_rates": [2000.0],
                        "protections": ["unprotected", "abft"]}},
        ],
    }

    def test_three_runner_sweep_round_trips(self, tmp_path):
        result = run_campaign(self.CAMPAIGN, tmp_path)
        assert (result.total, result.executed, result.failed) == (4, 4, 0)
        assert {r["runner"] for r in result.records} == {"serve", "chaos", "sdc"}
        again = run_campaign(self.CAMPAIGN, tmp_path)
        assert (again.skipped, again.executed) == (4, 0)

    def test_process_pool_matches_sequential_ledger_bytes(self, tmp_path):
        run_campaign(self.CAMPAIGN, tmp_path / "seq")
        run_campaign(self.CAMPAIGN, tmp_path / "par", workers=2)
        assert ((tmp_path / "seq" / LEDGER_NAME).read_bytes()
                == (tmp_path / "par" / LEDGER_NAME).read_bytes())


def test_paper_runner_executes_an_analytic_experiment():
    outcome = execute_spec("paper", {"experiment": "fig1"})
    assert outcome.metrics["report_lines"] > 0
    assert outcome.artifacts["report.txt"] == run_analytic("fig1") + "\n"
