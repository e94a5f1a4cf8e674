"""Experiments that need no training: Figs. 1, 11e, 12, 13; Table 5; §7
synthesis.  Driven by the paper's reference errors so that the system
model is tested independently of stochastic training."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.experiments import (
    PAPER_TABLE1,
    SYSTEM_BASELINES,
    baseline_execution,
    format_accelerator_pa,
    format_fig1,
    format_fig11e,
    format_fig12,
    format_fig13a,
    format_fig13b,
    format_fig13c,
    format_table5,
    paper_reference_errors,
    polo_execution,
    pruned_vit_workload,
    run_accelerator_pa,
    run_fig1,
    run_fig11e,
    run_fig12,
    run_fig13a,
    run_fig13b,
    run_fig13c,
    run_table5,
)
from repro.core import GazeViTConfig
from repro.experiments.cli import ANALYTIC, run_analytic
from repro.hw.ops import total_macs
from repro.render import RESOLUTIONS, SCENES


@pytest.fixture(scope="module")
def errors():
    return paper_reference_errors(0.2)


class TestFig1:
    def test_averages_match_paper_band(self):
        result = run_fig1()
        targets = {"720P": 80.0, "1080P": 155.0, "1440P": 282.0}
        for res, target in targets.items():
            assert result.averages_ms[res] == pytest.approx(target, rel=0.2)

    def test_every_cell_present_and_format(self):
        result = run_fig1()
        assert len(result.latencies_ms) == len(SCENES) * len(RESOLUTIONS)
        text = format_fig1(result)
        assert "Average" in text and "1440P" in text


class TestProfiles:
    def test_paper_reference_errors_complete(self, errors):
        assert set(errors) == set(SYSTEM_BASELINES) | {"POLO"}
        assert errors["POLO"] == PAPER_TABLE1["POLOViT(0.2)"][2]

    def test_unknown_ratio_rejected(self):
        with pytest.raises(KeyError):
            paper_reference_errors(0.15)

    def test_pruned_workload_ratio(self):
        config = GazeViTConfig.paper()
        full = total_macs(pruned_vit_workload(config, 0.0))
        pruned = total_macs(pruned_vit_workload(config, 0.2))
        assert 0.7 < pruned / full < 0.9

    def test_pruned_workload_monotone(self):
        config = GazeViTConfig.paper()
        macs = [total_macs(pruned_vit_workload(config, r)) for r in (0.0, 0.1, 0.2, 0.3, 0.4)]
        assert all(a > b for a, b in zip(macs, macs[1:]))

    def test_polo_execution_paths(self):
        execution = polo_execution(0.2)
        assert execution.td_saccade_s < execution.td_reuse_s < execution.td_predict_s
        assert execution.td_predict_s < 0.02  # POLO_N band

    def test_baseline_executions_ordering(self):
        lat = {n: baseline_execution(n).td_predict_s for n in SYSTEM_BASELINES}
        assert lat["DeepVOG"] == max(lat.values())
        assert lat["DeepVOG"] > 0.05


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self, errors):
        return run_fig12(errors)

    def test_polo_n_fastest_method_everywhere(self, result):
        for res in RESOLUTIONS:
            for scene in SCENES:
                polo = result.method_latency[("POLO_N", scene.name, res.name)]
                for name in SYSTEM_BASELINES:
                    assert polo < result.method_latency[(name, scene.name, res.name)]

    def test_polo_n_speedup_pinned(self, result):
        """Exact, so a change that moves one region's pixel count shows."""
        summary = result.speedup_summary()
        assert summary["1080P"]["polo_n_speedup"] == 2.819298825400572

    def test_polo_paths_ordering(self, result):
        for scene in SCENES:
            s = result.method_latency[("POLO_S", scene.name, "1080P")]
            r = result.method_latency[("POLO_R", scene.name, "1080P")]
            n = result.method_latency[("POLO_N", scene.name, "1080P")]
            assert s < r < n

    def test_speedups_in_paper_band(self, result):
        """Paper: 2.46/2.06/1.85x POLO_N speedups; we accept 1.5-4x."""
        summary = result.speedup_summary()
        for res in RESOLUTIONS:
            assert 1.5 < summary[res.name]["polo_n_speedup"] < 4.0

    def test_polo_beats_full_resolution(self, result):
        summary = result.speedup_summary()
        for res in RESOLUTIONS:
            assert summary[res.name]["vs_full"] > 2.0

    def test_polo_n_latencies_meet_foveation_budget(self, result):
        """§7.1: POLO_N averages 26/44/69 ms — all within the 50-70 ms
        per-frame requirement band (at worst near it at 1440P)."""
        summary = result.speedup_summary()
        assert summary["720P"]["polo_n_ms"] < 50
        assert summary["1080P"]["polo_n_ms"] < 60
        assert summary["1440P"]["polo_n_ms"] < 85

    def test_jnd_operating_point_preserves_polo_advantage(self, errors):
        """§7.1: under the tolerance-derived theta_f the trend holds —
        POLO still wins end-to-end against every baseline."""
        result = run_fig12(errors)
        for scene in SCENES:
            polo = result.jnd_latency[("POLO_N", scene.name, "1080P")]
            for name in SYSTEM_BASELINES:
                assert polo < result.jnd_latency[(name, scene.name, "1080P")]

    def test_mean_error_series(self, errors):
        means = {name: PAPER_TABLE1[name][0] for name in SYSTEM_BASELINES}
        means["POLO"] = PAPER_TABLE1["POLOViT(0.2)"][0]
        result = run_fig12(errors, errors_mean=means)
        for scene in SCENES:
            mean_lat = result.mean_error_latency[("ResNet-34", scene.name, "1080P")]
            p95_lat = result.method_latency[("ResNet-34", scene.name, "1080P")]
            assert mean_lat < p95_lat

    def test_format(self, result):
        text = format_fig12(result)
        assert "POLO_N" in text and "Speedup summary" in text


class TestFig13:
    def test_energy_polo_lowest_and_ratio_band(self):
        result = run_fig13a()
        polo = result.total_mj("POLO")
        for name in SYSTEM_BASELINES:
            assert result.total_mj(name) > polo
        assert 2.0 < result.polo_reduction() < 10.0  # paper: 4.1x

    def test_energy_reduction_pinned(self):
        assert run_fig13a().polo_reduction() == 5.332292895236533

    def test_energy_buffer_dominant(self):
        """§7.1: memory access dominates, then MACs, then SFU."""
        result = run_fig13a()
        fr = result.breakdowns["POLO"].fractions()
        assert fr["buffer"] > fr["mac"] > fr["sfu"]

    def test_accelerator_ablation_ratios(self, errors):
        result = run_fig13b(errors)
        for name in result.with_accel_ms:
            assert 1.2 < result.ratio(name) < 3.0  # paper: 1.68-2.33x
        text = format_fig13b(result)
        assert "GPU only" in text

    def test_schedule_ablation(self, errors):
        result = run_fig13c(errors)
        assert 0.0 < result.average_reduction() < 0.4
        for name in result.sequential_ms:
            assert result.parallel_ms[name] <= result.sequential_ms[name]
        assert "Reduction" in format_fig13c(result)

    def test_energy_format(self):
        assert "POLO" in format_fig13a(run_fig13a())


class TestTable5:
    def test_minimum_at_twenty_percent(self):
        result = run_table5()
        assert result.best_ratio() == pytest.approx(0.2)

    def test_tradeoff_shape(self):
        result = run_table5()
        # gaze latency falls monotonically with pruning...
        gaze = list(result.gaze_ms.values())
        assert all(a > b for a, b in zip(gaze, gaze[1:]))
        # ...while rendering latency rises.
        render = list(result.render_ms.values())
        assert all(a <= b + 1e-9 for a, b in zip(render, render[1:]))

    def test_vive_much_slower(self):
        result = run_table5()
        assert result.vive_ms > 1.5 * result.latency_ms[0.2]
        assert result.vive_ms == pytest.approx(86.7, rel=0.15)

    def test_format(self):
        assert "Vive" in format_table5(run_table5())


class TestFig11e:
    def test_curve_shapes(self):
        result = run_fig11e()
        for delta, (grid, probs, jnds) in result.curves.items():
            assert (np.diff(probs) < 0).all()
            assert probs.max() <= 0.30 + 1e-9
        assert "theta_f" in format_fig11e(result)

    def test_threshold_anchor(self):
        result = run_fig11e()
        assert result.thresholds_5pct[10.0] == pytest.approx(15.0, abs=2.5)


class TestAcceleratorPa:
    def test_synthesis_summary(self):
        result = run_accelerator_pa()
        assert result.total_mm2 == pytest.approx(0.75, rel=0.1)
        assert result.buffers_fraction == pytest.approx(0.72, abs=0.05)
        assert result.average_power_w < 0.15
        assert "0.75" in format_accelerator_pa(result)


#: sha256 of each analytic experiment's report text (``python -m repro <name>``).
REPORT_SHA256 = {
    "fig1": "fa75001611502988a5183d69cbe6190e776b7ad4ea9139138d3aad467841d332",
    "fig11e": "79022fb735eaa61221a8ff5fbc77a93a0c6651942fd981e30d5effac4ecc24a7",
    "fig12": "971d0b0a92dbc6dfc4a14adb63faa34e934ea2e718caf5ba594f783e79be3631",
    "fig13a": "6652229b81fc6692a05dd0eebb4652f4d3dfe568104d907ae929e8b3491c613e",
    "fig13b": "a046a185d1e0068f1a9a3da20b6d7b97ffc097169fa2d18ba97a5f9f47ac7577",
    "fig13c": "92ea13cbb5de6d0103553bbb8a185b5dc74fc40feb4a5128cec7baa3219b9347",
    "table5": "34d113878d043c805c49aed9c18dd3d23d8aad8825d0e769204c109eff3639d9",
    "sec7": "605709685faa9f9e3eee72ca4adffb6be30c1c5625058de4c9886048eff1b315",
    "qoe": "1fe7115955993db97ac17e1c033ed459d25f99fe7efe33f1e5c7b2d6df38f234",
    "fps": "3a4247cc4285518f7d1eb688435c786db7690ac4022f1ab078d2a76130f4d7c5",
}


@pytest.mark.parametrize("name", ANALYTIC)
def test_analytic_report_pinned(name):
    text = run_analytic(name)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[name]
