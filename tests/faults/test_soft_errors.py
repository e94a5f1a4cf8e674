"""Soft-error composition with the chaos runtime (one merged FaultReport)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.faults import (
    ChaosConfig,
    SoftErrorConfig,
    chaos_runtime,
    default_chaos_scenario,
    run_chaos,
)
from repro.serve import ServeConfig
from repro.serve.telemetry import format_fault_report

SOFT = SoftErrorConfig(fit_per_mbit=600.0, acceleration=5e10, seed=3)


def soft_config(**overrides) -> ChaosConfig:
    serve = ServeConfig(
        n_sessions=6,
        duration_s=1.0,
        n_workers=2,
        reuse_displacement_deg=0.3,
        seed=3,
    )
    defaults = dict(serve=serve, soft_errors=SOFT, fault_seed=3)
    defaults.update(overrides)
    return ChaosConfig(**defaults)


class TestComposition:
    def test_soft_errors_compose_with_sensor_and_worker_faults(self):
        config = replace(default_chaos_scenario(seed=0), soft_errors=SOFT)
        report = run_chaos(config)
        faults = report.faults
        # One merged report carries both fault families.
        assert faults.input_dropped > 0
        assert faults.worker_stall_timeouts > 0
        assert faults.soft_errors_injected > 0
        text = format_fault_report(faults)
        assert "Soft errors:" in text
        assert "silent data corruption" in text

    def test_counters_consistent(self):
        report = run_chaos(soft_config())
        faults = report.faults
        assert faults.soft_errors_injected > 0
        assert (
            faults.sdc_detected
            == faults.sdc_recomputed + faults.sdc_fallback_degraded
        )
        assert faults.summary()["soft_errors_injected"] == faults.soft_errors_injected

    def test_default_scenario_has_no_soft_errors(self):
        config = default_chaos_scenario(seed=0)
        assert not config.soft_errors.active
        faults = run_chaos(config).faults
        assert faults.soft_errors_injected == 0
        assert faults.sdc_detected == 0
        assert "Soft errors:" not in format_fault_report(faults)

    def test_fault_free_disables_soft_errors(self):
        config = soft_config().fault_free()
        assert not config.soft_errors.active
        assert run_chaos(config).faults.soft_errors_injected == 0


class TestDeterminism:
    def test_same_seed_identical_soft_error_telemetry(self):
        config = soft_config()
        first = run_chaos(config)
        second = run_chaos(config)
        assert first.faults == second.faults
        assert first.summary() == second.summary()

    def test_soft_error_seed_changes_outcome(self):
        base = run_chaos(soft_config()).faults
        other = run_chaos(
            soft_config(soft_errors=replace(SOFT, seed=11))
        ).faults
        assert base != other


class TestSnapshot:
    def test_state_roundtrip_midrun(self):
        """SDC queues, persistent offsets, and guards all snapshot."""
        config = soft_config()
        runtime = chaos_runtime(config)
        runtime.start()
        for _ in range(150):
            runtime.step()
        state = runtime.state_dict()

        restored = chaos_runtime(config)
        restored.load_state(state)
        assert restored.state_dict() == state

    def test_crash_recovery_bit_identical_with_soft_errors(self, tmp_path):
        from repro.faults import ProcessKill, SimulatedCrash
        from repro.recover import fleet_report_bytes
        from repro.recover.manager import resume, run_with_checkpoints

        config = soft_config()
        baseline = chaos_runtime(config).run()
        assert baseline.faults.soft_errors_injected > 0
        with pytest.raises(SimulatedCrash):
            run_with_checkpoints(
                chaos_runtime(config), tmp_path, every=10,
                kill=ProcessKill(at_event=30),
            )
        recovered = resume(tmp_path)
        assert fleet_report_bytes(recovered) == fleet_report_bytes(baseline)
        assert recovered.faults == baseline.faults
