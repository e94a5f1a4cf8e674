"""ServeConfig / BatchServiceModel validation and derived quantities."""

import pytest

from repro.serve import AdmissionPolicy, BatchServiceModel, ServeConfig


class TestBatchServiceModel:
    def test_affine_service_time(self):
        model = BatchServiceModel(fixed_s=2.0e-3, per_sample_s=5.0e-4)
        assert model.service_s(1) == pytest.approx(2.5e-3)
        assert model.service_s(8) == pytest.approx(6.0e-3)

    def test_batching_raises_throughput(self):
        model = BatchServiceModel()
        assert model.throughput_fps(8) > 2 * model.throughput_fps(1)

    def test_rejects_nonpositive_batch(self):
        with pytest.raises(ValueError, match="batch_size"):
            BatchServiceModel().service_s(0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            BatchServiceModel(fixed_s=-1.0)
        with pytest.raises(ValueError):
            BatchServiceModel(per_sample_s=0.0)


class TestServeConfig:
    def test_derived_quantities(self):
        config = ServeConfig(fps=100.0, deadline_frames=1.0,
                             queue_budget_deadlines=2.0, duration_s=2.0)
        assert config.deadline_s == pytest.approx(0.01)
        assert config.queue_budget_s == pytest.approx(0.02)
        assert config.frames_per_session == 200

    def test_sequential_baseline_disables_batching(self):
        config = ServeConfig(max_batch=8, batch_window_s=2e-3, n_sessions=4)
        baseline = config.sequential_baseline()
        assert baseline.max_batch == 1
        assert baseline.batch_window_s == 0.0
        assert baseline.n_sessions == config.n_sessions
        assert baseline.seed == config.seed

    def test_rejects_nonpositive_knobs(self):
        with pytest.raises(ValueError):
            ServeConfig(n_sessions=0)
        with pytest.raises(ValueError):
            ServeConfig(max_batch=0)
        with pytest.raises(ValueError):
            ServeConfig(batch_window_s=-1e-3)

    def test_admission_policy_values(self):
        assert AdmissionPolicy("degrade") is AdmissionPolicy.DEGRADE
        assert AdmissionPolicy("shed") is AdmissionPolicy.SHED
        assert AdmissionPolicy("always") is AdmissionPolicy.ALWAYS

    def test_rejects_negative_bypass_latencies(self):
        with pytest.raises(ValueError, match="saccade_bypass_s"):
            ServeConfig(saccade_bypass_s=-1e-6)
        with pytest.raises(ValueError, match="reuse_bypass_s"):
            ServeConfig(reuse_bypass_s=-1e-6)

    def test_rejects_nonpositive_reuse_displacement(self):
        with pytest.raises(ValueError, match="reuse_displacement_deg"):
            ServeConfig(reuse_displacement_deg=0.0)

    def test_rejects_non_enum_admission(self):
        # A raw string is an easy mistake; the error must name the field.
        with pytest.raises(ValueError, match="admission"):
            ServeConfig(admission="degrade")

    def test_rejects_negative_stagger(self):
        with pytest.raises(ValueError, match="stagger_s"):
            ServeConfig(stagger_s=-1.0)
