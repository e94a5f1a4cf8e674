"""Chaos runtime: conservation, recovery, determinism, acceptance."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.__main__ import main
from repro.faults import (
    ChaosConfig,
    InputFaultConfig,
    LatencySpike,
    RecoveryConfig,
    WorkerCrash,
    WorkerFaultSchedule,
    WorkerStall,
    chaos_runtime,
    default_chaos_scenario,
    run_chaos,
)
from repro.recover.kinds import chaos_config_from_params
from repro.serve import ServeConfig


def small_config(**overrides) -> ChaosConfig:
    serve = ServeConfig(
        n_sessions=6,
        duration_s=0.8,
        n_workers=2,
        reuse_displacement_deg=0.3,
        seed=3,
    )
    defaults = dict(serve=serve, fault_seed=3)
    defaults.update(overrides)
    return ChaosConfig(**defaults)


def assert_conservation(config: ChaosConfig, report) -> None:
    """Every generated frame must land in exactly one terminal bucket."""
    expected = config.serve.n_sessions * config.serve.frames_per_session
    assert report.total_frames == expected
    for stats in report.sessions:
        assert (
            stats.completed + stats.shed + stats.pending + stats.lost_input
            == config.serve.frames_per_session
        )


class TestConservation:
    def test_fault_free_chaos_accounts_every_frame(self):
        config = small_config()
        report = run_chaos(config)
        assert_conservation(config, report)
        assert report.lost_input_frames == 0
        assert report.faults.batch_failures == 0

    def test_dropped_frames_are_counted_not_vanished(self):
        config = small_config(
            input_faults=InputFaultConfig(frame_drop_rate=0.25)
        )
        report = run_chaos(config)
        assert_conservation(config, report)
        assert report.lost_input_frames > 0
        assert report.lost_input_frames == report.faults.input_dropped

    def test_batcher_ledger_closes(self):
        config = small_config(
            worker_faults=WorkerFaultSchedule(
                stalls=(WorkerStall(worker_id=0, start_s=0.2, stop_s=0.4),)
            )
        )
        runtime = chaos_runtime(config)
        report = runtime.run()
        assert len(runtime.batcher) == 0
        assert (
            runtime.batcher.admitted_total + runtime.batcher.requeued_total
            == runtime.batcher.taken_total
        )
        assert_conservation(config, report)


class TestRecovery:
    def test_stall_trips_breaker_and_degrades_instead_of_dropping(self):
        config = small_config(
            worker_faults=WorkerFaultSchedule(
                stalls=(WorkerStall(worker_id=0, start_s=0.1, stop_s=0.5),)
            ),
            recovery=RecoveryConfig(breaker_threshold=2, breaker_cooldown_s=0.1),
        )
        report = run_chaos(config)
        faults = report.faults
        assert faults.worker_stall_timeouts > 0
        assert faults.breaker_opens >= 1
        # Stall timeouts outlive the 10 ms deadline, so the frames are
        # degraded to reuse, never retried into a guaranteed miss.
        assert faults.deadline_degraded > 0
        assert_conservation(config, report)

    def test_fast_failure_is_retried_and_served(self):
        # A generous deadline and a snappy dispatch timeout: failed frames
        # can beat their deadline on retry instead of degrading.
        serve = ServeConfig(
            n_sessions=6,
            duration_s=0.8,
            n_workers=2,
            reuse_displacement_deg=0.3,
            deadline_frames=10.0,  # 100 ms budget
            seed=3,
        )
        config = ChaosConfig(
            serve=serve,
            worker_faults=WorkerFaultSchedule(
                stalls=(WorkerStall(worker_id=0, start_s=0.3, stop_s=0.5),)
            ),
            recovery=RecoveryConfig(dispatch_timeout_s=5e-3, max_retries=3),
            fault_seed=3,
        )
        report = run_chaos(config)
        faults = report.faults
        assert faults.retries_scheduled > 0
        assert faults.frames_requeued == faults.retries_scheduled
        assert_conservation(config, report)

    def test_single_worker_crash_recovers_after_downtime(self):
        # One worker, crashed mid-run: the queue must wait out the
        # downtime via wake scheduling, then drain — nothing lost.
        serve = ServeConfig(
            n_sessions=4,
            duration_s=0.8,
            n_workers=1,
            reuse_displacement_deg=0.3,
            seed=5,
        )
        config = ChaosConfig(
            serve=serve,
            worker_faults=WorkerFaultSchedule(
                crashes=(WorkerCrash(worker_id=0, at_s=0.3, down_s=0.2),)
            ),
            fault_seed=5,
        )
        report = run_chaos(config)
        assert_conservation(config, report)
        assert report.pending_at_shutdown == 0

    def test_occluded_predict_frames_degrade_to_reuse(self):
        config = small_config(
            input_faults=InputFaultConfig(
                occlusion_rate_hz=2.0,
                occlusion_duration_s=0.3,
                occlusion_level=(0.95, 1.0),
            )
        )
        report = run_chaos(config)
        assert report.faults.occluded_frames > 0
        assert_conservation(config, report)


class TestWorkerTargets:
    @pytest.mark.parametrize(
        "kind,schedule",
        [
            ("crash", WorkerFaultSchedule(
                crashes=(WorkerCrash(2, at_s=0.1, down_s=0.1),)
            )),
            ("stall", WorkerFaultSchedule(
                stalls=(WorkerStall(2, start_s=0.1, stop_s=0.2),)
            )),
            ("spike", WorkerFaultSchedule(
                spikes=(LatencySpike(0.1, 0.2, factor=2.0, worker_id=2),)
            )),
        ],
    )
    def test_refuses_faults_outside_the_pool(self, kind, schedule):
        with pytest.raises(
            ValueError, match=f"{kind} targets worker 2 but the pool has 2"
        ):
            small_config(worker_faults=schedule)

    def test_pool_wide_spike_fits_any_pool(self):
        spike = LatencySpike(0.1, 0.2, factor=2.0)
        config = small_config(worker_faults=WorkerFaultSchedule(spikes=(spike,)))
        assert config.worker_faults.spikes == (spike,)
        with pytest.raises(ValueError, match="worker_id must be non-negative"):
            LatencySpike(0.1, 0.2, factor=2.0, worker_id=-1)

    def test_one_worker_keeps_worker_0_faults_and_drops_the_spike(self):
        default = default_chaos_scenario().worker_faults
        faults = chaos_config_from_params({"serve": {"n_workers": 1}}).worker_faults
        assert faults.crashes == default.crashes
        assert faults.stalls == default.stalls
        assert default.spikes and faults.spikes == ()
        assert chaos_config_from_params({}).worker_faults == default

    def test_one_worker_report_is_unchanged(self, capsys):
        # The dropped spike targeted a worker the pool never had: the
        # report is the bytes it was while the config still carried it.
        argv = ["chaos", "--workers", "1", "--sessions", "6", "--duration", "2",
                "--seed", "7"]
        assert main(argv) in (0, None)
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == (
            "608e680b2c1dbd0cc8fbda2ffe1d083d331aad923c2f92582f6688f2f019359f"
        )


class TestDeterminism:
    def test_same_seed_bitwise_identical_fault_telemetry(self):
        config = default_chaos_scenario(seed=1)
        first = run_chaos(config)
        second = run_chaos(config)
        assert first.faults == second.faults
        assert first.summary() == second.summary()
        for a, b in zip(first.sessions, second.sessions):
            assert a.latencies_s == b.latencies_s
            assert a.counts == b.counts

    def test_different_fault_seed_differs(self):
        base = default_chaos_scenario(seed=0)
        other = replace(base, fault_seed=99)
        assert run_chaos(base).faults != run_chaos(other).faults


@pytest.mark.chaos
class TestAcceptanceScenario:
    """The ISSUE's acceptance criteria on the canonical scenario."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return default_chaos_scenario(seed=0)

    @pytest.fixture(scope="class")
    def report(self, scenario):
        return run_chaos(scenario)

    @pytest.fixture(scope="class")
    def baseline(self, scenario):
        return run_chaos(scenario.fault_free())

    def test_zero_silently_dropped_frames(self, scenario, report):
        assert_conservation(scenario, report)
        assert report.pending_at_shutdown == 0

    def test_deadline_misses_within_2x_of_fault_free(self, report, baseline):
        assert report.deadline_miss_rate <= 2.0 * baseline.deadline_miss_rate + 1e-9

    def test_fault_machinery_actually_exercised(self, report):
        faults = report.faults
        assert faults.input_dropped > 0
        assert faults.noise_burst_frames > 0
        assert faults.occluded_frames > 0
        assert faults.mipi_corrupted_frames > 0
        assert faults.worker_stall_timeouts > 0
        assert faults.breaker_opens >= 1
        assert faults.watchdog_reuse_frames > 0
        assert faults.widened_delta_theta_deg > 2.92

    def test_telemetry_identical_across_two_runs(self, scenario, report):
        again = run_chaos(scenario)
        assert again.faults == report.faults
        assert again.summary() == report.summary()
