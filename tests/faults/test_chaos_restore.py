"""A chaos run restores byte-identically from any event.

Chaos frames advance per-session state lazily: a session's backlog
cursor, its watchdog, its SDC guard and its soft-error queue move only
when its backlog is recorded or one of its predict frames arrives.  A
snapshot taken between any two events must therefore capture each of
them at its own point.  The run below is small enough (under 200
events) to snapshot and restore at every event index, and to kill and
resume through the checkpoint journal every few events.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import (
    ChaosConfig,
    InputFaultConfig,
    ProcessKill,
    SimulatedCrash,
    WorkerFaultSchedule,
    WorkerStall,
    chaos_runtime,
)
from repro.recover import canonical_bytes, fleet_report_bytes
from repro.recover.manager import resume, run_with_checkpoints
from repro.reliability.softerror import SoftErrorConfig
from repro.serve import ServeConfig


def config() -> ChaosConfig:
    return ChaosConfig(
        serve=ServeConfig(
            n_sessions=4, duration_s=0.5, n_workers=2,
            reuse_displacement_deg=0.3, seed=3,
        ),
        input_faults=InputFaultConfig(
            frame_drop_rate=0.1, noise_burst_rate_hz=2.0,
            noise_burst_std_deg=10.0, occlusion_rate_hz=1.0,
            bit_error_rate=1e-8,
        ),
        worker_faults=WorkerFaultSchedule(
            stalls=(WorkerStall(worker_id=0, start_s=0.1, stop_s=0.25),),
        ),
        soft_errors=SoftErrorConfig(fit_per_mbit=500.0, acceleration=2e11),
        fault_seed=3,
    )


@pytest.fixture(scope="module")
def baseline():
    runtime = chaos_runtime(config())
    report = runtime.run()
    faults = report.faults
    assert faults.soft_errors_injected > 0 and faults.batch_failures > 0
    assert faults.input_dropped > 0 and faults.mipi_corrupted_frames > 0
    assert any(w.transitions for w in runtime.chaos.watchdogs)
    assert runtime.events_processed < 200
    return runtime.events_processed, fleet_report_bytes(report)


def test_snapshot_at_every_event_restores_byte_identical(baseline):
    total, expected = baseline
    donor = chaos_runtime(config())
    donor.start()
    for index in range(total + 1):
        # Through JSON, as a checkpoint stores it.
        state = json.loads(canonical_bytes(donor.state_dict()))
        heir = chaos_runtime(config())
        heir.load_state(state)
        while heir.step():
            pass
        assert fleet_report_bytes(heir.finish()) == expected, index
        donor.step()


def test_kill_and_resume_every_few_events(baseline, tmp_path):
    total, expected = baseline
    for kill_at in range(1, total, 7):
        directory = tmp_path / str(kill_at)
        with pytest.raises(SimulatedCrash):
            run_with_checkpoints(
                chaos_runtime(config()), directory, every=5,
                kill=ProcessKill(at_event=kill_at),
            )
        assert fleet_report_bytes(resume(directory)) == expected, kill_at
