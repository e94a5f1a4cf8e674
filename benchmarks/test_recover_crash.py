"""Crash-recovery acceptance: kill the fleet, restore it, byte-diff it.

The durability contract has three legs, each benched here:

* **Bit-identity** — kill the serving runtime at an early, mid, and late
  event index; after restore + journal replay, the final FleetReport is
  *byte-equal* (canonical JSON) to the same-seed uninterrupted run.
* **Zero simulated overhead** — checkpointing and journaling happen
  between events and never touch sim-state, so every simulated metric
  (goodput, miss rate, accounting) is identical with durability on: the
  "0% simulated-goodput overhead" budget is met exactly, not within a
  tolerance.
* **Bounded wall overhead** — snapshots + WAL appends cost real time;
  best-of-N against the bare run with a deliberately loose guard (shared
  CI is noisy; the byte-identity legs are the hard gates).
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from benchmarks.conftest import emit
from repro.faults import ProcessKill, SimulatedCrash, default_chaos_scenario
from repro.faults.runtime import chaos_runtime
from repro.recover import fleet_report_bytes
from repro.recover.manager import restore_runtime, resume, run_with_checkpoints
from repro.serve import ServeConfig, ServeRuntime
from repro.system import table_to_text

#: Same predict-heavy regime as the serve-scaling/obs benches.
CONFIG = ServeConfig(
    n_sessions=32,
    duration_s=1.0,
    n_workers=2,
    reuse_displacement_deg=0.05,
    queue_budget_deadlines=0.8,
    seed=0,
)

CHECKPOINT_EVERY = 1000


def _total_events() -> int:
    runtime = ServeRuntime(CONFIG)
    runtime.run()
    return runtime.events_processed


def _crash_and_recover(directory, kill_at: int):
    runtime = ServeRuntime(CONFIG)
    with pytest.raises(SimulatedCrash):
        run_with_checkpoints(
            runtime, directory, every=CHECKPOINT_EVERY,
            kill=ProcessKill(at_event=kill_at),
        )
    restored = restore_runtime(directory)
    report = run_with_checkpoints(
        restored.runtime, directory, every=CHECKPOINT_EVERY, _resume=True
    )
    return report, restored


def _best_of(fn, rounds: int = 3) -> float:
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


@pytest.mark.benchmark(group="recover")
def test_crash_recovery_is_bit_identical_at_three_kill_points(
    benchmark, tmp_path
):
    total = _total_events()
    kill_points = {
        "early": max(1, total // 20),
        "mid": total // 2,
        "late": total - 2,
    }
    baseline = ServeRuntime(CONFIG).run()
    baseline_bytes = fleet_report_bytes(baseline)

    def run_all():
        results = {}
        for label, kill_at in kill_points.items():
            directory = tmp_path / label
            results[label] = (kill_at, *_crash_and_recover(directory, kill_at))
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for label, (kill_at, report, restored) in results.items():
        identical = fleet_report_bytes(report) == baseline_bytes
        rows.append([
            label, str(kill_at),
            str(restored.checkpoint.event_index),
            str(restored.replayed_events),
            f"{report.predict_goodput_fps:.2f}",
            "yes" if identical else "NO",
        ])
    emit(table_to_text(
        ["Kill", "Event", "Ckpt", "Replayed", "Goodput/s", "Bit-identical"],
        rows,
    ))
    for label, (kill_at, report, _) in results.items():
        assert fleet_report_bytes(report) == baseline_bytes, (
            f"recovered report diverged for {label} kill at event {kill_at}"
        )
    # The late kill must actually have exercised journal replay.
    assert results["late"][2].replayed_events > 0


@pytest.mark.benchmark(group="recover")
def test_chaos_crash_recovery_is_bit_identical(benchmark, tmp_path):
    chaos = default_chaos_scenario(seed=3)
    chaos = replace(
        chaos, serve=replace(chaos.serve, n_sessions=16, duration_s=1.0)
    )
    baseline_bytes = fleet_report_bytes(chaos_runtime(chaos).run())

    probe = chaos_runtime(chaos)
    probe.run()
    kill_at = probe.events_processed // 2

    def crash_and_resume():
        runtime = chaos_runtime(chaos)
        with pytest.raises(SimulatedCrash):
            run_with_checkpoints(
                runtime, tmp_path, every=300, kill=ProcessKill(at_event=kill_at)
            )
        return resume(tmp_path)

    report = benchmark.pedantic(crash_and_resume, rounds=1, iterations=1)
    identical = fleet_report_bytes(report) == baseline_bytes
    emit(table_to_text(
        ["Runtime", "Kill event", "Bit-identical"],
        [["chaos", str(kill_at), "yes" if identical else "NO"]],
    ))
    assert identical


@pytest.mark.benchmark(group="recover")
def test_checkpointing_overhead(benchmark, tmp_path):
    """0% simulated-goodput overhead (exact) + bounded wall overhead."""
    plain = ServeRuntime(CONFIG).run()

    def durable():
        return run_with_checkpoints(
            ServeRuntime(CONFIG), tmp_path, every=CHECKPOINT_EVERY
        )

    durable_report = benchmark.pedantic(durable, rounds=1, iterations=1)

    base_s = _best_of(lambda: ServeRuntime(CONFIG).run())
    durable_s = _best_of(durable)
    ratio = durable_s / base_s

    emit(table_to_text(
        ["Mode", "Goodput/s", "Miss", "Wall(ms)", "Ratio"],
        [
            ["bare", f"{plain.predict_goodput_fps:.2f}",
             f"{plain.deadline_miss_rate:.2%}", f"{base_s * 1e3:.1f}", "1.00x"],
            ["durable", f"{durable_report.predict_goodput_fps:.2f}",
             f"{durable_report.deadline_miss_rate:.2%}",
             f"{durable_s * 1e3:.1f}", f"{ratio:.2f}x"],
        ],
    ))
    # Durability is invisible to the simulation: exactly zero overhead on
    # every simulated metric, proven byte-for-byte.
    assert fleet_report_bytes(durable_report) == fleet_report_bytes(plain)
    assert durable_report.predict_goodput_fps == plain.predict_goodput_fps
    # Loose wall guard: one full-state snapshot per 1000 events plus one
    # WAL line per event measures ~2.7x locally; 5x headroom absorbs
    # shared-CI filesystem noise.
    assert ratio < 5.0
