"""Benchmark-harness fixtures.

The benchmarks regenerate every table and figure of the paper's
evaluation.  Training-dependent experiments share one bench-scale
:class:`ExperimentContext` (built once per session); analytic experiments
need no training.  Each benchmark prints the same rows/series the paper
reports, so ``pytest benchmarks/ --benchmark-only -s`` doubles as the
reproduction report generator.

Set ``REPRO_BENCH_SCALE=tiny`` to smoke-test the harness quickly.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.experiments.common import ContextScale, ExperimentContext, get_context
from repro.experiments.e2e import measure_event_mix
from repro.experiments.gaze_error import GazeErrorResult, run_table1


def _scale() -> ContextScale:
    if os.environ.get("REPRO_BENCH_SCALE", "bench") == "tiny":
        return ContextScale.tiny()
    return ContextScale.bench()


#: Shape assertions that depend on *trained-model quality* only run at
#: bench scale; the tiny smoke mode still exercises every code path.
STRICT = os.environ.get("REPRO_BENCH_SCALE", "bench") != "tiny"


@pytest.fixture(scope="session")
def bench_context() -> ExperimentContext:
    """The shared trained context (datasets + POLONet + baselines)."""
    return get_context(_scale(), seed=0)


@pytest.fixture(scope="session")
def table1_result(bench_context) -> GazeErrorResult:
    """Table 1 is an input to several system benches (its P95 errors set
    the foveal regions), so it is computed once and shared."""
    return run_table1(bench_context)


@pytest.fixture(scope="session")
def measured_errors_p95(table1_result) -> dict:
    """Per-method P95 errors measured on the synthetic validation set."""
    summaries = table1_result.summaries
    errors = {
        name: summaries[name].p95
        for name in ("ResNet-34", "IncResNet", "EdGaze", "DeepVOG")
    }
    errors["POLO"] = summaries["INT8-POLOViT(0.2)"].p95
    return errors


@pytest.fixture(scope="session")
def measured_errors_mean(table1_result) -> dict:
    summaries = table1_result.summaries
    errors = {
        name: summaries[name].mean
        for name in ("ResNet-34", "IncResNet", "EdGaze", "DeepVOG")
    }
    errors["POLO"] = summaries["INT8-POLOViT(0.2)"].mean
    return errors


@pytest.fixture(scope="session")
def measured_event_mix(bench_context):
    return measure_event_mix(bench_context)


def emit(text: str) -> None:
    """Print a benchmark's reproduction table (visible with -s or -rA)."""
    print("\n" + text + "\n")
