"""The benchmark's paper regeneration is pinned bit for bit.

The ``paper_repro`` workload of ``perf/workloads.py`` is rebuilt here at
seed 0 from its parameters: a two-participant context trained for one
epoch, then every table and figure as ``python -m repro <name>`` prints
it.  Training, inference, the accelerator mapper and the TFR model may
get faster; the reports may not change.  The pin is the first 16 hex
digits of the sha256 of the reports joined by blank lines, the digest
``perf/run.py`` checks.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import experiments as ex
from repro.experiments.cli import ANALYTIC, run_analytic
from repro.experiments.common import CACHE_ENV_VAR, ContextScale

SCALE = ContextScale(
    "perf", train_participants=2, val_participants=1,
    frames_per_participant=40, vit_epochs=1, cnn_epochs=1, saccade_epochs=1,
)


@pytest.fixture
def context(monkeypatch):
    monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
    ex.clear_context_cache()
    yield ex.get_context(SCALE, seed=0)
    ex.clear_context_cache()


def test_paper_reports_are_pinned(context):
    table1 = ex.run_table1(context)
    reports = [
        ex.format_table1(table1),
        ex.format_fig8a(table1),
        ex.format_table2(ex.run_table2(context)),
        ex.format_table3(ex.run_table3(context)),
        ex.format_table4(ex.run_table4(context)),
        ex.format_fig15(ex.run_fig15(context)),
    ]
    formatted = {
        "fig12": ex.format_fig12(ex.run_fig12(ex.paper_reference_errors(0.2))),
        "fig13a": ex.format_fig13a(ex.run_fig13a()),
    }
    reports += [formatted.get(name) or run_analytic(name) for name in ANALYTIC]
    digest = hashlib.sha256("\n\n".join(reports).encode("utf-8")).hexdigest()
    assert digest[:16] == "8c4693ed299dfd6f"
