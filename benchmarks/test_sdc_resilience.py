"""SDC resilience acceptance: ABFT coverage, overhead honesty, bit-identity.

The ISSUE's acceptance claims, verified end to end:

* With injection disabled, an ABFT-wrapped model forward is
  **bit-identical** to the unprotected one — protection is free of
  numerical side effects.
* At the default FIT sweep, the ABFT-protected datapath corrects or
  recomputes >= 99% of injected datapath errors (zero escaped SDC),
  while the unprotected run leaks corruption straight to the output.
* The reported protection cost is *measured* on the accelerator model:
  checksum rows/columns are real systolic work, visible in cycles and
  energy — not a free annotation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GazeViTConfig, PoloViT
from repro.nn import matmul_guard
from repro.reliability import (
    AbftGuard,
    default_sdc_campaign,
    format_sdc_report,
    run_sdc_campaign,
)


@pytest.fixture(scope="module")
def report():
    return run_sdc_campaign(default_sdc_campaign())


class TestBitIdentityWhenClean:
    def test_abft_wrapped_vit_forward_is_bit_identical(self):
        vit = PoloViT(GazeViTConfig.compact(), seed=0)
        crops = np.random.default_rng(0).uniform(size=(4, 72, 72))
        unprotected = vit.predict(crops, prune=False)
        guard = AbftGuard()
        with matmul_guard(guard):
            protected = vit.predict(crops, prune=False)
        assert np.array_equal(protected, unprotected)
        assert guard.stats.products > 0
        assert guard.stats.detected == 0


class TestCoverageAcceptance:
    def test_abft_corrects_or_recomputes_99_percent(self, report):
        for run in report.runs_for("abft"):
            assert run.coverage >= 0.99, (
                f"FIT {run.fit_per_mbit}: coverage {run.coverage:.3f}"
            )
            assert run.escaped_sdc == 0
            assert run.detected == run.corrected + run.recomputed

    def test_unprotected_leaks_sdc(self, report):
        leaks = [
            r for r in report.runs_for("unprotected") if r.corrupted_frames
        ]
        assert leaks, "campaign injected no corrupting faults"
        for run in leaks:
            assert run.escaped_sdc > 0
            assert run.p95_error_deg > report.config.sdc_threshold_deg

    def test_guard_only_narrows_but_does_not_close_the_gap(self, report):
        for run in report.runs_for("guard"):
            if not run.corrupted_frames:
                continue
            unprot = next(
                r for r in report.runs_for("unprotected")
                if r.fit_per_mbit == run.fit_per_mbit
            )
            assert run.p95_error_deg <= unprot.p95_error_deg


class TestOverheadHonesty:
    def test_overhead_is_measured_and_bounded(self, report):
        assert report.protected_cycles > report.unprotected_cycles
        assert report.abft_cycles > 0
        assert 0.05 < report.cycle_overhead < 0.40
        assert (
            report.protected_cycles - report.unprotected_cycles
            <= report.abft_cycles
        )


class TestDeterminism:
    def test_report_reproduces_bit_identically(self, report):
        again = run_sdc_campaign(default_sdc_campaign())
        assert format_sdc_report(again) == format_sdc_report(report)
