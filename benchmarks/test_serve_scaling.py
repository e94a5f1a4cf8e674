"""Serving-runtime scaling: the vectorized POLOViT batch forward.

Measures real wall-clock of the batched POLOViT forward against the
per-sample loop it replaced.  The cross-session batching claims (batched
goodput above the sequential baseline at a miss rate no worse) are
checked on ``examples/campaigns/acceptance.json`` by
``tests/exp/test_acceptance_campaign.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.core import GazeViTConfig, PoloViT
from repro.system import table_to_text


@pytest.mark.benchmark(group="serve")
def test_batched_vit_forward_wall_clock(benchmark):
    """One vectorized forward over B crops vs B single-sample forwards.

    On accelerators the batched dispatch amortizes per-call weight traffic
    (the ``BatchServiceModel`` story); in this numpy reference both modes
    are BLAS-bound, so the check is numerical equivalence plus a bound on
    the padding overhead the masked batched path is allowed to add.
    """
    vit = PoloViT(GazeViTConfig.compact(), seed=0)
    rng = np.random.default_rng(0)
    crops = rng.uniform(size=(8, 72, 72))

    def batched():
        return vit.predict(crops, prune=False)

    def looped():
        return np.stack([
            vit.predict(crops[i : i + 1], prune=False)[0] for i in range(len(crops))
        ])

    batch_pred = benchmark.pedantic(batched, rounds=3, iterations=1)
    loop_pred = looped()

    def best_of(fn, n=3):
        times = []
        for _ in range(n):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    loop_s = best_of(looped)
    batch_s = best_of(batched)

    np.testing.assert_allclose(batch_pred, loop_pred, atol=1e-6)
    emit(table_to_text(
        ["Mode", "Wall(ms)", "Per-crop(ms)"],
        [
            ["batched", f"{batch_s * 1e3:.1f}", f"{batch_s / 8 * 1e3:.2f}"],
            ["loop", f"{loop_s * 1e3:.1f}", f"{loop_s / 8 * 1e3:.2f}"],
        ],
    ))
    assert batch_s < loop_s * 1.5
