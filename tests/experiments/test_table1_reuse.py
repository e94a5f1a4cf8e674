"""Table 1 runs POLOViT once per chunk, and Fig. 15 reads Table 1's errors.

``run_table1`` evaluates pruning ratios 0.0, 0.2 and 0.4 from one
encoder prefix per 64-crop chunk of the validation crops, without
touching the bundle's POLOViT; the oracle is the per-ratio evaluation it
replaced, on deep copies.  Every row's errors are remembered on the
context, so Fig. 15 after Table 1 predicts nothing and prints what it
prints alone; a retrained context starts with an empty memo.
"""

from __future__ import annotations

import copy
import dataclasses

import pytest

from repro import experiments as ex
from repro.experiments import user_study_exp
from repro.experiments.common import (
    CACHE_ENV_VAR,
    ContextScale,
    polovit_validation_errors,
    validation_crops,
)
from repro.experiments.gaze_error import PRUNE_RATIOS, _calibration_crops

#: Two validation participants: more crops than one 64-crop chunk.
SCALE = ContextScale(
    "reuse", train_participants=2, val_participants=2,
    frames_per_participant=40, vit_epochs=1, cnn_epochs=1, saccade_epochs=1,
)


@pytest.fixture(scope="module")
def trained():
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(CACHE_ENV_VAR, raising=False)
        ex.clear_context_cache()
        yield ex.get_context(SCALE, seed=0)
        ex.clear_context_cache()


@pytest.fixture
def context(trained):
    """The trained context with an empty error memo."""
    return dataclasses.replace(trained)


def model_state(vit) -> tuple:
    weights = b"".join(p.data.tobytes() for p in vit.parameters())
    return weights, vit.prune_threshold, vit.int8, vit._input_quant.scale


def deep_copy_errors(context) -> dict:
    """Table 1's POLOViT rows as evaluated before the shared prefix."""
    vit = context.bundle.vit
    calib_crops, _ = _calibration_crops(context)
    rows = {}
    for ratio in PRUNE_RATIOS:
        model = vit if ratio == 0.2 else copy.deepcopy(vit)
        if ratio == 0.0:
            model.set_prune_threshold(None)
        elif ratio != 0.2:
            model.calibrate_pruning(calib_crops, ratio)
        errors = polovit_validation_errors(model, context, prune=ratio > 0)
        rows[f"INT8-POLOViT({ratio:.1f})"] = errors
    return rows


def error_calls(monkeypatch) -> list:
    """The names of Fig. 15's error functions, in the order they run."""
    calls = []
    for name in ("polovit_validation_errors", "tracker_validation_errors"):
        inner = getattr(user_study_exp, name)

        def wrapper(*args, _name=name, _inner=inner, **kwargs):
            calls.append(_name)
            return _inner(*args, **kwargs)

        monkeypatch.setattr(user_study_exp, name, wrapper)
    return calls


def test_shared_prefix_rows_equal_deep_copy_rows(context):
    crops, _ = validation_crops(context)
    assert len(crops) > 64  # the chunk boundary is crossed
    expected = deep_copy_errors(context)
    result = ex.run_table1(context)
    for name, errors in expected.items():
        assert result.raw_errors[name].tobytes() == errors.tobytes(), name
    assert len({errors.tobytes() for errors in expected.values()}) == 3


def test_table1_leaves_the_bundle_model_untouched(context):
    before = model_state(context.bundle.vit)
    ex.run_table1(context)
    assert model_state(context.bundle.vit) == before


def test_fig15_after_table1_reads_the_memo_and_prints_the_same(context, trained, monkeypatch):
    alone = ex.run_fig15(dataclasses.replace(trained))
    table1 = ex.run_table1(context)
    calls = error_calls(monkeypatch)
    after = ex.run_fig15(context)
    assert calls == []
    assert ex.format_fig15(after) == ex.format_fig15(alone)
    assert after.candidate_trace.tobytes() == alone.candidate_trace.tobytes()
    assert after.baseline_trace.tobytes() == alone.baseline_trace.tobytes()
    assert after.candidate_trace.tobytes() == (
        table1.raw_errors["INT8-POLOViT(0.2)"].tobytes()
    )


def test_callers_get_copies(context):
    table1 = ex.run_table1(context)
    table1.raw_errors["ResNet-34"][:] = -1.0
    _, baseline = user_study_exp.error_traces(context)
    baseline[:] = -2.0
    _, again = user_study_exp.error_traces(context)
    assert (again > 0).all()


def test_fig15_alone_computes_in_order(context, monkeypatch):
    order = error_calls(monkeypatch)
    user_study_exp.error_traces(context)
    user_study_exp.error_traces(context)
    assert order == ["polovit_validation_errors", "tracker_validation_errors"]


def test_a_retrained_context_recomputes(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
    small = ContextScale("reuse-fresh", 1, 1, 40, 1, 1, 1)
    ex.clear_context_cache()
    try:
        first = ex.get_context(small, seed=3)
        ex.run_table1(first)
        ex.clear_context_cache()
        fresh = ex.get_context(small, seed=3)  # reloaded from disk
        assert fresh is not first
        calls = error_calls(monkeypatch)
        ex.run_fig15(fresh, n_participants=2, repeats=1)
        assert calls == ["polovit_validation_errors", "tracker_validation_errors"]
    finally:
        ex.clear_context_cache()
