"""Outside configs refuse a mistyped value instead of coercing it.

Chaos scenario knobs, recover probe and paper experiment params and
``*.slo.json`` files all go through the typed codec
(:func:`repro.recover.configio.decode`), so a value of the wrong type is
refused with its dotted field path — never rounded, parsed from a
string or read as a truth value.
"""

from __future__ import annotations

import re

import pytest

from repro.exp.errors import CampaignConfigError
from repro.exp.runners import resolve_spec
from repro.obs.slo import SloConfigError, parse_slo_config

LATENCY = {"metric": "serve_frame_latency_seconds"}


def objective(drop=(), **overrides) -> dict:
    base = {
        "name": "frame_deadline",
        "kind": "ratio",
        "total": dict(LATENCY),
        "bad": dict(LATENCY, above_s=0.01),
        "target": 0.95,
        "window_s": 0.4,
    }
    base.update(overrides)
    for key in drop:
        del base[key]
    return {"objectives": [base]}


def summary(drop=(), **overrides) -> dict:
    base = {"name": "miss", "metric": "miss_rate", "op": "<=", "target": 0.05}
    base.update(overrides)
    for key in drop:
        del base[key]
    return {"summary_objectives": [base]}


#: (case id, runner or "slo", params, dotted path of the refused field).
REFUSALS = [
    ("chaos-fault-free-str", "chaos", {"fault_free": "no"}, "fault_free"),
    ("chaos-seed-float", "chaos", {"seed": 1.5}, "seed"),
    ("chaos-seed-bool", "chaos", {"seed": True}, "seed"),
    ("chaos-n-workers-str", "chaos", {"serve": {"n_workers": "2"}}, "serve.n_workers"),
    ("chaos-serve-not-dict", "chaos", {"serve": 2}, "serve"),
    ("chaos-fit-str", "chaos", {"soft_error_fit": "1e3"}, "soft_error_fit"),
    ("recover-kill-float", "recover", {"kill_at_event": 1.5}, "kill_at_event"),
    (
        "recover-kill-bool",
        "recover",
        {"kill_at_event": True, "checkpoint_every": "7"},
        "kill_at_event",
    ),
    ("recover-every-str", "recover", {"checkpoint_every": "7"}, "checkpoint_every"),
    ("recover-target-int", "recover", {"target": 1}, "target"),
    ("paper-seed-str", "paper", {"experiment": "fig12", "seed": "3"}, "seed"),
    ("paper-seed-float", "paper", {"experiment": "fig12", "seed": 1.5}, "seed"),
    ("slo-target-str", "slo", objective(target="0.95"), "objectives[0].target"),
    ("slo-min-events-float", "slo", objective(min_events=2.7), "objectives[0].min_events"),
    (
        "slo-label-int",
        "slo",
        objective(total=dict(LATENCY, labels={"path": 7})),
        "objectives[0].total.labels['path']",
    ),
    (
        "slo-interval-bool",
        "slo",
        dict(objective(), eval_interval_s=True),
        "eval_interval_s",
    ),
    ("slo-summary-target-bool", "slo", summary(target=True), "summary_objectives[0].target"),
    (
        "slo-description-int",
        "slo",
        summary(description=5),
        "summary_objectives[0].description",
    ),
]


@pytest.mark.parametrize(
    "runner, params, path", [case[1:] for case in REFUSALS],
    ids=[case[0] for case in REFUSALS],
)
def test_mistyped_value_is_refused_naming_its_field(runner, params, path):
    pattern = re.escape(path) + " must be"
    if runner == "slo":
        with pytest.raises(SloConfigError, match=pattern):
            parse_slo_config(params)
    else:
        with pytest.raises(CampaignConfigError, match=pattern):
            resolve_spec(runner, params)


@pytest.mark.parametrize(
    "params, path",
    [
        (objective(drop=("target",)), "objectives[0].target"),
        (objective(drop=("total",)), "objectives[0].total"),
        (summary(drop=("op",)), "summary_objectives[0].op"),
    ],
)
def test_missing_slo_field_is_refused_naming_it(params, path):
    with pytest.raises(SloConfigError, match=re.escape(path) + " is required"):
        parse_slo_config(params)


@pytest.mark.parametrize(
    "params, message",
    [
        (
            objective(total={"metric": "no_such_metric"}),
            "objectives[0].total: unknown metric 'no_such_metric'",
        ),
        (
            objective(bad=dict(LATENCY, above_s=-1.0)),
            "objectives[0].bad: serve_frame_latency_seconds: 'above_s' must be",
        ),
        (
            objective(target=1.5),
            "objectives[0]: objective 'frame_deadline': ratio target",
        ),
    ],
    ids=["unknown-metric", "negative-above-s", "ratio-target"],
)
def test_nested_validator_refusal_names_its_place(params, message):
    with pytest.raises(SloConfigError, match=re.escape(message)):
        parse_slo_config(params)
