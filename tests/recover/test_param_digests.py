"""Run ids and SLO config bytes read from outside dicts are pinned.

Paper experiment params, chaos scenario knobs, recover probe params and
``*.slo.json`` files are all dicts read from outside the program.  A
parser refactor must leave every valid input's resolved identity alone:
a run id that moves re-executes every campaign that holds it, and an SLO
config that decodes differently changes which frames its ``widen`` page
widens.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.exp.runners import resolve_spec
from repro.obs.slo import default_slo_config, load_slo_config, parse_slo_config
from repro.recover import canonical_bytes
from repro.recover.configio import encode

EXAMPLE_SLO = (
    Path(__file__).resolve().parents[2] / "examples" / "slo" / "serve.slo.json"
)

#: (runner, params, run id).
RUN_IDS = [
    ("paper", {"experiment": "fig12"}, "ac103dad3962"),
    ("paper", {"experiment": "table1", "scale": "tiny", "seed": 3}, "5f5c712cfbe3"),
    (
        "chaos",
        {"soft_error_fit": 100.0, "soft_error_accel": 1e9, "seed": 3},
        "5ec0ae98a307",
    ),
    ("chaos", {"soft_error_fit": 100, "seed": 3}, "e295727f9cdf"),
    ("chaos", {"no_worker_faults": True, "serve": {"n_sessions": 4}}, "c51ee88cb4d8"),
    ("chaos", {"serve": {"n_workers": 1}}, "850a6c9d97ab"),
    ("chaos", {"fault_free": True, "seed": 2}, "fb033e5df6e6"),
    (
        "recover",
        {"target": "chaos", "kill_at_event": 100, "checkpoint_every": 25},
        "dd0d2c7c4451",
    ),
]


@pytest.mark.parametrize(
    "runner, params, run_id", RUN_IDS, ids=[case[2] for case in RUN_IDS]
)
def test_run_ids_are_pinned(runner, params, run_id):
    assert resolve_spec(runner, params).run_id == run_id


def labelled_slo_config():
    """An objective whose refs carry labels, spelled out of key order."""
    return parse_slo_config({
        "objectives": [
            {
                "name": "path_mix",
                "kind": "ratio",
                "total": {
                    "metric": "serve_frames_total",
                    "labels": {"path": "reuse", "b": "x"},
                },
                "bad": {
                    "metric": "serve_frames_total",
                    "labels": {"path": "saccade"},
                },
                "target": 0.5,
                "window_s": 0.09,
            }
        ]
    })


#: sample -> sha256 of the canonical bytes of the encoded SLO config.
SLO_DIGESTS = {
    "example": (
        "4eac346557283f825ffe1b462131c460"
        "38c42d5216c00d7c844984c08d732616"
    ),
    "default": (
        "3bb49ee7aa391d570f662c5f30c20da2"
        "30348b8e3313b112c621c0a7ac46adbf"
    ),
    "labelled": (
        "451238dfedd3a60d444fbf8c7090a6f2"
        "9c885e8df5f02b8facb7e094ef03d0a2"
    ),
}

SLO_CONFIGS = {
    "example": lambda: load_slo_config(EXAMPLE_SLO),
    "default": lambda: default_slo_config(0.01),
    "labelled": labelled_slo_config,
}


@pytest.mark.parametrize("sample", sorted(SLO_DIGESTS))
def test_slo_config_bytes_are_pinned(sample):
    config = SLO_CONFIGS[sample]()
    digest = hashlib.sha256(canonical_bytes(encode(config))).hexdigest()
    assert digest == SLO_DIGESTS[sample]
