"""Campaign expansion: deterministic order, dotted paths, validation."""

from __future__ import annotations

import pytest

from repro.exp.config import expand_campaign
from repro.exp.errors import CampaignConfigError


def test_grid_expands_rightmost_fastest_in_sorted_key_order():
    name, runs = expand_campaign({
        "name": "g",
        "runs": [{"runner": "r", "grid": {"b": [10, 20], "a": [1, 2]}}],
    })
    assert name == "g"
    assert [p for _, p in runs] == [
        {"a": 1, "b": 10}, {"a": 1, "b": 20},
        {"a": 2, "b": 10}, {"a": 2, "b": 20},
    ]


def test_seeds_is_shorthand_for_a_seed_axis():
    _, runs = expand_campaign({
        "name": "s",
        "runs": [{"runner": "r", "params": {"x": 1}, "seeds": [0, 1]}],
    })
    assert [p for _, p in runs] == [{"x": 1, "seed": 0}, {"x": 1, "seed": 1}]


def test_seeds_and_grid_seed_are_mutually_exclusive():
    with pytest.raises(CampaignConfigError, match="mutually exclusive"):
        expand_campaign({
            "name": "s",
            "runs": [{"runner": "r", "seeds": [0], "grid": {"seed": [1]}}],
        })


def test_dotted_grid_keys_reach_nested_params():
    _, runs = expand_campaign({
        "name": "d",
        "runs": [{
            "runner": "r",
            "params": {"serve": {"n_workers": 2}},
            "grid": {"serve.n_sessions": [4, 8]},
        }],
    })
    assert [p for _, p in runs] == [
        {"serve": {"n_workers": 2, "n_sessions": 4}},
        {"serve": {"n_workers": 2, "n_sessions": 8}},
    ]


def test_dotted_key_into_non_dict_is_rejected():
    with pytest.raises(CampaignConfigError, match="non-dict"):
        expand_campaign({
            "name": "d",
            "runs": [{"runner": "r", "params": {"x": 1}, "grid": {"x.y": [0]}}],
        })


def test_list_entries_append_after_the_grid():
    _, runs = expand_campaign({
        "name": "l",
        "runs": [{
            "runner": "r",
            "grid": {"a": [1]},
            "list": [{"a": 9}, {"b": 2}],
        }],
    })
    assert [p for _, p in runs] == [{"a": 1}, {"a": 9}, {"b": 2}]


def test_list_only_block_enumerates_only_the_list():
    _, runs = expand_campaign({
        "name": "l",
        "runs": [{"runner": "r", "params": {"base": 1},
                  "list": [{"a": 1}, {"a": 2}]}],
    })
    assert [p for _, p in runs] == [{"base": 1, "a": 1}, {"base": 1, "a": 2}]


def test_expansion_does_not_alias_params_between_runs():
    _, runs = expand_campaign({
        "name": "a",
        "runs": [{"runner": "r", "params": {"nest": {"x": 0}},
                  "grid": {"nest.x": [1, 2]}}],
    })
    runs[0][1]["nest"]["x"] = 99
    assert runs[1][1]["nest"]["x"] == 2


def test_blocks_concatenate_in_order():
    _, runs = expand_campaign({
        "name": "b",
        "runs": [
            {"runner": "one", "params": {"k": 1}},
            {"runner": "two", "params": {"k": 2}},
        ],
    })
    assert [(r, p["k"]) for r, p in runs] == [("one", 1), ("two", 2)]


@pytest.mark.parametrize("config, match", [
    ({"runs": [{"runner": "r"}]}, "name"),
    ({"name": "bad name!", "runs": [{"runner": "r"}]}, "name"),
    ({"name": "x", "runs": []}, "non-empty"),
    ({"name": "x", "runs": [{"runner": "r"}], "extra": 1}, "unknown campaign keys"),
    ({"name": "x", "runs": [{"params": {}}]}, "runner"),
    ({"name": "x", "runs": [{"runner": "r", "grid": {"a": []}}]}, "non-empty"),
    ({"name": "x", "runs": [{"runner": "r", "typo": 1}]}, "unknown keys"),
    (
        {
            "name": "x",
            "runs": [
                {"runner": "r", "seeds": [0]},
                {"runner": "r", "seeds": [1.5, True]},
            ],
        },
        r"runs\[1\]\.seeds\[0\] must be int, got 1\.5",
    ),
    (
        {"name": "x", "runs": [{"runner": "r", "seeds": [0, True]}]},
        r"runs\[0\]\.seeds\[1\] must be int, got True",
    ),
])
def test_malformed_campaigns_are_rejected(config, match):
    with pytest.raises(CampaignConfigError, match=match):
        expand_campaign(config)
