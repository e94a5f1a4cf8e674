"""Run identities are pinned: campaign run ids and CLI obs-out hashes.

Ledger resume is a config-hash cache, so a run id that moves silently
re-executes every campaign that holds it.  The ids below were computed
from the shipped example campaigns and must not change when the config
codecs or the CLIs are refactored.

A CLI run names its default ``obs-out/<kind>-<hash>`` directory by the
same hash, so a CLI run and the campaign run of the same settings share
one identity.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.__main__ import main
from repro.exp.config import load_campaign
from repro.exp.runner import resolve_campaign
from repro.exp.runners import resolve_spec

CAMPAIGNS = Path(__file__).resolve().parents[2] / "examples" / "campaigns"

#: campaign file -> run ids in resolution order.
CAMPAIGN_RUN_IDS = {
    "fleet.json": [
        "e0773dbfc795", "820e9de8da18", "42672c09928c", "9156849b6291",
        "097ac62f19dc", "556f83f89701",
    ],
    "fleet_10k.json": ["bec7624617cb", "513f018e3b15"],
    "partition.json": [
        "b172295185d7", "e18bdb641d5d", "6551e6a5917b", "c658cc68bea8",
        "3def907a2382", "01780c6e1f37",
    ],
    "smoke.json": [
        "02eb8dd1f66c", "24e69dec0a18", "f5355eca059f", "821166c15400",
    ],
}


@pytest.mark.parametrize("name", sorted(CAMPAIGN_RUN_IDS))
def test_campaign_run_ids_are_pinned(name):
    _, specs = resolve_campaign(load_campaign(CAMPAIGNS / name))
    assert [spec.run_id for spec in specs] == CAMPAIGN_RUN_IDS[name]


#: kind -> (CLI flags, the campaign params of the same settings, run id).
CLI_RUNS = {
    "serve": (
        ["--sessions", "4", "--duration", "0.2", "--seed", "2"],
        {"n_sessions": 4, "duration_s": 0.2, "seed": 2},
        "9828190c8cb1",
    ),
    "chaos": (
        ["--sessions", "4", "--duration", "0.2", "--seed", "2"],
        {"serve": {"n_sessions": 4, "duration_s": 0.2}, "seed": 2},
        "609976434934",
    ),
    "fleet": (
        ["--sessions", "6", "--shards", "2", "--duration", "0.2",
         "--kill-shard", "1@0.1", "--migrate", "3@0.05"],
        {
            "serve": {"n_sessions": 6, "duration_s": 0.2},
            "n_shards": 2,
            "kills": [{"shard_id": 1, "at_s": 0.1}],
            "migrations": [{"at_s": 0.05, "session_id": 3}],
        },
        "024fece96ae2",
    ),
}


@pytest.mark.parametrize("kind", sorted(CLI_RUNS))
def test_cli_obs_out_hash_is_the_campaign_run_id(
    kind, tmp_path, monkeypatch, capsys
):
    flags, params, run_id = CLI_RUNS[kind]
    assert resolve_spec(kind, params).run_id == run_id
    monkeypatch.chdir(tmp_path)
    assert main([kind, *flags, "--obs"]) == 0
    capsys.readouterr()
    assert [p.name for p in (tmp_path / "obs-out").iterdir()] == [
        f"{kind}-{run_id}"
    ]
