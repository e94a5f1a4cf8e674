"""Declarative campaign configs: plain dicts, zero dependencies.

A campaign is a JSON-safe dict (no YAML, no schema library) describing
parameter sweeps over the registered runners::

    {
      "name": "admission-sweep",
      "runs": [
        {
          "runner": "serve",
          "params": {"n_sessions": 8, "duration_s": 0.5},
          "grid":   {"max_batch": [4, 8], "admission": ["degrade", "shed"]},
          "seeds":  [0, 1],
          "list":   [{"n_sessions": 32}]
        }
      ]
    }

Each block expands to the cartesian product of its ``grid`` axes
(``seeds`` is shorthand for a ``seed`` axis) merged over ``params``,
followed by the explicit ``list`` entries; a block with a ``list`` and
no grid enumerates only the list.  Grid keys may be dotted
paths (``"serve.n_sessions"``) to reach into nested runner params.
Expansion is fully deterministic: axes iterate in sorted-key order with
the rightmost axis fastest, so the same config always yields the same
run sequence — the property the resumable ledger and the byte-diffing
``exp-smoke`` CI job rest on.

A run's *identity* is not its spelling but the
:func:`~repro.recover.codec.config_hash` of the runner's fully resolved
config (defaults applied, canonical JSON) — see
:func:`repro.exp.runners.resolve_spec`.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import re

from repro.exp.errors import CampaignConfigError
from repro.recover.configio import decode

_NAME_RE = re.compile(r"^[a-zA-Z0-9][a-zA-Z0-9._-]*$")

_BLOCK_KEYS = frozenset({"runner", "params", "grid", "seeds", "list"})
# "slo" is an optional summary-objective block evaluated against every
# run's metrics by repro.exp.runner (parsed via repro.obs.slo).
_TOP_KEYS = frozenset({"name", "runs", "slo"})


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CampaignConfigError(message)


def _set_path(params: dict, path: str, value) -> None:
    """Set a possibly dotted key (``"serve.n_sessions"``) in ``params``."""
    keys = path.split(".")
    _require(
        all(keys), f"bad sweep key {path!r} (empty path segment)"
    )
    node = params
    for key in keys[:-1]:
        child = node.setdefault(key, {})
        _require(
            isinstance(child, dict),
            f"sweep key {path!r} descends into non-dict param {key!r}",
        )
        node = child
    node[keys[-1]] = value


def _merge(base: dict, overrides: dict) -> dict:
    merged = copy.deepcopy(base)
    for path, value in overrides.items():
        _set_path(merged, path, copy.deepcopy(value))
    return merged


def _expand_block(block: dict, index: int) -> "list[tuple[str, dict]]":
    _require(isinstance(block, dict), f"runs[{index}] must be a dict")
    unknown = sorted(set(block) - _BLOCK_KEYS)
    _require(
        not unknown,
        f"runs[{index}]: unknown keys {unknown} (known: {sorted(_BLOCK_KEYS)})",
    )
    runner = block.get("runner")
    _require(
        isinstance(runner, str) and bool(runner),
        f"runs[{index}]: 'runner' is required and must be a string",
    )
    params = block.get("params", {})
    _require(isinstance(params, dict), f"runs[{index}]: 'params' must be a dict")

    grid = dict(block.get("grid", {}))
    _require(isinstance(grid, dict), f"runs[{index}]: 'grid' must be a dict")
    seeds = block.get("seeds")
    if seeds is not None:
        _require(
            isinstance(seeds, list) and seeds,
            f"runs[{index}]: 'seeds' must be a non-empty list",
        )
        _require(
            "seed" not in grid,
            f"runs[{index}]: 'seeds' and grid['seed'] are mutually exclusive",
        )
        try:
            grid["seed"] = decode(list[int], seeds, f"runs[{index}].seeds")
        except TypeError as err:
            raise CampaignConfigError(str(err)) from err
    for axis, values in grid.items():
        _require(
            isinstance(values, list) and values,
            f"runs[{index}]: grid axis {axis!r} must be a non-empty list",
        )

    explicit = block.get("list", [])
    _require(isinstance(explicit, list), f"runs[{index}]: 'list' must be a list")

    expanded: list[tuple[str, dict]] = []
    # With no grid axes the product is the single bare-params point —
    # emitted only when there is no explicit list to enumerate instead.
    if grid or not explicit:
        axes = sorted(grid)
        for point in itertools.product(*(grid[axis] for axis in axes)):
            expanded.append((runner, _merge(params, dict(zip(axes, point)))))
    for j, overrides in enumerate(explicit):
        _require(
            isinstance(overrides, dict),
            f"runs[{index}]: list[{j}] must be a dict of param overrides",
        )
        expanded.append((runner, _merge(params, overrides)))
    return expanded


def expand_campaign(config: dict) -> "tuple[str, list[tuple[str, dict]]]":
    """Validate a campaign dict -> ``(name, [(runner, params), ...])``.

    Purely syntactic: runner names and params are validated later by
    :func:`repro.exp.runners.resolve_spec`, which also assigns run ids
    and collapses duplicates.
    """
    _require(isinstance(config, dict), "campaign config must be a dict")
    unknown = sorted(set(config) - _TOP_KEYS)
    _require(
        not unknown,
        f"unknown campaign keys {unknown} (known: {sorted(_TOP_KEYS)})",
    )
    name = config.get("name")
    _require(
        isinstance(name, str) and bool(_NAME_RE.match(name or "")),
        f"campaign 'name' must match {_NAME_RE.pattern}, got {name!r}",
    )
    blocks = config.get("runs")
    _require(
        isinstance(blocks, list) and bool(blocks),
        "campaign 'runs' must be a non-empty list of sweep blocks",
    )
    specs: list[tuple[str, dict]] = []
    for index, block in enumerate(blocks):
        specs.extend(_expand_block(block, index))
    return name, specs


def load_campaign(path: "str | os.PathLike") -> dict:
    """Read a campaign config from a JSON file."""
    with open(path, encoding="utf-8") as handle:
        try:
            config = json.load(handle)
        except json.JSONDecodeError as err:
            raise CampaignConfigError(f"campaign file {path}: {err}") from err
    if not isinstance(config, dict):
        raise CampaignConfigError(f"campaign file {path}: top level must be a dict")
    return config
