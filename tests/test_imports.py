"""Every package entry point imports cleanly as the first import.

``repro.serve`` exports the fleet names eagerly, and ``repro.faults``
imports ``repro.serve`` through its config: an import cycle between the
two would show only when one of them is the first ``repro`` import of an
interpreter, so each entry point gets a fresh one.  The same holds for
every module whose project imports sit at module level rather than in
a function body (the accelerator model's tracer pids, the trace CLI's
paper-scale exemplar, the SDC campaign's accelerator overhead).
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)

ENTRY_POINTS = (
    "repro",
    "repro.faults",
    "repro.serve",
    "repro.serve.fleet",
    "repro.recover",
    "repro.exp",
    "repro.obs",
    "repro.obs.cli",
    "repro.reliability",
    "repro.core",
    "repro.hw",
    "repro.baselines",
    "repro.experiments",
    "repro.__main__",
)


@pytest.mark.parametrize("module", ENTRY_POINTS)
def test_entry_point_imports_first(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def test_serve_exports_fleet_names_eagerly():
    import repro.serve
    from repro.serve import fleet

    for name in ("FleetRuntime", "ShardKill", "ShardRuntime", "run_fleet"):
        assert vars(repro.serve)[name] is getattr(fleet, name)
