"""Command-line report generator: ``python -m repro <experiment>``.

Regenerates individual paper tables/figures (or the full analytic set)
without going through pytest.  Training-dependent experiments accept a
``--scale`` flag; everything prints the same rows the paper reports.

``python -m repro serve [...]`` runs the multi-session serving simulator
instead (see ``repro.serve.cli`` for its flags),
``python -m repro chaos [...]`` runs a seeded fault-injection scenario on
it (see ``repro.faults.cli``), ``python -m repro trace [...]`` runs a
traced workload and exports trace.json / metrics.prom
(see ``repro.obs.cli``), ``python -m repro recover [...]`` warm-restarts
a killed checkpointed run (see ``repro.recover.cli``),
``python -m repro sdc [...]`` runs the soft-error / silent-data-corruption
resilience campaign (see ``repro.reliability.cli``), and
``python -m repro exp [...]`` runs declarative experiment campaigns with
the on-disk tracking backend (see ``repro.exp.cli``),
``python -m repro bench [...]`` gates, trends and renders the
persisted performance-trajectory ledger (see ``repro.bench.cli``), and
``python -m repro fleet [...]`` runs the sharded fleet with
consistent-hash routing, live migration, and shard failover
(see ``repro.serve.fleet.cli``).
"""

from __future__ import annotations

import sys
from importlib import import_module

#: Subcommand registry: name -> module exposing ``main(argv) -> int``.
#: New subcommands register here (and nowhere else); anything not listed
#: falls through to the paper-experiment generator.
SUBCOMMANDS: dict[str, str] = {
    "serve": "repro.serve.cli",
    "chaos": "repro.faults.cli",
    "trace": "repro.obs.cli",
    "recover": "repro.recover.cli",
    "sdc": "repro.reliability.cli",
    "exp": "repro.exp.cli",
    "bench": "repro.bench.cli",
    "fleet": "repro.serve.fleet.cli",
}


def main(argv: "list[str] | None" = None) -> int:
    raw = sys.argv[1:] if argv is None else argv
    if raw and raw[0] in SUBCOMMANDS:
        module = import_module(SUBCOMMANDS[raw[0]])
        return module.main(raw[1:])
    from repro.experiments.cli import main as experiments_main

    return experiments_main(raw, description=__doc__)


if __name__ == "__main__":
    sys.exit(main())
