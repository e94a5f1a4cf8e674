"""Persisted performance trajectories: ledger, trends, regression gate.

``repro.bench`` keeps a *history* of flat benchmark metrics dicts:

* :mod:`repro.bench.ledger` — ``BENCH_HISTORY.jsonl``, an append-only
  CRC-sealed ledger of benchmark results (the same journal format the
  crash-recovery WAL and the campaign runs ledger use), tracked in git
  so the repository carries its own performance trajectory.
* :mod:`repro.bench.trend` — ASCII sparklines + signed deltas over the
  history (``python -m repro bench trend``).
* :mod:`repro.bench.gate` — the regression gate: compares the newest
  record per bench against its ledger baseline using the shared
  metric-direction registry (:mod:`repro.obs.directions`) and exits
  nonzero on any out-of-tolerance move (``python -m repro bench gate``).
* :mod:`repro.bench.report` — a self-contained zero-dependency HTML
  dashboard of bench trajectories and SLO outcomes.

The serving workloads whose metrics the tracked history records run as
the ``examples/campaigns/acceptance.json`` campaign
(``python -m repro exp run``).
"""

from repro.bench.gate import GATE_EXIT_REGRESSION, evaluate_gate, format_gate
from repro.bench.ledger import (
    BENCH_LEDGER_NAME,
    append_bench_record,
    read_bench_history,
)
from repro.bench.trend import format_trend, sparkline

__all__ = [
    "BENCH_LEDGER_NAME",
    "GATE_EXIT_REGRESSION",
    "append_bench_record",
    "evaluate_gate",
    "format_gate",
    "format_trend",
    "read_bench_history",
    "sparkline",
]
