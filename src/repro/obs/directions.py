"""Explicit metric-direction registry: what counts as a regression.

``exp compare`` marks the best run per metric and ``bench gate`` fails a
PR when a metric moves the wrong way — both need to agree on which way
is "wrong".  The original substring heuristic ("anything containing
``miss`` is a loss") mis-filed composite names, so directions are now
*declared*: an exact-name table covering every metric the runners and
benchmark suites emit, plus a handful of anchored family rules for
parameterized names (``fleet64_p95_ms``, ``abft_fit800_coverage``).

Unknown names get direction 0 — no best-marking, no gating.  ``wall_s``
is deliberately unlisted: wall clock is the one sanctioned
nondeterminism and must never gate a PR.
"""

from __future__ import annotations

import re

#: Exact metric name -> direction.  +1 higher is better, -1 lower is
#: better.  Grouped by the subsystem that emits the name.
_EXACT: "dict[str, int]" = {
    # FleetReport.summary() (serve / chaos / recover runners)
    "throughput_fps": +1,
    "predict_goodput_fps": +1,
    "goodput_fps": +1,
    "sequential_goodput_fps": +1,
    "p50_ms": -1,
    "p95_ms": -1,
    "p99_ms": -1,
    "miss_rate": -1,
    "shed_rate": -1,
    "degrade_rate": -1,
    "worker_utilization": +1,
    "mean_batch": +1,
    "mean_batch_size": +1,
    # FaultReport.summary() (prefixed faults_ by the runners): harm
    # absorbed by the recovery stack — less is better.  Raw injection
    # counts (drops, corruptions, upsets) describe the environment, not
    # the system under test, and stay unlisted.
    "faults_batch_failures": -1,
    "faults_frames_requeued": -1,
    "faults_retry_exhausted": -1,
    "faults_deadline_degraded": -1,
    "faults_occlusion_degraded": -1,
    "faults_breaker_opens": -1,
    "faults_watchdog_reuse": -1,
    "faults_watchdog_full_res": -1,
    "faults_sdc_escaped": -1,
    "faults_sdc_fallback_degraded": -1,
    "faults_widened_delta_theta_deg": -1,
    "faults_sdc_detected": +1,
    # SDC campaign aggregates and per-cell names
    "cycle_overhead": -1,
    "coverage": +1,
    "coverage_min": +1,
    "escaped_sdc": -1,
    "escaped_total": -1,
    "detected": +1,
    "p95_error_deg": -1,
    "mean_error_deg": -1,
    # Sharded fleet (FleetSection.summary(), fleet runner + bench suite)
    "failover_lost_frames": -1,
    "rehome_breaker_degraded": -1,
    # Lossy transport (NetSection.summary(), prefixed net_ by the fleet
    # summary; bare spellings cover the bench suite's window metrics).
    # Protocol work (retransmits, dedupes) and failure-mode counts are
    # costs; bounced sessions mean false suspicions recovered, so more
    # bounce-back after a partition is the healthy direction.
    "retransmits_total": -1,
    "frames_deduped_total": -1,
    "failover_detect_s": -1,
    "heal_bounce_sessions": +1,
    "exhausted_degraded": -1,
    "exhausted_lost": -1,
    "false_suspects": -1,
    "late_discards": -1,
    "dead_letters": -1,
    # Net bench window metrics (part<L>ms_ family)
    "retransmit_overhead": -1,
    "frames_lost": -1,
    "deduped": -1,
    "bounced": +1,
    "heal_s": -1,
    # Recovery probe
    "replayed_events": -1,
    "skipped_checkpoints": -1,
    "verified": +1,
    # SLO verdicts (repro.obs.slo)
    "slo_failed_total": -1,
}

#: Anchored family rules for parameterized names: strip the instance
#: prefix and look the base name up again.
_FAMILIES = (
    re.compile(r"^fleet\d+_(?P<rest>.+)$"),
    re.compile(r"^(?:unprotected|abft|guard)_fit[0-9.eE+-]+_(?P<rest>.+)$"),
    re.compile(r"^(?:unprotected|abft|guard)_(?P<rest>coverage_min|escaped_total|p95_error_deg)$"),
    # NetSection.summary() keys as prefixed by fleet_summary_metrics.
    re.compile(r"^net_(?P<rest>.+)$"),
    # Net bench windows: part50ms_retransmit_overhead, ...
    re.compile(r"^part\d+ms_(?P<rest>.+)$"),
)

#: Latency percentiles in milliseconds, any percentile spelling.
_PERCENTILE_MS = re.compile(r"^p\d+(?:_\d+)?_ms$")

#: Per-objective SLO pass verdicts recorded by campaign sweeps.
_SLO_PASS = re.compile(r"^slo_pass_[a-zA-Z0-9_]+$")


def metric_direction(name: str) -> int:
    """-1 lower is better, +1 higher is better, 0 unknown (not gated)."""
    direction = _EXACT.get(name)
    if direction is not None:
        return direction
    if _PERCENTILE_MS.match(name):
        return -1
    if _SLO_PASS.match(name):
        return +1
    for family in _FAMILIES:
        match = family.match(name)
        if match:
            return metric_direction(match.group("rest"))
    return 0
