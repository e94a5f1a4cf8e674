"""Runner registry: every campaign-drivable workload behind one seam.

Each runner pairs the owning subsystem's programmatic entry points —
``resolve_run_config(params) -> dict`` (validate + canonicalize) and
``run_from_config(params) -> report`` (execute) — with a bridge that
turns the report into the tracking backend's three durable outputs:

* a flat ``metrics`` dict (what ``exp compare`` tabulates),
* ``report.txt`` (the same human-readable report the CLI prints),
* a :class:`~repro.obs.metrics.MetricsRegistry` snapshot, exported per
  run as ``metrics.prom`` (Prometheus text) and ``metrics.jsonl`` (one
  canonical-JSON instrument per line).

Everything here is deterministic: no wall clocks, no hostnames — two
executions of the same resolved config produce byte-equal artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

from repro.exp.errors import CampaignConfigError
from repro.experiments import cli as paper_cli
from repro.obs.metrics import MetricsRegistry
from repro.recover import cli as recover_cli
from repro.recover.codec import canonical_json, config_hash
from repro.recover.kinds import RUN_KINDS, build_runtime, resolve_run_config
from repro.reliability import cli as sdc_cli
from repro.reliability.campaign import format_sdc_report, sdc_summary_metrics
from repro.serve.telemetry import (
    fleet_summary_metrics,
    format_fleet_report,
    publish_fleet_metrics,
)


@dataclass(frozen=True)
class RunSpec:
    """One fully resolved run: identity, provenance, and how to run it."""

    runner: str
    params: dict = field(hash=False)
    config: dict = field(hash=False)  # fully resolved canonical config
    run_id: str = ""


@dataclass
class RunOutcome:
    """What one executed run hands to the tracking backend."""

    metrics: dict
    artifacts: "dict[str, str]"  # name -> text content


# ----------------------------------------------------------------------
# Registry bridges
# ----------------------------------------------------------------------
def _finite(value: float) -> "float | str":
    value = float(value)
    return value if math.isfinite(value) else repr(value)


def _sanitize(metrics: dict) -> dict:
    """Canonical JSON rejects NaN/Inf; stringify them instead of dying."""
    return {str(k): _finite(v) for k, v in metrics.items()}


def _registry_artifacts(registry: MetricsRegistry) -> "dict[str, str]":
    """Snapshot a registry into the two export formats."""
    lines = []
    for instrument in registry.instruments():
        row = {
            "name": instrument.name,
            "labels": instrument.labels,
            "kind": instrument.kind,
        }
        if instrument.kind == "histogram":
            summary = instrument.summary((50, 95, 99))
            row.update(
                count=instrument.count,
                sum=_finite(instrument.sum),
                p50=_finite(summary["p50"]),
                p95=_finite(summary["p95"]),
                p99=_finite(summary["p99"]),
            )
        else:
            row["value"] = _finite(instrument.value)
        lines.append(canonical_json(row))
    return {
        "metrics.prom": registry.to_prometheus(),
        "metrics.jsonl": "".join(line + "\n" for line in lines),
    }


def _fleet_registry(report) -> MetricsRegistry:
    """Bridge a FleetReport into a registry (gauges, counters, and the
    latency/queue-wait distributions replayed from the per-session
    accumulators — deterministic, no live tracing required)."""
    registry = MetricsRegistry()
    publish_fleet_metrics(report, registry)
    latency = registry.histogram(
        "serve_frame_latency_seconds", "End-to-end frame latency"
    )
    for session in report.sessions:
        for sample in session.latencies_s:
            latency.observe(sample)
    return registry


def _fleet_outcome(report, extra_metrics: "dict | None" = None) -> RunOutcome:
    metrics = fleet_summary_metrics(report)
    if extra_metrics:
        metrics.update(extra_metrics)
    artifacts = {"report.txt": format_fleet_report(report) + "\n"}
    artifacts.update(_registry_artifacts(_fleet_registry(report)))
    return RunOutcome(metrics=_sanitize(metrics), artifacts=artifacts)


def _execute_kind(kind: str, params: dict) -> RunOutcome:
    """Run one serve / chaos / fleet run (see :mod:`repro.recover.kinds`)."""
    return _fleet_outcome(build_runtime(resolve_run_config(kind, params)).run())


def _execute_sdc(params: dict) -> RunOutcome:
    report = sdc_cli.run_from_config(params)
    registry = MetricsRegistry()
    metrics: dict = sdc_summary_metrics(report)
    registry.gauge(
        "sdc_abft_cycle_overhead", "Measured ABFT predict-path cycle overhead"
    ).set(report.cycle_overhead)
    for run in report.runs:
        labels = {"protection": run.protection, "fit": f"{run.fit_per_mbit:g}"}
        registry.gauge("sdc_coverage", "SDC coverage", **labels).set(run.coverage)
        registry.gauge("sdc_escaped", "Escaped SDC frames", **labels).set(
            run.escaped_sdc
        )
        registry.gauge("sdc_p95_error_deg", "P95 output deviation", **labels).set(
            run.p95_error_deg
        )
    artifacts = {"report.txt": format_sdc_report(report) + "\n"}
    artifacts.update(_registry_artifacts(registry))
    return RunOutcome(metrics=_sanitize(metrics), artifacts=artifacts)


def _execute_recover(params: dict) -> RunOutcome:
    probe = recover_cli.run_from_config(params)
    outcome = _fleet_outcome(
        probe.report,
        extra_metrics={
            "killed": float(probe.killed),
            "replayed_events": float(probe.replayed_events),
            "skipped_checkpoints": float(probe.skipped_checkpoints),
            "verified": float(probe.verified),
        },
    )
    verdict = (
        "recover probe: killed={killed} replayed={replayed} "
        "skipped_checkpoints={skipped} verified={verified}\n".format(
            killed=probe.killed,
            replayed=probe.replayed_events,
            skipped=probe.skipped_checkpoints,
            verified=probe.verified,
        )
    )
    outcome.artifacts["report.txt"] = verdict + outcome.artifacts["report.txt"]
    return outcome


def _execute_paper(params: dict) -> RunOutcome:
    text = paper_cli.run_from_config(params)
    registry = MetricsRegistry()
    registry.gauge("paper_report_lines", "Lines in the generated report").set(
        len(text.splitlines())
    )
    artifacts = {"report.txt": text + "\n"}
    artifacts.update(_registry_artifacts(registry))
    return RunOutcome(
        metrics=_sanitize({"report_lines": float(len(text.splitlines()))}),
        artifacts=artifacts,
    )


#: name -> (resolve, execute).  New workloads register here; the rest of
#: the campaign machinery (expansion, ledger, compare) is runner-agnostic.
RUNNERS = {
    **{
        kind: (partial(resolve_run_config, kind), partial(_execute_kind, kind))
        for kind in RUN_KINDS
    },
    "sdc": (sdc_cli.resolve_run_config, _execute_sdc),
    "recover": (recover_cli.resolve_run_config, _execute_recover),
    "paper": (paper_cli.resolve_run_config, _execute_paper),
}


def resolve_spec(runner: str, params: dict) -> RunSpec:
    """Validate one (runner, params) pair and assign its run identity.

    The run id is the :func:`~repro.recover.codec.config_hash` of the
    fully resolved config — *not* of the params spelling — so omitted
    defaults, dict ordering, and equivalent spellings share an id, which
    is exactly what makes ledger-based resume a config-hash cache.
    """
    entry = RUNNERS.get(runner)
    if entry is None:
        raise CampaignConfigError(
            f"unknown runner {runner!r}; registered: {sorted(RUNNERS)}"
        )
    resolve, _ = entry
    try:
        resolved = resolve(params)
    except (ValueError, TypeError) as err:
        raise CampaignConfigError(f"{runner} params rejected: {err}") from err
    return RunSpec(
        runner=runner, params=params, config=resolved, run_id=config_hash(resolved)
    )


def execute_spec(runner: str, params: dict) -> RunOutcome:
    """Execute one resolved run (also the process-pool child entry)."""
    _, execute = RUNNERS[runner]
    return execute(params)
