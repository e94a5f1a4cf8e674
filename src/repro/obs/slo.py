"""Online SLO engine: declarative objectives, burn rates, alerting.

The paper's pipeline lives or dies by latency budgets, so the serving
stack gets the same discipline production SRE practice applies to one:
explicit service-level objectives, evaluated *online* against the
:class:`~repro.obs.metrics.MetricsRegistry` instruments the runtimes
already publish, with multi-window burn-rate alerting.

Two objective kinds cover the telemetry we have:

* ``ratio`` — a good-events fraction over an event stream, e.g. "95% of
  frames complete under the deadline".  The bad-event stream is usually
  the same latency histogram filtered by a threshold (``above_s``), so a
  P95-latency SLO is a ratio SLO over threshold exceedances.  The burn
  rate is the classic error-budget consumption speed:
  ``(bad / total) / (1 - target)`` — burn 1.0 spends the budget exactly
  at the sustainable rate, burn 10 spends it 10x too fast.
* ``rate_min`` — an event-rate floor, e.g. "the fleet sustains at least
  800 fresh predictions per second".  Burn is ``target_rate / observed``.

Every objective is evaluated on two windows at once (fast + slow, à la
multi-window multi-burn alerting): the fast window catches cliffs in
seconds, the slow window keeps one noisy blip from paging.  An alert
fires only when *both* windows burn — that is what closes the classic
fast-window flappiness hole.  The per-objective alert state machine is
``OK -> WARN -> PAGE -> RESOLVED -> OK``; every transition is emitted as
a tracer instant on the dedicated :data:`~repro.obs.tracer.PID_SLO`
track and counted in the registry, so alerts are visible in Perfetto
next to the frames that caused them and in the Prometheus export.

Pages can act, not just report: an objective with ``on_page: "widen"``
makes a chaos run's :class:`~repro.faults.runtime.ChaosModel` escalate every
session's :class:`~repro.system.watchdog.TrackingWatchdog` to WIDENED —
a burning latency budget triggers the Eq. 1 foveal-radius widening path
instead of silently missing deadlines.

Everything is sim-clock driven and deterministic: evaluation happens at
fixed interval boundaries of the simulation clock, so two runs of the
same config produce byte-identical alert streams, history, and verdicts.

``summary`` objectives are the offline counterpart: threshold checks
(``metric <= target``) against a run's final flat metrics dict, used by
``python -m repro sdc --slo`` and by ``repro.exp`` campaign configs to
record per-run SLO verdicts in the runs ledger.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

from repro.obs.config import Obs
from repro.obs.metrics import Histogram
from repro.obs.tracer import PID_SLO
from repro.recover.codec import canonical_json
from repro.recover.configio import decode, encode
from repro.system.metrics import table_to_text


class SloConfigError(ValueError):
    """A malformed SLO config (unknown keys, metrics, windows)."""


#: Instrument names the serve/chaos runtimes publish while running —
#: the universe an online objective may reference.  ``repro.obs.lint``
#: and config parsing both reject names outside it, so a typo'd metric
#: fails loudly instead of silently never burning.
KNOWN_ONLINE_METRICS = frozenset({
    "serve_frames_total",
    "serve_frame_latency_seconds",
    "serve_queue_wait_seconds",
    "serve_batch_size",
    "serve_batches_total",
    "serve_deadline_miss_total",
    "serve_shed_total",
    "serve_degraded_total",
    "serve_batch_failures_total",
    "watchdog_transitions_total",
    "sdc_outcomes_total",
    "sdc_soft_errors_total",
})

#: Burn rate reported when the observed rate is zero (a full outage
#: burns "infinitely" fast; the cap keeps the arithmetic finite).
BURN_CAP = 1e3

#: Alert states, in gauge-encoding order.
ALERT_STATES = ("OK", "WARN", "PAGE", "RESOLVED")

_NAME_OK = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_")


def _check_name(name: str, where: str) -> None:
    if not name or not _NAME_OK.issuperset(name):
        raise SloConfigError(
            f"{where}: name {name!r} must be lowercase [a-z0-9_] "
            "(it becomes a metric label)"
        )


@dataclass(frozen=True)
class MetricRef:
    """One event stream: a registry instrument, optionally filtered.

    ``labels`` are sorted ``(label, value)`` pairs, spelled as a JSON
    object in a config file.  ``above_s`` turns a latency histogram into
    the stream of samples exceeding the threshold — the bad-event stream
    of a latency SLO.
    """

    metric: str
    labels: "tuple[tuple[str, str], ...]" = ()
    above_s: "float | None" = None

    def __post_init__(self) -> None:
        if self.metric not in KNOWN_ONLINE_METRICS:
            raise SloConfigError(
                f"unknown metric {self.metric!r} "
                f"(known online instruments: {sorted(KNOWN_ONLINE_METRICS)})"
            )
        if self.above_s is not None and self.above_s <= 0:
            raise SloConfigError(f"{self.metric}: 'above_s' must be positive")
        object.__setattr__(self, "labels", tuple(sorted(self.labels)))


@dataclass(frozen=True, kw_only=True)
class SloObjective:
    """One declarative online objective."""

    name: str
    kind: str  # "ratio" | "rate_min"
    total: MetricRef
    #: The bad-event stream: required by ratio, refused by rate_min.
    bad: "MetricRef | None" = None
    target: float
    window_s: float
    #: Defaults to a quarter of ``window_s``.
    fast_window_s: "float | None" = None
    warn_burn: float = 1.0
    page_burn: float = 4.0
    min_events: int = 1
    on_page: str = "none"  # "none" | "widen"
    description: str = ""

    def __post_init__(self) -> None:
        where = f"objective {self.name!r}"
        _check_name(self.name, where)
        if self.kind == "ratio":
            if self.bad is None:
                raise SloConfigError(f"{where}: ratio objectives need a 'bad' ref")
            if not 0.0 < self.target < 1.0:
                raise SloConfigError(
                    f"{where}: ratio target must be in (0, 1), got {self.target}"
                )
        elif self.kind == "rate_min":
            if self.bad is not None:
                raise SloConfigError(f"{where}: rate_min objectives take no 'bad' ref")
            if self.target <= 0:
                raise SloConfigError(f"{where}: rate_min target must be positive")
        else:
            raise SloConfigError(
                f"{where}: 'kind' must be 'ratio' or 'rate_min', got {self.kind!r}"
            )
        if self.fast_window_s is None:
            object.__setattr__(self, "fast_window_s", self.window_s / 4.0)
        window, fast = self.window_s, self.fast_window_s
        if window <= 0 or fast <= 0:
            raise SloConfigError(f"{where}: windows must be positive")
        if fast >= window:
            raise SloConfigError(
                f"{where}: fast_window_s ({fast}) must be shorter than "
                f"window_s ({window})"
            )
        if not 0 < self.warn_burn <= self.page_burn:
            raise SloConfigError(
                f"{where}: need 0 < warn_burn <= page_burn, "
                f"got {self.warn_burn}, {self.page_burn}"
            )
        if self.min_events < 1:
            raise SloConfigError(f"{where}: min_events must be >= 1")
        if self.on_page not in ("none", "widen"):
            raise SloConfigError(
                f"{where}: on_page must be 'none' or 'widen', got {self.on_page!r}"
            )

    @property
    def error_budget(self) -> float:
        """Allowed bad fraction of a ratio objective."""
        return 1.0 - self.target


@dataclass(frozen=True)
class SummaryObjective:
    """One offline threshold check against a run's final metrics."""

    name: str
    metric: str
    op: str  # "<=" | ">="
    target: float
    description: str = ""

    def __post_init__(self) -> None:
        where = f"summary objective {self.name!r}"
        _check_name(self.name, where)
        if not self.metric:
            raise SloConfigError(f"{where}: 'metric' must be a non-empty string")
        if self.op not in ("<=", ">="):
            raise SloConfigError(
                f"{where}: 'op' must be '<=' or '>=', got {self.op!r}"
            )


@dataclass(frozen=True)
class SloConfig:
    """A parsed SLO config: online objectives + summary checks."""

    objectives: "tuple[SloObjective, ...]" = ()
    summary_objectives: "tuple[SummaryObjective, ...]" = ()
    eval_interval_s: float = 0.05

    def __post_init__(self) -> None:
        if self.eval_interval_s <= 0:
            raise SloConfigError("eval_interval_s must be positive")
        names = [o.name for o in (*self.objectives, *self.summary_objectives)]
        if not names:
            raise SloConfigError("config declares no objectives at all")
        dupes = sorted({n for n in names if names.count(n) > 1})
        if dupes:
            raise SloConfigError(f"duplicate objective names: {dupes}")


@dataclass(frozen=True)
class SloVerdict:
    """One objective's end-of-run compliance verdict."""

    name: str
    kind: str
    target: float
    attained: "float | None"
    ok: bool
    pages: int
    warns: int
    final_state: str


# ----------------------------------------------------------------------
# Config parsing
# ----------------------------------------------------------------------
def _decode_slo(hint, data, path: str = ""):
    """:func:`~repro.recover.configio.decode`, refusing with
    :class:`SloConfigError` (the error SLO callers catch)."""
    try:
        return decode(hint, data, path)
    except TypeError as err:
        raise SloConfigError(str(err)) from err


def parse_slo_config(data) -> SloConfig:
    """Validate a config dict -> :class:`SloConfig` (raises on nonsense)."""
    return _decode_slo(SloConfig, data)


def load_slo_config(path: "str | Path") -> SloConfig:
    """Read and validate an ``*.slo.json`` file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as err:
        raise SloConfigError(f"{path}: unreadable ({err})") from err
    except json.JSONDecodeError as err:
        raise SloConfigError(f"{path}: invalid JSON ({err})") from err
    return parse_slo_config(data)


def default_slo_config(deadline_s: float) -> SloConfig:
    """The built-in objective set (``--slo default``): 95% of frames
    inside the run's own deadline, paging into the widening path."""
    latency = MetricRef(metric="serve_frame_latency_seconds")
    return SloConfig(objectives=(
        SloObjective(
            name="frame_p95_latency",
            kind="ratio",
            total=latency,
            bad=MetricRef(
                metric="serve_frame_latency_seconds", above_s=float(deadline_s)
            ),
            target=0.95,
            window_s=0.5,
            fast_window_s=0.125,
            warn_burn=1.0,
            page_burn=4.0,
            min_events=10,
            on_page="widen",
            description="95% of frames complete inside the deadline",
        ),
    ))


def resolve_slo_config(spec: str, deadline_s: float) -> SloConfig:
    """CLI ``--slo`` value -> config: ``default`` or a file path."""
    if spec == "default":
        return default_slo_config(deadline_s)
    return load_slo_config(spec)


# ----------------------------------------------------------------------
# Online engine
# ----------------------------------------------------------------------
class _ObjectiveState:
    """Mutable per-objective evaluation state."""

    __slots__ = (
        "objective", "tid", "state", "pages", "warns",
        "snap_t", "snap_total", "snap_bad", "cursors",
    )

    def __init__(self, objective: SloObjective, tid: int, start_s: float):
        self.objective = objective
        self.tid = tid
        self.state = "OK"
        self.pages = 0
        self.warns = 0
        # Cumulative-count snapshots at eval boundaries; the implicit
        # origin snapshot anchors windows wider than the run so far.
        self.snap_t: list[float] = [start_s]
        self.snap_total: list[float] = [0.0]
        self.snap_bad: list[float] = [0.0]
        # Per-ref (index, count) cursors for threshold-filtered
        # histogram streams — each sample is scanned exactly once.
        self.cursors: dict[str, tuple[int, int]] = {}


class SloEngine:
    """Evaluates a :class:`SloConfig` online against an Obs bundle.

    The owning runtime calls :meth:`maybe_evaluate` after each event
    (with the sim clock) and :meth:`finalize` once at end of run; the
    engine reads the registry, updates burn rates and alert states, and
    emits instants/gauges/counters.  ``on_page`` (settable) fires with
    ``(objective, now_s)`` whenever an objective enters PAGE.
    """

    def __init__(self, config: SloConfig, obs: Obs, start_s: float = 0.0):
        if not obs.enabled:
            raise ValueError(
                "SloEngine needs an enabled Obs bundle (live instruments)"
            )
        self.config = config
        self.obs = obs
        self.start_s = float(start_s)
        self.on_page = None
        self.history: list[dict] = []
        self._next_eval_s = self.start_s + config.eval_interval_s
        self._states = [
            _ObjectiveState(objective, tid, self.start_s)
            for tid, objective in enumerate(config.objectives)
        ]
        self._verdicts: "list[SloVerdict] | None" = None
        obs.tracer.declare_track(PID_SLO, "slo")
        for state in self._states:
            obs.tracer.declare_track(
                PID_SLO, "slo", tid=state.tid,
                thread_name=state.objective.name,
            )

    # ------------------------------------------------------------------
    # Reading event streams
    # ------------------------------------------------------------------
    def _read(self, ref: MetricRef, state: _ObjectiveState, role: str) -> float:
        """Cumulative event count of one stream, as of right now."""
        instrument = self.obs.metrics.get(ref.metric, **dict(ref.labels))
        if instrument is None:
            return 0.0
        if isinstance(instrument, Histogram):
            if ref.above_s is None:
                return float(instrument.count)
            cursor, above = state.cursors.get(role, (0, 0))
            samples = instrument._samples
            for value in samples[cursor:]:
                if value > ref.above_s:
                    above += 1
            state.cursors[role] = (len(samples), above)
            return float(above)
        return float(instrument.value)

    def _window_delta(
        self, state: _ObjectiveState, now_s: float, window_s: float
    ) -> "tuple[float, float, float]":
        """(elapsed, total_delta, bad_delta) over the trailing window."""
        # Latest snapshot at or before the window start; the origin
        # snapshot covers windows longer than the run so far.
        index = bisect_right(state.snap_t, now_s - window_s) - 1
        index = max(index, 0)
        elapsed = now_s - state.snap_t[index]
        total = state.snap_total[-1] - state.snap_total[index]
        bad = state.snap_bad[-1] - state.snap_bad[index]
        return elapsed, total, bad

    def _burn(
        self, state: _ObjectiveState, now_s: float, window_s: float
    ) -> "float | None":
        """Burn rate over one window; None when the signal is too thin."""
        objective = state.objective
        elapsed, total, bad = self._window_delta(state, now_s, window_s)
        if objective.kind == "ratio":
            if total < objective.min_events:
                return None
            return min((bad / total) / objective.error_budget, BURN_CAP)
        # rate_min: no rate exists until the fast window has elapsed.
        if elapsed < objective.fast_window_s:
            return None
        rate = total / elapsed
        if rate <= 0:
            return BURN_CAP
        return min(objective.target / rate, BURN_CAP)

    # ------------------------------------------------------------------
    # State machine
    # ------------------------------------------------------------------
    @staticmethod
    def _next_state(state: str, page: bool, warn: bool) -> str:
        if page:
            return "PAGE"
        if state == "PAGE":
            # Budget burn dropped below warn on both windows: the page
            # resolves, then decays to OK via one quiet evaluation.
            return "PAGE" if warn else "RESOLVED"
        if state == "RESOLVED":
            return "WARN" if warn else "OK"
        return "WARN" if warn else "OK"

    def _transition(self, state: _ObjectiveState, now_s: float, to: str,
                    fast: float, slow: float) -> None:
        src = state.state
        objective = state.objective
        self.obs.tracer.instant(
            f"slo.{objective.name}.{src}->{to}", now_s, cat="slo",
            pid=PID_SLO, tid=state.tid,
            args={
                "from": src, "to": to,
                "burn_fast": fast, "burn_slow": slow,
            },
        )
        self.obs.metrics.counter(
            "slo_transitions_total",
            help="SLO alert state-machine transitions.",
            slo=objective.name, to=to,
        ).inc()
        state.state = to
        if to == "PAGE":
            state.pages += 1
            self.obs.metrics.counter(
                "slo_pages_total",
                help="PAGE alerts fired per objective.",
                slo=objective.name,
            ).inc()
            if self.on_page is not None:
                self.on_page(objective, now_s)
        elif to == "WARN":
            state.warns += 1

    def _evaluate_at(self, t: float) -> None:
        for state in self._states:
            objective = state.objective
            total = self._read(objective.total, state, "total")
            bad = (
                self._read(objective.bad, state, "bad")
                if objective.bad is not None else 0.0
            )
            state.snap_t.append(t)
            state.snap_total.append(total)
            state.snap_bad.append(bad)
            fast = self._burn(state, t, objective.fast_window_s)
            slow = self._burn(state, t, objective.window_s)
            if fast is None or slow is None:
                continue  # not enough signal: hold state, record nothing
            page = fast >= objective.page_burn and slow >= objective.page_burn
            warn = fast >= objective.warn_burn and slow >= objective.warn_burn
            to = self._next_state(state.state, page, warn)
            if to != state.state:
                self._transition(state, t, to, fast, slow)
            metrics = self.obs.metrics
            metrics.gauge(
                "slo_burn_rate", "Error-budget burn rate per window.",
                slo=objective.name, window="fast",
            ).set(fast)
            metrics.gauge(
                "slo_burn_rate", "Error-budget burn rate per window.",
                slo=objective.name, window="slow",
            ).set(slow)
            metrics.gauge(
                "slo_state",
                "Alert state (0=OK 1=WARN 2=PAGE 3=RESOLVED).",
                slo=objective.name,
            ).set(ALERT_STATES.index(state.state))
            self.history.append({
                "t": t, "slo": objective.name,
                "burn_fast": fast, "burn_slow": slow,
                "state": state.state, "total": total, "bad": bad,
            })

    def due(self, now_s: float) -> bool:
        """Whether :meth:`maybe_evaluate` at ``now_s`` evaluates a boundary."""
        return self._next_eval_s <= now_s + 1e-12

    def maybe_evaluate(self, now_s: float) -> None:
        """Run every evaluation boundary at or before ``now_s``.

        Called from the event loop with the sim clock; boundaries are
        fixed multiples of ``eval_interval_s``, so the evaluation times
        — and therefore the whole alert stream — are deterministic.
        """
        while self.due(now_s):
            self._evaluate_at(self._next_eval_s)
            self._next_eval_s += self.config.eval_interval_s

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------
    def finalize(self, end_s: float) -> "list[SloVerdict]":
        """Close evaluation and compute compliance verdicts (idempotent)."""
        if self._verdicts is not None:
            return self._verdicts
        self.maybe_evaluate(end_s)
        verdicts = []
        for state in self._states:
            objective = state.objective
            total = self._read(objective.total, state, "total")
            bad = (
                self._read(objective.bad, state, "bad")
                if objective.bad is not None else 0.0
            )
            attained: "float | None" = None
            if objective.kind == "ratio":
                if total > 0:
                    attained = 1.0 - bad / total
                ok = attained is not None and attained >= objective.target
            else:
                elapsed = max(end_s - self.start_s, 1e-12)
                attained = total / elapsed
                ok = attained >= objective.target
            metrics = self.obs.metrics
            if attained is not None:
                metrics.gauge(
                    "slo_attainment",
                    "Achieved SLI over the whole run.",
                    slo=objective.name,
                ).set(attained)
            metrics.gauge(
                "slo_ok", "1 when the objective was met over the run.",
                slo=objective.name,
            ).set(1.0 if ok else 0.0)
            verdicts.append(SloVerdict(
                name=objective.name, kind=objective.kind,
                target=objective.target, attained=attained, ok=ok,
                pages=state.pages, warns=state.warns,
                final_state=state.state,
            ))
        self._verdicts = verdicts
        return verdicts

    @property
    def verdicts(self) -> "list[SloVerdict]":
        if self._verdicts is None:
            raise RuntimeError("finalize() has not run yet")
        return self._verdicts

    def verdict_metrics(self) -> dict:
        """Flat ``slo_*`` metrics for ledgers and reports."""
        metrics: dict = {}
        failed = 0
        for verdict in self.verdicts:
            metrics[f"slo_pass_{verdict.name}"] = 1.0 if verdict.ok else 0.0
            metrics[f"slo_pages_{verdict.name}"] = float(verdict.pages)
            if not verdict.ok:
                failed += 1
        metrics["slo_failed_total"] = float(failed)
        return metrics

    def format_verdicts(self) -> str:
        """Deterministic verdict table (printed after the fleet report)."""
        rows = []
        for verdict in self.verdicts:
            attained = "-" if verdict.attained is None else f"{verdict.attained:.6g}"
            rows.append([
                verdict.name, verdict.kind, f"{verdict.target:.6g}",
                attained, verdict.pages, verdict.warns,
                verdict.final_state, "PASS" if verdict.ok else "FAIL",
            ])
        return table_to_text(
            ["slo", "kind", "target", "attained", "pages", "warns",
             "state", "verdict"],
            rows, min_width=6,
        )

    def history_jsonl(self) -> str:
        """One canonical-JSON evaluation row per line (``slo.jsonl``)."""
        return "".join(canonical_json(row) + "\n" for row in self.history)

    def verdicts_json(self) -> str:
        return canonical_json(encode(self.verdicts, list[SloVerdict])) + "\n"


# ----------------------------------------------------------------------
# Summary (offline) objectives
# ----------------------------------------------------------------------
def parse_summary_slo(block) -> "tuple[SummaryObjective, ...]":
    """Parse a campaign-style block: ``{"objectives": [...]}`` with
    summary-objective entries only."""
    if not isinstance(block, dict):
        raise SloConfigError("campaign 'slo' must be a dict")
    unknown = sorted(set(block) - {"objectives"})
    if unknown:
        raise SloConfigError(
            f"campaign slo: unknown keys {unknown} (known: ['objectives'])"
        )
    objectives = _decode_slo(
        tuple[SummaryObjective, ...], block.get("objectives", []), "objectives"
    )
    if not objectives:
        raise SloConfigError(
            "campaign slo: 'objectives' must be a non-empty list"
        )
    return SloConfig(summary_objectives=objectives).summary_objectives


def evaluate_summary(
    objectives: "tuple[SummaryObjective, ...]", metrics: dict
) -> "list[dict]":
    """Check each objective against a flat metrics dict.

    A missing or non-numeric metric is a failed objective (``value``
    None), never a silent pass.
    """
    rows = []
    for objective in objectives:
        value = metrics.get(objective.metric)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            rows.append({
                "name": objective.name, "metric": objective.metric,
                "op": objective.op, "target": objective.target,
                "value": None, "ok": False,
            })
            continue
        value = float(value)
        ok = value <= objective.target if objective.op == "<=" \
            else value >= objective.target
        rows.append({
            "name": objective.name, "metric": objective.metric,
            "op": objective.op, "target": objective.target,
            "value": value, "ok": ok,
        })
    return rows


def summary_verdict_metrics(rows: "list[dict]") -> dict:
    """Flat ``slo_*`` verdict metrics from :func:`evaluate_summary`."""
    metrics: dict = {}
    failed = 0
    for row in rows:
        metrics[f"slo_pass_{row['name']}"] = 1.0 if row["ok"] else 0.0
        if not row["ok"]:
            failed += 1
    metrics["slo_failed_total"] = float(failed)
    return metrics


def format_summary_verdicts(rows: "list[dict]") -> str:
    table = [
        [
            row["name"], row["metric"], row["op"], f"{row['target']:.6g}",
            "-" if row["value"] is None else f"{row['value']:.6g}",
            "PASS" if row["ok"] else "FAIL",
        ]
        for row in rows
    ]
    return table_to_text(
        ["slo", "metric", "op", "target", "value", "verdict"],
        table, min_width=6,
    )
