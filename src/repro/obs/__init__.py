"""Observability: structured tracing and metrics on the simulated clock.

Zero-dependency subsystem threaded through the serving + accelerator
stack.  Two pieces:

* **Tracer** (:mod:`repro.obs.tracer`) — hierarchical spans (session ->
  frame -> stage) timed by the simulations' own clocks: the event
  loops, the accelerator cycle model and the TFR latency model.  The
  default is a no-op tracer; :class:`ObsConfig` enables the real
  ring-buffer one.
* **Metrics** (:mod:`repro.obs.metrics`) — a counters/gauges/histograms
  registry with exact percentiles, a Prometheus text exporter, and an
  aligned-table snapshot.

The simulator's own host time is measured from outside, by the hooks
of ``perf/`` (see ``perf/README.md``).

``python -m repro trace`` runs a traced fleet and writes ``trace.json``
(Perfetto / chrome://tracing), ``trace.jsonl``, and ``metrics.prom``.
"""

from repro.obs.config import NULL_OBS, Obs, ObsConfig
from repro.obs.export import (
    chrome_trace,
    slowest_spans_table,
    spans_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracer import (
    NULL_TRACER,
    PID_ACCEL,
    PID_BATCHER,
    PID_FLEET,
    PID_NET,
    PID_RECOVER,
    PID_RELIABILITY,
    PID_SESSION_BASE,
    PID_SLO,
    PID_TFR,
    PID_WORKERS,
    SHARD_PID_STRIDE,
    SIM_CLOCK,
    NullTracer,
    ScopedTracer,
    SpanRecord,
    Tracer,
    session_pid,
    shard_pid,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_S",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "NULL_TRACER",
    "NullTracer",
    "Obs",
    "ObsConfig",
    "PID_ACCEL",
    "PID_BATCHER",
    "PID_FLEET",
    "PID_NET",
    "PID_RECOVER",
    "PID_RELIABILITY",
    "PID_SESSION_BASE",
    "PID_SLO",
    "PID_TFR",
    "PID_WORKERS",
    "SHARD_PID_STRIDE",
    "SIM_CLOCK",
    "ScopedTracer",
    "SpanRecord",
    "Tracer",
    "chrome_trace",
    "session_pid",
    "shard_pid",
    "slowest_spans_table",
    "spans_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]
