"""Observability configuration and the per-run Obs bundle."""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, NullTracer, ScopedTracer, Tracer


@dataclass(frozen=True)
class ObsConfig:
    """Knobs of one observability session.

    ``enabled=False`` (the library default) makes every tracer call a
    no-op; enabling it swaps in the real ring-buffer tracer.  The
    metrics registry always exists — counters are cheap and reports can
    publish into it unconditionally — but runtimes only feed it live
    when ``enabled``.
    """

    enabled: bool = True


class Obs:
    """One run's tracer + metrics registry, built from an ObsConfig."""

    def __init__(self, config: "ObsConfig | None" = None):
        self.config = config or ObsConfig()
        self.tracer: "Tracer | NullTracer" = (
            Tracer() if self.config.enabled else NULL_TRACER
        )
        self.metrics = MetricsRegistry()

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    def scoped(self, shard_id: int) -> "Obs":
        """A shard-scoped view of this bundle.

        The view *shares* the metrics registry (instruments dedupe by
        name, so N shards incrementing ``serve_frames_total`` yields the
        fleet-wide aggregate for free) but namespaces the tracer's track
        ids into the shard's pid block — see
        :class:`~repro.obs.tracer.ScopedTracer`.
        """
        view = object.__new__(Obs)
        view.config = self.config
        view.tracer = (
            ScopedTracer(self.tracer, shard_id) if self.enabled else NULL_TRACER
        )
        view.metrics = self.metrics
        return view


#: Shared disabled bundle — the default ``obs`` of every runtime.  Its
#: registry is intentionally shared-and-ignored: disabled runtimes never
#: publish into it.
NULL_OBS = Obs(ObsConfig(enabled=False))
