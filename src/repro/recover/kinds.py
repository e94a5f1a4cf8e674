"""The run-kind table: what ``serve``, ``chaos`` and ``fleet`` runs are.

A run kind is a runtime's ``RUNTIME_KIND``.  :data:`RUN_KINDS` maps it
to its config class, which the :mod:`~repro.recover.configio` codec
encodes and decodes, and to the runtime class or factory that builds
its runtime, and every serving run starts here:

    CLI flags / campaign params --resolve_run_config--> resolved dict
    resolved dict / checkpoint manifest --build_runtime--> runtime

The resolved dict ``{"kind", "config", "service"?}`` spells out every
knob, so its :func:`~repro.recover.codec.config_hash` is the campaign
run id and the CLI's default ``obs-out/<kind>-<hash>`` directory name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from operator import attrgetter
from typing import Callable

from repro.faults.config import ChaosConfig, default_chaos_scenario, fits_pool
from repro.recover.configio import decode, encode
from repro.recover.errors import RecoveryError
from repro.serve.config import BatchServiceModel


@dataclass(frozen=True)
class ChaosParams:
    """Chaos campaign params: scenario knobs plus ``"serve"`` and
    ``"input_faults"`` field overrides of the default scenario.  An
    omitted param (or ``python -m repro chaos`` flag) takes the default
    below."""

    seed: int = 0
    no_worker_faults: bool = False
    soft_error_fit: float = 0.0
    soft_error_accel: float = 5e10
    fault_free: bool = False
    serve: dict = field(default_factory=dict)
    input_faults: dict = field(default_factory=dict)


def chaos_config_from_params(params: dict):
    """Chaos campaign params -> a :class:`~repro.faults.ChaosConfig`.

    Starts from :func:`~repro.faults.default_chaos_scenario` and applies
    the :class:`ChaosParams`; of the default worker faults, those aimed
    at a worker outside the decoded pool are dropped.
    """
    knobs = decode(ChaosParams, params)
    state = encode(default_chaos_scenario(seed=knobs.seed))
    state["serve"].update(knobs.serve)
    state["input_faults"].update(knobs.input_faults)
    if knobs.no_worker_faults:
        del state["worker_faults"]  # the default: an empty schedule
    else:
        # Keep the default faults that target a worker in the pool.
        n_workers = decode(int, state["serve"]["n_workers"], "serve.n_workers")
        for faults in state["worker_faults"].values():
            faults[:] = [f for f in faults if fits_pool(f["worker_id"], n_workers)]
    if knobs.soft_error_fit > 0:
        state["soft_errors"] = {
            "fit_per_mbit": knobs.soft_error_fit,
            "acceleration": knobs.soft_error_accel,
            "seed": knobs.seed,
        }
    config = decode(ChaosConfig, state)
    return config.fault_free() if knobs.fault_free else config


def _import(path: str):
    module, _, name = path.rpartition(".")
    return getattr(import_module(module), name)


@dataclass(frozen=True)
class RunKind:
    """One run kind: its config class and what builds its runtime."""

    #: ``module.Class`` of the config, imported on first use.
    config: str
    #: ``module.name`` of the runtime class, or of a function that
    #: builds the runtime from a config, imported on first use.
    runtime: str
    #: Campaign params (without ``"service"``) -> config.
    from_params: "Callable | None" = None
    #: The (dotted) runtime attribute that holds the config.
    config_attr: str = "config"
    #: Whether params (and so the resolved dict) carry a ``"service"``
    #: model; without one the runtime gets the default model.
    resolves_service: bool = True
    #: Whether the runtime accepts an ``inference`` hook.
    takes_inference: bool = True

    @property
    def config_class(self) -> type:
        return _import(self.config)

    def from_dict(self, state: dict):
        return decode(self.config_class, state)


def config_dict(config) -> dict:
    """The canonical dict of a run's config."""
    state = encode(config)
    net = state.get("net")
    if net is not None and not net["enabled"]:
        # A fleet without the transport records no "net" key, so config
        # hashes and manifests of plain fleet runs stay byte-for-byte
        # what they were before the transport existed.
        del state["net"]
    return state


RUN_KINDS: "dict[str, RunKind]" = {
    "serve": RunKind(
        "repro.serve.config.ServeConfig",
        "repro.serve.runtime.ServeRuntime",
    ),
    "chaos": RunKind(
        "repro.faults.config.ChaosConfig",
        "repro.faults.runtime.chaos_runtime",
        from_params=chaos_config_from_params,
        config_attr="chaos.config",
        resolves_service=False,
    ),
    "fleet": RunKind(
        "repro.serve.fleet.config.FleetConfig",
        "repro.serve.fleet.runtime.FleetRuntime",
        takes_inference=False,
    ),
}


def resolve_run_config(kind: str, params: dict) -> dict:
    """Validate campaign params -> the fully resolved canonical dict.

    ``params`` mirror the config (nested dicts for nested dataclasses,
    lists for tuples; chaos params are :class:`ChaosParams`) plus an
    optional ``"service"`` dict; omitted keys take their defaults.
    """
    entry = RUN_KINDS[kind]
    params = dict(params)
    try:
        service = (
            decode(BatchServiceModel, params.pop("service", {}))
            if entry.resolves_service
            else None
        )
        config = (entry.from_params or entry.from_dict)(params)
    except TypeError as err:
        raise ValueError(f"bad {kind} params: {err}") from err
    resolved = {"kind": kind, "config": config_dict(config)}
    if service is not None:
        resolved["service"] = encode(service)
    return resolved


def build_runtime(resolved: dict, *, service=None, inference=None, obs=None):
    """A fresh runtime of a resolved dict's (or manifest's) kind.

    ``service`` overrides the recorded ``"service"`` model, which
    defaults to :class:`~repro.serve.config.BatchServiceModel`.
    """
    kind = resolved["kind"]
    entry = RUN_KINDS[kind]
    if service is None:
        service = decode(BatchServiceModel, resolved.get("service", {}))
    kwargs = {"service": service, "obs": obs}
    if inference is not None:
        if not entry.takes_inference:
            raise RecoveryError(f"{kind} runs do not support an inference hook")
        kwargs["inference"] = inference
    return _import(entry.runtime)(entry.from_dict(resolved["config"]), **kwargs)


def runtime_config_dict(runtime) -> dict:
    """The canonical config dict of a live runtime (for its manifest)."""
    entry = RUN_KINDS[runtime.RUNTIME_KIND]
    return config_dict(attrgetter(entry.config_attr)(runtime))
