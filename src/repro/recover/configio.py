"""Config <-> dict codecs: the only dict -> config constructors.

A checkpoint must be restorable from the directory alone, so the
manifest embeds the *complete* run configuration — the serve, chaos or
fleet config and the batch service model.  These codecs are explicit
(not a generic pickle) so the on-disk format stays a documented,
versioned JSON schema: enums go by value, tuples round-trip through
lists, and reconstruction re-runs every dataclass validator.

Every ``*_from_dict`` takes a partial dict: an omitted key gets its
dataclass default (so a manifest written before a field existed
restores to the default it ran with) and an unknown key is a
:class:`TypeError`.  The same decoders build a run's config from
campaign params and CLI flags (see :mod:`repro.recover.kinds`).

The experiment-campaign layer (``repro.exp``) reuses these codecs as
its config canonicalizer: a run's identity is the
:func:`~repro.recover.codec.config_hash` of the *fully resolved* config
dict the ``*_to_dict`` functions emit, so defaults, dict ordering, and
equivalent spellings all collapse to one hash.
"""

from __future__ import annotations

import re
from dataclasses import asdict, fields
from functools import partial

from repro.faults.config import (
    ChaosConfig,
    InputFaultConfig,
    RecoveryConfig,
    SoftErrorConfig,
)
from repro.serve.config import AdmissionPolicy, BatchServiceModel, ServeConfig
from repro.serve.workers import (
    LatencySpike,
    WorkerCrash,
    WorkerFaultSchedule,
    WorkerStall,
)
from repro.system.tfr import TrackerSystemProfile
from repro.system.watchdog import WatchdogConfig


def _from_dict(cls, state: dict, **decoders):
    """Build dataclass ``cls`` from a possibly partial dict.

    An omitted field takes its dataclass default; an unknown key raises
    :class:`TypeError`.  ``decoders`` turn the JSON value of the named
    fields back into their types (enums, tuples, nested dataclasses).
    """
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(state) - known)
    if unknown:
        label = " ".join(
            word.lower()
            for word in re.findall(r"[A-Z][a-z]*", cls.__name__)
            if word != "Config"
        )
        raise TypeError(
            f"unknown {label} params: {unknown} (known: {sorted(known)})"
        )
    kwargs = dict(state)
    for name, decode in decoders.items():
        if name in kwargs:
            kwargs[name] = decode(kwargs[name])
    return cls(**kwargs)


def _each(cls, **decoders):
    """Decoder of a list of ``cls`` dicts into a tuple."""
    return lambda items: tuple(_from_dict(cls, item, **decoders) for item in items)


def serve_config_to_dict(config: ServeConfig) -> dict:
    state = asdict(config)
    state["admission"] = config.admission.value
    return state


def serve_config_from_dict(state: dict) -> ServeConfig:
    return _from_dict(ServeConfig, state, admission=AdmissionPolicy)


def service_model_to_dict(service: BatchServiceModel) -> dict:
    return asdict(service)


def service_model_from_dict(state: dict) -> BatchServiceModel:
    return _from_dict(BatchServiceModel, state)


def chaos_config_to_dict(config: ChaosConfig) -> dict:
    faults = config.worker_faults
    return {
        "serve": serve_config_to_dict(config.serve),
        "input_faults": asdict(config.input_faults),
        "worker_faults": {
            "crashes": [asdict(c) for c in faults.crashes],
            "stalls": [asdict(s) for s in faults.stalls],
            "spikes": [asdict(s) for s in faults.spikes],
        },
        "recovery": asdict(config.recovery),
        "watchdog": asdict(config.watchdog),
        "profile": asdict(config.profile),
        "soft_errors": asdict(config.soft_errors),
        "fault_seed": config.fault_seed,
    }


def chaos_config_from_dict(state: dict) -> ChaosConfig:
    return _from_dict(
        ChaosConfig,
        state,
        serve=serve_config_from_dict,
        input_faults=partial(
            _from_dict, InputFaultConfig, occlusion_level=tuple
        ),
        worker_faults=partial(
            _from_dict,
            WorkerFaultSchedule,
            crashes=_each(WorkerCrash),
            stalls=_each(WorkerStall),
            spikes=_each(LatencySpike),
        ),
        recovery=partial(_from_dict, RecoveryConfig),
        watchdog=partial(_from_dict, WatchdogConfig),
        profile=partial(_from_dict, TrackerSystemProfile),
        soft_errors=partial(_from_dict, SoftErrorConfig),
    )


def net_config_to_dict(config) -> dict:
    """Serialize a :class:`~repro.serve.fleet.transport.NetConfig`."""
    return {
        "enabled": config.enabled,
        "seed": config.seed,
        "link": asdict(config.link),
        "partitions": [
            {
                "start_s": w.start_s,
                "stop_s": w.stop_s,
                "shard_ids": list(w.shard_ids),
            }
            for w in config.partitions
        ],
        "gray": [asdict(w) for w in config.gray],
        "ack_timeout_s": config.ack_timeout_s,
        "backoff_factor": config.backoff_factor,
        "max_retransmits": config.max_retransmits,
        "heartbeat_s": config.heartbeat_s,
        "detect_every_s": config.detect_every_s,
        "phi_threshold": config.phi_threshold,
        "on_exhaust": config.on_exhaust,
    }


def net_config_from_dict(state: dict):
    from repro.faults.netfaults import GraySlow, LinkProfile, PartitionWindow
    from repro.serve.fleet.transport import NetConfig

    return _from_dict(
        NetConfig,
        state,
        link=partial(_from_dict, LinkProfile),
        partitions=_each(
            PartitionWindow,
            start_s=float,
            stop_s=float,
            shard_ids=lambda ids: tuple(int(s) for s in ids),
        ),
        gray=_each(GraySlow),
    )


def fleet_config_to_dict(config) -> dict:
    """Serialize a :class:`~repro.serve.fleet.FleetConfig`.

    The ``net`` key is present only when the transport is enabled, so
    config hashes and checkpoint manifests of pre-transport (and plain)
    fleet runs are byte-for-byte what they always were.
    """
    return {
        "serve": serve_config_to_dict(config.serve),
        "n_shards": config.n_shards,
        "vnodes": config.vnodes,
        "ring_seed": config.ring_seed,
        "kills": [asdict(k) for k in config.kills],
        "migrations": [asdict(m) for m in config.migrations],
        "migration_rate_hz": config.migration_rate_hz,
        "migration_seed": config.migration_seed,
        "failover": asdict(config.failover),
        "rebalancer": asdict(config.rebalancer),
        **(
            {"net": net_config_to_dict(config.net)}
            if config.net.enabled
            else {}
        ),
    }


def fleet_config_from_dict(state: dict):
    from repro.faults.netfaults import ShardKill
    from repro.serve.fleet.config import (
        FailoverConfig,
        FleetConfig,
        RebalancerConfig,
        SessionMigration,
    )

    return _from_dict(
        FleetConfig,
        state,
        serve=serve_config_from_dict,
        kills=_each(ShardKill),
        migrations=_each(SessionMigration),
        failover=partial(_from_dict, FailoverConfig),
        rebalancer=partial(_from_dict, RebalancerConfig),
        net=net_config_from_dict,
    )


def sdc_campaign_to_dict(config) -> dict:
    """Serialize an :class:`~repro.reliability.campaign.SdcCampaignConfig`.

    Tuples round-trip through lists (canonical JSON has no tuples); the
    field set is exactly the dataclass's, so unknown keys in a stored
    dict fail reconstruction loudly.
    """
    state = asdict(config)
    state["fit_rates"] = list(config.fit_rates)
    state["protections"] = list(config.protections)
    return state


def sdc_campaign_from_dict(state: dict):
    from repro.reliability.campaign import SdcCampaignConfig

    return _from_dict(
        SdcCampaignConfig,
        state,
        fit_rates=lambda rates: tuple(float(f) for f in rates),
        protections=lambda names: tuple(str(p) for p in names),
    )
