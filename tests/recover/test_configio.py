"""Round-trip and refusal coverage for the typed config codec.

The codec carries two loads: checkpoint manifests must reconstruct the
exact run configuration, and the experiment-campaign layer uses its
output as the run-identity hash input — so round-trip fidelity, unknown
key rejection, type refusal, hash stability under dict reordering and
spelling, and the documented backward-compat path all get pinned here.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exp.runners import resolve_spec
from repro.faults.config import (
    ChaosConfig,
    InputFaultConfig,
    RecoveryConfig,
    SoftErrorConfig,
    default_chaos_scenario,
)
from repro.faults.netfaults import GraySlow, LinkProfile, PartitionWindow, ShardKill
from repro.recover.codec import canonical_json, config_hash
from repro.recover.configio import decode, encode
from repro.recover.kinds import build_runtime, resolve_run_config
from repro.reliability.campaign import PROTECTIONS, SdcCampaignConfig
from repro.serve.config import AdmissionPolicy, BatchServiceModel, ServeConfig
from repro.serve.fleet import FleetConfig
from repro.serve.fleet.config import SessionMigration
from repro.serve.fleet.transport import NetConfig
from repro.serve.workers import (
    LatencySpike,
    WorkerCrash,
    WorkerFaultSchedule,
    WorkerStall,
)
from repro.system.tfr import TrackerSystemProfile
from repro.system.watchdog import WatchdogConfig


def _reordered(state: dict) -> dict:
    """Same mapping, reversed insertion order (recursively)."""
    out = {}
    for key in reversed(list(state)):
        value = state[key]
        out[key] = _reordered(value) if isinstance(value, dict) else value
    return out


def _json_round_trip(config):
    return decode(type(config), json.loads(canonical_json(encode(config))))


class TestServeConfigRoundTrip:
    def test_round_trip_is_identity(self):
        config = ServeConfig(n_sessions=4, duration_s=0.3, seed=7,
                             admission=AdmissionPolicy.SHED)
        assert decode(ServeConfig, encode(config)) == config

    def test_admission_enum_goes_by_value(self):
        state = encode(ServeConfig(admission=AdmissionPolicy.SHED))
        assert state["admission"] == "shed"
        assert json.loads(canonical_json(state))["admission"] == "shed"

    def test_unknown_key_rejected(self):
        state = encode(ServeConfig())
        state["warp_factor"] = 9
        with pytest.raises(TypeError):
            decode(ServeConfig, state)

    def test_hash_stable_under_dict_reordering(self):
        state = encode(ServeConfig(n_sessions=4))
        assert config_hash(_reordered(state)) == config_hash(state)

    def test_hash_distinguishes_configs(self):
        a = encode(ServeConfig(seed=0))
        b = encode(ServeConfig(seed=1))
        assert config_hash(a) != config_hash(b)


class TestServiceModelRoundTrip:
    def test_round_trip_is_identity(self):
        service = BatchServiceModel()
        assert decode(BatchServiceModel, encode(service)) == service

    def test_unknown_key_rejected(self):
        state = encode(BatchServiceModel())
        state["bogus"] = 1
        with pytest.raises(TypeError):
            decode(BatchServiceModel, state)


class TestChaosConfigRoundTrip:
    def test_round_trip_is_identity(self):
        config = default_chaos_scenario(seed=3)
        assert decode(ChaosConfig, encode(config)) == config

    def test_occlusion_level_restored_as_tuple(self):
        restored = _json_round_trip(default_chaos_scenario(seed=0))
        assert isinstance(restored.input_faults.occlusion_level, tuple)

    def test_missing_soft_errors_is_backward_compatible(self):
        """Checkpoints written before the soft-error work have no
        ``soft_errors`` key; they must restore to the inactive config."""
        state = encode(default_chaos_scenario(seed=0))
        del state["soft_errors"]
        restored = decode(ChaosConfig, state)
        assert restored.soft_errors == SoftErrorConfig.inactive()

    def test_hash_stable_under_dict_reordering(self):
        state = encode(default_chaos_scenario(seed=5))
        assert config_hash(_reordered(state)) == config_hash(state)


class TestSdcCampaignRoundTrip:
    def test_round_trip_is_identity(self):
        config = SdcCampaignConfig(fit_rates=(100.0, 2000.0),
                                   protections=("unprotected", "abft"),
                                   n_frames=50, seed=4)
        assert decode(SdcCampaignConfig, encode(config)) == config

    def test_tuples_serialize_as_lists(self):
        state = encode(SdcCampaignConfig())
        assert isinstance(state["fit_rates"], list)
        assert isinstance(state["protections"], list)
        json.loads(canonical_json(state))  # JSON-safe end to end

    def test_unknown_key_rejected(self):
        state = encode(SdcCampaignConfig())
        state["extra"] = True
        with pytest.raises(TypeError):
            decode(SdcCampaignConfig, state)

    def test_hash_stable_under_dict_reordering(self):
        state = encode(SdcCampaignConfig(seed=2))
        assert config_hash(_reordered(state)) == config_hash(state)


class TestJsonSurvival:
    """The hash must be identical before and after a JSON round trip —
    that is what makes a ledger config comparable to a live one."""

    def test_serve_hash_survives_json(self):
        state = encode(ServeConfig(n_sessions=3, duration_s=0.25))
        assert config_hash(json.loads(canonical_json(state))) == config_hash(state)

    def test_chaos_hash_survives_json(self):
        state = encode(default_chaos_scenario(seed=1))
        assert config_hash(json.loads(canonical_json(state))) == config_hash(state)


class TestPartialDicts:
    """The decoder fills omitted keys with dataclass defaults — one rule
    for campaign params, CLI flags and older manifests alike."""

    def test_omitted_keys_take_their_defaults(self):
        assert decode(ServeConfig, {}) == ServeConfig()
        assert decode(ChaosConfig, {}) == ChaosConfig()
        assert decode(
            FleetConfig, {"n_shards": 2, "net": {"enabled": True}}
        ) == FleetConfig(n_shards=2, net=NetConfig(enabled=True))

    def test_unknown_nested_key_is_named(self):
        with pytest.raises(
            TypeError, match=r"unknown link profile params: \['drop'\]"
        ):
            decode(FleetConfig, {"net": {"link": {"drop": 0.1}}})


class TestRunKinds:
    @pytest.mark.parametrize("kind", ["serve", "chaos", "fleet"])
    def test_table_is_keyed_by_runtime_kind(self, kind):
        serve = {"n_sessions": 2, "duration_s": 0.1}
        params = dict(serve) if kind == "serve" else {"serve": serve}
        runtime = build_runtime(resolve_run_config(kind, params))
        assert runtime.RUNTIME_KIND == kind


# ----------------------------------------------------------------------
# Typed decoding: every spelling of a value has one identity, and a
# value of the wrong type is refused with the field's name.
# ----------------------------------------------------------------------
class TestSpellings:
    @pytest.mark.parametrize(
        "kind, int_spelled, float_spelled",
        [
            ("serve", {"duration_s": 1}, {"duration_s": 1.0}),
            ("chaos", {"serve": {"fps": 60}}, {"serve": {"fps": 60.0}}),
            (
                "fleet",
                {"kills": [{"shard_id": 1, "at_s": 0}]},
                {"kills": [{"shard_id": 1, "at_s": 0.0}]},
            ),
            ("sdc", {"fit_rates": [100, 400]}, {"fit_rates": [100.0, 400.0]}),
        ],
    )
    def test_int_and_float_spellings_share_one_run_id(
        self, kind, int_spelled, float_spelled
    ):
        assert (
            resolve_spec(kind, int_spelled).run_id
            == resolve_spec(kind, float_spelled).run_id
        )

    def test_float_field_stores_a_float(self):
        config = decode(ServeConfig, {"duration_s": 1})
        assert type(config.duration_s) is float


class TestRefusals:
    @pytest.mark.parametrize(
        "kind, params, field",
        [
            ("serve", {"n_sessions": True}, "n_sessions"),
            ("serve", {"n_sessions": 4.0}, "n_sessions"),
            ("serve", {"n_sessions": "1"}, "n_sessions"),
            ("serve", {"duration_s": True}, "duration_s"),
            ("serve", {"duration_s": "1"}, "duration_s"),
            ("serve", {"post_saccade_low_res": 1}, "post_saccade_low_res"),
            ("serve", {"post_saccade_low_res": "1"}, "post_saccade_low_res"),
            ("serve", {"service": {"fixed_s": True}}, "fixed_s"),
            ("chaos", {"serve": {"n_workers": 2.0}}, "serve.n_workers"),
            ("fleet", {"n_shards": 2.0}, "n_shards"),
            ("fleet", {"kills": [{"shard_id": True, "at_s": 0.1}]},
             r"kills\[0\]\.shard_id"),
            ("fleet", {"net": {"enabled": 1}}, "net.enabled"),
        ],
    )
    def test_wrong_type_is_refused_with_the_field_name(self, kind, params, field):
        with pytest.raises(ValueError, match=field):
            resolve_run_config(kind, params)

    @pytest.mark.parametrize(
        "params, field",
        [
            ({"n_frames": 300.0}, "n_frames"),
            ({"fit_rates": [True]}, r"fit_rates\[0\]"),
            ({"protections": [1]}, r"protections\[0\]"),
        ],
    )
    def test_sdc_wrong_type_is_refused_with_the_field_name(self, params, field):
        from repro.reliability.cli import resolve_run_config as resolve_sdc

        with pytest.raises(ValueError, match=field):
            resolve_sdc(params)

    def test_fixed_tuple_length_is_checked(self):
        with pytest.raises(TypeError, match="occlusion_level"):
            decode(InputFaultConfig, {"occlusion_level": [0.5]})


# ----------------------------------------------------------------------
# Property: decode(encode(c)) survives canonical JSON for every config.
# ----------------------------------------------------------------------
times = st.floats(0.0, 5.0)
positive = st.floats(1e-3, 50.0)
probability = st.floats(0.0, 1.0)


def windows(build, **extra):
    return st.tuples(times, positive).map(
        lambda w: build(start_s=w[0], stop_s=w[0] + w[1], **extra)
    )


serve_configs = st.builds(
    ServeConfig,
    n_sessions=st.integers(1, 64),
    duration_s=positive,
    fps=positive,
    n_workers=st.integers(1, 4),
    max_batch=st.integers(1, 16),
    batch_window_s=times,
    admission=st.sampled_from(AdmissionPolicy),
    queue_budget_deadlines=positive,
    deadline_frames=positive,
    saccade_bypass_s=times,
    reuse_bypass_s=times,
    reuse_displacement_deg=positive,
    post_saccade_low_res=st.booleans(),
    stagger_s=times,
    seed=st.integers(0, 2**31),
)

occlusion_levels = st.tuples(probability, probability).map(lambda p: tuple(sorted(p)))

chaos_configs = st.builds(
    ChaosConfig,
    serve=serve_configs,
    input_faults=st.builds(
        InputFaultConfig,
        frame_drop_rate=probability,
        noise_burst_rate_hz=times,
        occlusion_level=occlusion_levels,
        bit_error_rate=probability,
    ),
    worker_faults=st.builds(
        WorkerFaultSchedule,
        crashes=st.lists(
            st.builds(WorkerCrash, worker_id=st.just(0), at_s=times, down_s=positive),
            max_size=2,
        ).map(tuple),
        stalls=st.lists(windows(WorkerStall, worker_id=0), max_size=2).map(tuple),
        spikes=st.lists(
            st.tuples(times, positive, st.floats(1.0, 10.0), st.sampled_from([None, 0])).map(
                lambda s: LatencySpike(
                    start_s=s[0], stop_s=s[0] + s[1], factor=s[2], worker_id=s[3]
                )
            ),
            max_size=2,
        ).map(tuple),
    ),
    recovery=st.builds(
        RecoveryConfig, max_retries=st.integers(0, 5), backoff_base_s=positive
    ),
    watchdog=st.builds(WatchdogConfig, window=st.integers(16, 256)),
    profile=st.builds(
        TrackerSystemProfile,
        name=st.text(max_size=8),
        td_predict_s=positive,
        delta_theta_deg=times,
        td_saccade_s=st.none() | positive,
    ),
    soft_errors=st.builds(
        SoftErrorConfig, fit_per_mbit=times, acceleration=positive,
        seed=st.integers(0, 100),
    ),
    fault_seed=st.integers(0, 2**31),
)


@st.composite
def fleet_configs(draw):
    n_shards = draw(st.integers(2, 6))
    serve = draw(serve_configs)
    killed = draw(st.sets(st.integers(0, n_shards - 1), max_size=n_shards - 1))
    kills = tuple(ShardKill(shard_id=s, at_s=draw(times)) for s in sorted(killed))
    if draw(st.booleans()):
        shard_ids = st.sets(st.integers(0, n_shards - 1), min_size=1).map(
            lambda ids: tuple(sorted(ids))
        )
        net = NetConfig(
            enabled=True,
            seed=draw(st.integers(0, 100)),
            link=draw(st.builds(LinkProfile, drop_rate=probability,
                                dup_rate=probability, jitter_s=times)),
            partitions=tuple(draw(st.lists(
                shard_ids.flatmap(lambda ids: windows(PartitionWindow, shard_ids=ids)),
                max_size=2,
            ))),
            gray=tuple(draw(st.lists(
                windows(GraySlow, shard_id=draw(st.integers(0, n_shards - 1))),
                max_size=2,
            ))),
            max_retransmits=draw(st.integers(0, 8)),
            on_exhaust=draw(st.sampled_from(["degrade", "drop"])),
        )
        return FleetConfig(serve=serve, n_shards=n_shards, kills=kills, net=net)
    migrations = tuple(draw(st.lists(
        st.builds(
            SessionMigration,
            at_s=times,
            session_id=st.integers(0, serve.n_sessions - 1),
            to_shard=st.none() | st.integers(0, n_shards - 1),
        ),
        max_size=3,
    )))
    return FleetConfig(
        serve=serve,
        n_shards=n_shards,
        vnodes=draw(st.integers(1, 128)),
        kills=kills,
        migrations=migrations,
        migration_rate_hz=draw(times),
        migration_seed=draw(st.integers(0, 100)),
    )


sdc_configs = st.builds(
    SdcCampaignConfig,
    fit_rates=st.lists(positive, min_size=1, max_size=4).map(tuple),
    protections=st.lists(st.sampled_from(PROTECTIONS), max_size=3).map(tuple),
    n_frames=st.integers(1, 1000),
    fps=positive,
    acceleration=positive,
    seed=st.integers(0, 2**31),
)


@settings(max_examples=60, deadline=None)
@given(config=st.one_of(serve_configs, chaos_configs, fleet_configs(), sdc_configs))
def test_decode_inverts_encode_through_canonical_json(config):
    assert _json_round_trip(config) == config
