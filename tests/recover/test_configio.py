"""Round-trip coverage for the checkpoint/campaign config codecs.

These codecs carry two loads: checkpoint manifests must reconstruct the
exact run configuration, and the experiment-campaign layer uses their
output as the run-identity hash input — so round-trip fidelity, unknown
key rejection, hash stability under dict reordering, and the documented
backward-compat path all get pinned here.
"""

from __future__ import annotations

import json

import pytest

from repro.faults.config import SoftErrorConfig, default_chaos_scenario
from repro.recover.codec import canonical_json, config_hash
from repro.recover.configio import (
    chaos_config_from_dict,
    chaos_config_to_dict,
    sdc_campaign_from_dict,
    sdc_campaign_to_dict,
    serve_config_from_dict,
    serve_config_to_dict,
    service_model_from_dict,
    service_model_to_dict,
)
from repro.reliability.campaign import SdcCampaignConfig
from repro.serve.config import AdmissionPolicy, BatchServiceModel, ServeConfig


def _reordered(state: dict) -> dict:
    """Same mapping, reversed insertion order (recursively)."""
    out = {}
    for key in reversed(list(state)):
        value = state[key]
        out[key] = _reordered(value) if isinstance(value, dict) else value
    return out


class TestServeConfigRoundTrip:
    def test_round_trip_is_identity(self):
        config = ServeConfig(n_sessions=4, duration_s=0.3, seed=7,
                             admission=AdmissionPolicy.SHED)
        assert serve_config_from_dict(serve_config_to_dict(config)) == config

    def test_admission_enum_goes_by_value(self):
        state = serve_config_to_dict(ServeConfig(admission=AdmissionPolicy.SHED))
        assert state["admission"] == "shed"
        assert json.loads(canonical_json(state))["admission"] == "shed"

    def test_unknown_key_rejected(self):
        state = serve_config_to_dict(ServeConfig())
        state["warp_factor"] = 9
        with pytest.raises(TypeError):
            serve_config_from_dict(state)

    def test_hash_stable_under_dict_reordering(self):
        state = serve_config_to_dict(ServeConfig(n_sessions=4))
        assert config_hash(_reordered(state)) == config_hash(state)

    def test_hash_distinguishes_configs(self):
        a = serve_config_to_dict(ServeConfig(seed=0))
        b = serve_config_to_dict(ServeConfig(seed=1))
        assert config_hash(a) != config_hash(b)


class TestServiceModelRoundTrip:
    def test_round_trip_is_identity(self):
        service = BatchServiceModel()
        assert service_model_from_dict(service_model_to_dict(service)) == service

    def test_unknown_key_rejected(self):
        state = service_model_to_dict(BatchServiceModel())
        state["bogus"] = 1
        with pytest.raises(TypeError):
            service_model_from_dict(state)


class TestChaosConfigRoundTrip:
    def test_round_trip_is_identity(self):
        config = default_chaos_scenario(seed=3)
        restored = chaos_config_from_dict(chaos_config_to_dict(config))
        assert restored == config

    def test_occlusion_level_restored_as_tuple(self):
        config = default_chaos_scenario(seed=0)
        state = json.loads(canonical_json(chaos_config_to_dict(config)))
        restored = chaos_config_from_dict(state)
        assert isinstance(restored.input_faults.occlusion_level, tuple)

    def test_missing_soft_errors_is_backward_compatible(self):
        """Checkpoints written before the soft-error work have no
        ``soft_errors`` key; they must restore to the inactive config."""
        state = chaos_config_to_dict(default_chaos_scenario(seed=0))
        del state["soft_errors"]
        restored = chaos_config_from_dict(state)
        assert restored.soft_errors == SoftErrorConfig.inactive()

    def test_hash_stable_under_dict_reordering(self):
        state = chaos_config_to_dict(default_chaos_scenario(seed=5))
        assert config_hash(_reordered(state)) == config_hash(state)


class TestSdcCampaignRoundTrip:
    def test_round_trip_is_identity(self):
        config = SdcCampaignConfig(fit_rates=(100.0, 2000.0),
                                   protections=("unprotected", "abft"),
                                   n_frames=50, seed=4)
        assert sdc_campaign_from_dict(sdc_campaign_to_dict(config)) == config

    def test_tuples_serialize_as_lists(self):
        state = sdc_campaign_to_dict(SdcCampaignConfig())
        assert isinstance(state["fit_rates"], list)
        assert isinstance(state["protections"], list)
        json.loads(canonical_json(state))  # JSON-safe end to end

    def test_unknown_key_rejected(self):
        state = sdc_campaign_to_dict(SdcCampaignConfig())
        state["extra"] = True
        with pytest.raises(TypeError):
            sdc_campaign_from_dict(state)

    def test_hash_stable_under_dict_reordering(self):
        state = sdc_campaign_to_dict(SdcCampaignConfig(seed=2))
        assert config_hash(_reordered(state)) == config_hash(state)


class TestJsonSurvival:
    """The hash must be identical before and after a JSON round trip —
    that is what makes a ledger config comparable to a live one."""

    def test_serve_hash_survives_json(self):
        state = serve_config_to_dict(ServeConfig(n_sessions=3, duration_s=0.25))
        assert config_hash(json.loads(canonical_json(state))) == config_hash(state)

    def test_chaos_hash_survives_json(self):
        state = chaos_config_to_dict(default_chaos_scenario(seed=1))
        assert config_hash(json.loads(canonical_json(state))) == config_hash(state)


class TestPartialDicts:
    """A decoder fills omitted keys with dataclass defaults — one rule
    for campaign params, CLI flags and older manifests alike."""

    def test_omitted_keys_take_their_defaults(self):
        from repro.faults.config import ChaosConfig
        from repro.recover.configio import fleet_config_from_dict
        from repro.serve.fleet import FleetConfig
        from repro.serve.fleet.transport import NetConfig

        assert serve_config_from_dict({}) == ServeConfig()
        assert chaos_config_from_dict({}) == ChaosConfig()
        assert fleet_config_from_dict(
            {"n_shards": 2, "net": {"enabled": True}}
        ) == FleetConfig(n_shards=2, net=NetConfig(enabled=True))

    def test_unknown_nested_key_is_named(self):
        from repro.recover.configio import fleet_config_from_dict

        with pytest.raises(
            TypeError, match=r"unknown link profile params: \['drop'\]"
        ):
            fleet_config_from_dict({"net": {"link": {"drop": 0.1}}})


class TestRunKinds:
    @pytest.mark.parametrize("kind", ["serve", "chaos", "fleet"])
    def test_table_is_keyed_by_runtime_kind(self, kind):
        from repro.recover.kinds import RUN_KINDS

        assert RUN_KINDS[kind].runtime_class.RUNTIME_KIND == kind
