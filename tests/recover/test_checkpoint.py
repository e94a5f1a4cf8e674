"""Checkpoint store: atomic write, validation chain, corrupt fallback."""

from __future__ import annotations

import json

import pytest

from repro.recover import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    CheckpointStore,
    canonical_bytes,
    canonical_json,
    crc32,
)

STATE = {"heap": [[0.1, 2, 3, None]], "events_processed": 7}
CONFIG = {"n_sessions": 4}
SERVICE = {"fixed_s": 0.001}


def refusal(version: int) -> str:
    """The refusal of a checkpoint written in an older ``version``."""
    return (
        f"is format {version}; this build reads only "
        f"{CHECKPOINT_FORMAT_VERSION} — rerun$"
    )


def write_one(store: CheckpointStore, index: int = 7, state=None) -> int:
    return store.write(
        state if state is not None else STATE,
        event_index=index,
        kind="serve",
        config=CONFIG,
        service=SERVICE,
        checkpoint_every=100,
    )


class TestRoundTrip:
    def test_write_load_roundtrip(self, tmp_path):
        store = CheckpointStore(tmp_path)
        size = write_one(store)
        checkpoint = store.load(7)
        assert checkpoint.state == STATE
        assert checkpoint.kind == "serve"
        assert checkpoint.config == CONFIG
        assert checkpoint.service == SERVICE
        assert checkpoint.checkpoint_every == 100
        assert size == len(canonical_bytes(STATE))

    def test_no_temp_files_left_behind(self, tmp_path):
        store = CheckpointStore(tmp_path)
        write_one(store)
        assert not list(tmp_path.glob("*.tmp"))

    def test_indices_sorted(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for index in (300, 0, 100):
            write_one(store, index)
        assert store.indices() == [0, 100, 300]

    def test_float_exactness(self, tmp_path):
        state = {"t": 0.1 + 0.2, "xs": [1e-17, 3.141592653589793]}
        store = CheckpointStore(tmp_path)
        write_one(store, 1, state=state)
        loaded = store.load(1).state
        assert loaded["t"] == state["t"]  # same binary64, not approximately
        assert loaded["xs"] == state["xs"]


class TestValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            CheckpointStore(tmp_path).load(3)

    def test_truncated_payload(self, tmp_path):
        store = CheckpointStore(tmp_path)
        write_one(store)
        payload = store.payload_path(7)
        payload.write_bytes(payload.read_bytes()[:-4])
        with pytest.raises(CheckpointError, match="truncated"):
            store.load(7)

    def test_bit_flipped_payload(self, tmp_path):
        store = CheckpointStore(tmp_path)
        write_one(store)
        payload = store.payload_path(7)
        data = bytearray(payload.read_bytes())
        data[3] ^= 0x40
        payload.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="CRC32"):
            store.load(7)

    def test_tampered_manifest_json(self, tmp_path):
        store = CheckpointStore(tmp_path)
        write_one(store)
        manifest = store.manifest_path(7)
        manifest.write_bytes(manifest.read_bytes()[:-10])
        with pytest.raises(CheckpointError, match="tampered or corrupt"):
            store.load(7)

    def test_unknown_manifest_key(self, tmp_path):
        store = CheckpointStore(tmp_path)
        write_one(store)
        manifest = store.manifest_path(7)
        doc = json.loads(manifest.read_bytes())
        doc["extra"] = 1
        manifest.write_text(canonical_json(doc))
        with pytest.raises(CheckpointError, match="unknown=\\['extra'\\]"):
            store.load(7)

    def test_missing_manifest_key(self, tmp_path):
        store = CheckpointStore(tmp_path)
        write_one(store)
        manifest = store.manifest_path(7)
        doc = json.loads(manifest.read_bytes())
        del doc["payload_crc32"]
        manifest.write_text(canonical_json(doc))
        with pytest.raises(CheckpointError, match="missing=\\['payload_crc32'\\]"):
            store.load(7)

    def test_newer_format_version(self, tmp_path):
        store = CheckpointStore(tmp_path)
        write_one(store)
        manifest = store.manifest_path(7)
        doc = json.loads(manifest.read_bytes())
        doc["format_version"] = CHECKPOINT_FORMAT_VERSION + 1
        manifest.write_text(canonical_json(doc))
        with pytest.raises(CheckpointError, match="upgrade repro"):
            store.load(7)

    def rewrite_format_version(self, store, index, version):
        manifest = store.manifest_path(index)
        doc = json.loads(manifest.read_bytes())
        doc["format_version"] = version
        manifest.write_text(canonical_json(doc))

    def test_format_1_net_fleet_is_refused(self, tmp_path):
        # A format-1 lossy-transport fleet holds every frame's SEND on its
        # control heap and keeps its session ledger apart from the shards.
        store = CheckpointStore(tmp_path)
        store.write(
            STATE, event_index=7, kind="fleet",
            config={"n_shards": 2, "net": {"enabled": True}},
            service=SERVICE,
        )
        self.rewrite_format_version(store, 7, 1)
        with pytest.raises(CheckpointError, match=refusal(1)):
            store.load(7)

    @pytest.mark.parametrize(
        "config",
        [{"n_shards": 2}, {"n_shards": 2, "net": {"enabled": True}}],
        ids=["plain", "net"],
    )
    def test_format_2_fleet_is_refused(self, tmp_path, config):
        # Written before the fleet owned one session ledger.
        store = CheckpointStore(tmp_path)
        store.write(
            STATE, event_index=7, kind="fleet", config=config, service=SERVICE
        )
        self.rewrite_format_version(store, 7, 2)
        with pytest.raises(CheckpointError, match=refusal(2)):
            store.load(7)

    @pytest.mark.parametrize("version", [1, 4])
    def test_format_4_chaos_is_refused(self, tmp_path, version):
        # Before format 5 the chaos runtime, not its worker pool, held the
        # circuit breakers and the armed wake-up: such a payload would
        # restore a pool with fresh breakers.
        store = CheckpointStore(tmp_path)
        store.write(
            STATE, event_index=7, kind="chaos", config=CONFIG, service=SERVICE
        )
        self.rewrite_format_version(store, 7, version)
        with pytest.raises(CheckpointError, match=refusal(version)):
            store.load(7)

    @pytest.mark.parametrize("version", [4, 5])
    def test_format_5_net_fleet_is_refused(self, tmp_path, version):
        # Before format 6 every frame crossed the lossy transport: SEND
        # payloads and envelope seqs index all frames, not the
        # predict-frame stream a later fleet rebuilds on restore.
        store = CheckpointStore(tmp_path)
        store.write(
            STATE, event_index=7, kind="fleet",
            config={"n_shards": 2, "net": {"enabled": True}},
            service=SERVICE,
        )
        self.rewrite_format_version(store, 7, version)
        with pytest.raises(CheckpointError, match=refusal(version)):
            store.load(7)

    @pytest.mark.parametrize(
        "config,version",
        [
            ({"n_shards": 2}, 4),
            ({"n_shards": 2}, 5),
            ({"n_shards": 2}, 6),
            ({"n_shards": 2, "net": {"enabled": False}}, 6),
            ({"n_shards": 2, "net": {"enabled": True}}, 6),
        ],
        ids=["direct-4", "direct-5", "direct-6", "net-disabled-6", "net-6"],
    )
    def test_format_6_fleet_is_refused(self, tmp_path, config, version):
        # Before format 7 a fleet applied its events in merged global
        # time order: the checkpoint's event index and the journal after
        # it name events of that order, which a shard-major replay would
        # not regenerate.
        store = CheckpointStore(tmp_path)
        store.write(
            STATE, event_index=7, kind="fleet", config=config, service=SERVICE
        )
        self.rewrite_format_version(store, 7, version)
        with pytest.raises(CheckpointError, match=refusal(version)):
            store.load(7)

    @pytest.mark.parametrize("version", [5, 6, 7])
    def test_format_7_chaos_is_refused(self, tmp_path, version):
        # Before format 8 every chaos frame was a heap ARRIVAL: the heap
        # holds frames the per-session backlog would record again.
        store = CheckpointStore(tmp_path)
        store.write(
            STATE, event_index=7, kind="chaos", config=CONFIG, service=SERVICE
        )
        self.rewrite_format_version(store, 7, version)
        with pytest.raises(CheckpointError, match=refusal(version)):
            store.load(7)

    @pytest.mark.parametrize(
        "kind,config", [("serve", CONFIG), ("fleet", {"n_shards": 2})]
    )
    def test_format_3_serve_and_fleet_are_refused(self, tmp_path, kind, config):
        # Their heaps hold bypass ARRIVALs the backlog would record again.
        store = CheckpointStore(tmp_path)
        store.write(
            STATE, event_index=7, kind=kind, config=config, service=SERVICE
        )
        self.rewrite_format_version(store, 7, 3)
        with pytest.raises(CheckpointError, match=refusal(3)):
            store.load(7)

    @pytest.mark.parametrize("version", range(1, CHECKPOINT_FORMAT_VERSION))
    @pytest.mark.parametrize(
        "kind,config",
        [
            ("serve", CONFIG),
            ("chaos", CONFIG),
            ("fleet", {"n_shards": 2}),
            ("fleet", {"n_shards": 2, "net": {"enabled": True}}),
        ],
        ids=["serve", "chaos", "fleet", "net"],
    )
    def test_every_older_format_is_refused(self, tmp_path, kind, config, version):
        # Format 9 arms one batch window per deadline: every kind's heap,
        # event indices and journal differ from an older build's.
        store = CheckpointStore(tmp_path)
        store.write(
            STATE, event_index=7, kind=kind, config=config, service=SERVICE
        )
        self.rewrite_format_version(store, 7, version)
        with pytest.raises(CheckpointError, match=refusal(version)):
            store.load(7)

    def test_event_index_mismatch(self, tmp_path):
        store = CheckpointStore(tmp_path)
        write_one(store)
        # Renaming both files moves the checkpoint to index 9 but the
        # manifest still claims 7.
        store.manifest_path(7).rename(store.manifest_path(9))
        store.payload_path(7).rename(store.payload_path(9))
        with pytest.raises(CheckpointError, match="claims event index 7"):
            store.load(9)

    def test_missing_payload(self, tmp_path):
        store = CheckpointStore(tmp_path)
        write_one(store)
        store.payload_path(7).unlink()
        with pytest.raises(CheckpointError, match="missing"):
            store.load(7)

    def test_crc_matches_manifest_pin(self, tmp_path):
        store = CheckpointStore(tmp_path)
        write_one(store)
        doc = json.loads(store.manifest_path(7).read_bytes())
        assert doc["payload_crc32"] == crc32(store.payload_path(7).read_bytes())


class TestLatestValid:
    def test_prefers_newest(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for index in (0, 100, 200):
            write_one(store, index, state={"at": index})
        checkpoint, skipped = store.latest_valid()
        assert checkpoint.event_index == 200
        assert skipped == []

    def test_falls_back_past_corruption(self, tmp_path):
        store = CheckpointStore(tmp_path)
        for index in (0, 100, 200):
            write_one(store, index, state={"at": index})
        payload = store.payload_path(200)
        data = bytearray(payload.read_bytes())
        data[0] ^= 0xFF
        payload.write_bytes(bytes(data))
        checkpoint, skipped = store.latest_valid()
        assert checkpoint.event_index == 100
        assert [index for index, _ in skipped] == [200]
        assert "CRC32" in skipped[0][1]

    def test_empty_directory(self, tmp_path):
        checkpoint, skipped = CheckpointStore(tmp_path).latest_valid()
        assert checkpoint is None and skipped == []
