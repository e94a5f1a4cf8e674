"""Durability of the lossy fleet transport: crash mid-partition, resume.

The transport's protocol state (pending envelopes, dedupe registry,
detector estimates, displaced sessions) rides in the fleet checkpoint,
and every net control event replays from the write-ahead journal — so a
crash in the middle of a partition window, with envelopes in flight and
a shard falsely suspected, must still resume to a byte-identical report.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import ProcessKill, SimulatedCrash
from repro.faults.netfaults import ShardKill
from repro.recover import (
    CheckpointStore,
    RecoveryError,
    canonical_bytes,
    fleet_report_bytes,
)
from repro.recover.configio import decode
from repro.recover.kinds import config_dict
from repro.recover.manager import restore_runtime, resume, run_with_checkpoints
from repro.serve import ServeConfig
from repro.serve.fleet import (
    FleetConfig,
    FleetRuntime,
    LinkProfile,
    NetConfig,
    PartitionWindow,
    run_fleet,
)
from repro.serve.fleet.transport import K_NET_SEND


def lossy_fleet() -> FleetConfig:
    return FleetConfig(
        serve=ServeConfig(
            n_sessions=16, duration_s=0.5, n_workers=1,
            reuse_displacement_deg=0.05, seed=0,
        ),
        n_shards=3,
        kills=(ShardKill(shard_id=2, at_s=0.3),),
        net=NetConfig(
            enabled=True, seed=4,
            link=LinkProfile(
                drop_rate=0.15, dup_rate=0.15, delay_s=5e-4, jitter_s=1e-3
            ),
            partitions=(
                PartitionWindow(start_s=0.15, stop_s=0.3, shard_ids=(1,)),
            ),
            ack_timeout_s=4e-3, max_retransmits=8,
        ),
    )


class TestNetCrashRecovery:
    def test_kill_restore_resume_is_byte_identical(self, tmp_path):
        config = lossy_fleet()
        reference = run_fleet(config)
        with pytest.raises(SimulatedCrash):
            run_with_checkpoints(
                FleetRuntime(config), tmp_path, every=300,
                kill=ProcessKill(at_event=1000),
            )
        report = resume(tmp_path)
        assert fleet_report_bytes(report) == fleet_report_bytes(reference)

    def test_format_5_checkpoint_is_refused(self, tmp_path):
        # Before format 6 every frame crossed the transport, so SEND
        # payloads and envelope seqs indexed all frames: a restore that
        # rebuilds the predict-frame stream must refuse, not misroute.
        with pytest.raises(SimulatedCrash):
            run_with_checkpoints(
                FleetRuntime(lossy_fleet()), tmp_path, every=300,
                kill=ProcessKill(at_event=1000),
            )
        store = CheckpointStore(tmp_path)
        for index in store.indices():
            manifest = store.manifest_path(index)
            doc = json.loads(manifest.read_bytes())
            doc["format_version"] = 5
            manifest.write_bytes(canonical_bytes(doc))
        with pytest.raises(
            RecoveryError, match="is format 5; this build reads only 10 — rerun"
        ):
            resume(tmp_path)

    def test_crash_inside_the_partition_window(self, tmp_path):
        # Drive the live runtime until sim time is inside the partition
        # (suspicion pending or active, envelopes black-holed), then
        # crash a fresh run at that event count and resume it.
        config = lossy_fleet()
        probe = FleetRuntime(config)
        probe.start()
        events = 0
        while True:
            head = probe.peek_event()
            assert head is not None, "run ended before the partition"
            if head[0] >= 0.2:
                break
            probe.step()
            events += 1
        with pytest.raises(SimulatedCrash):
            run_with_checkpoints(
                FleetRuntime(config), tmp_path, every=150,
                kill=ProcessKill(at_event=events + 25),
            )
        report = resume(tmp_path)
        assert fleet_report_bytes(report) == fleet_report_bytes(
            run_fleet(config)
        )

    def test_restored_runtime_carries_transport_state(self, tmp_path):
        config = lossy_fleet()
        with pytest.raises(SimulatedCrash):
            run_with_checkpoints(
                FleetRuntime(config), tmp_path, every=200,
                kill=ProcessKill(at_event=800),
            )
        checkpoint, skipped = CheckpointStore(tmp_path).latest_valid()
        assert skipped == []
        assert checkpoint.kind == "fleet"
        restored = restore_runtime(tmp_path)
        runtime = restored.runtime
        assert isinstance(runtime, FleetRuntime)
        assert runtime.transport is not None
        # The dedupe registry made it across the crash (frames were
        # applied before the checkpoint) and every shard records into
        # the fleet's one session ledger again.
        assert runtime.transport.applied
        for shard in runtime.shards.values():
            assert shard.stats is runtime.stats

    def test_net_config_roundtrips_through_manifest(self):
        config = lossy_fleet()
        state = config_dict(config)
        assert state["net"]["partitions"] == [
            {"start_s": 0.15, "stop_s": 0.3, "shard_ids": [1]}
        ]
        clone = decode(FleetConfig, state)
        assert clone.net == config.net
        # Pre-transport manifests have no "net" key and must still load;
        # plain fleets must keep emitting byte-identical manifests.
        plain = FleetConfig(serve=ServeConfig(n_sessions=4, duration_s=0.1))
        plain_state = config_dict(plain)
        assert "net" not in plain_state
        assert decode(FleetConfig, plain_state).net == NetConfig()


def events_until(config: FleetConfig, stop) -> int:
    """Events a fresh run processes before ``stop(runtime)`` holds."""
    probe = FleetRuntime(config)
    probe.start()
    while not stop(probe):
        assert probe.step(), "run ended before the stop condition"
    return probe.events_processed


def sends_on_heap(control) -> list:
    return [entry for entry in control if entry[2] == K_NET_SEND]


class TestChainedSendRecovery:
    """Checkpoint -> crash -> restore -> resume around the SEND chain:
    only the next predict frame's SEND is on the control heap, so a
    restore must rebuild the request list it indexes and keep chaining
    from there."""

    def checkpoint_and_resume(self, config, tmp_path, event_index: int):
        # A checkpoint lands at ``event_index`` (the baseline covers 0);
        # the crash one event later forces a one-record journal replay.
        with pytest.raises(SimulatedCrash):
            run_with_checkpoints(
                FleetRuntime(config), tmp_path, every=event_index or 10**9,
                kill=ProcessKill(at_event=event_index + 1),
            )
        checkpoint, skipped = CheckpointStore(tmp_path).latest_valid()
        assert skipped == []
        assert checkpoint.event_index == event_index
        report = resume(tmp_path)
        assert fleet_report_bytes(report) == fleet_report_bytes(
            run_fleet(config)
        )
        return checkpoint

    def test_before_the_first_send(self, tmp_path):
        config = lossy_fleet()
        checkpoint = self.checkpoint_and_resume(config, tmp_path, 0)
        [(_, _, _, payload)] = sends_on_heap(checkpoint.state["control"])
        assert payload == 0

    def test_mid_partition(self, tmp_path):
        config = lossy_fleet()
        window = config.net.partitions[0]
        index = events_until(
            config,
            lambda rt: rt.peek_event()[0]
            >= (window.start_s + window.stop_s) / 2,
        )
        checkpoint = self.checkpoint_and_resume(config, tmp_path, index)
        [(time_s, _, _, payload)] = sends_on_heap(checkpoint.state["control"])
        assert window.start_s < time_s < window.stop_s
        assert payload > 0

    def test_after_the_last_send(self, tmp_path):
        config = lossy_fleet()
        index = events_until(config, lambda rt: not sends_on_heap(rt._control))
        checkpoint = self.checkpoint_and_resume(config, tmp_path, index)
        control = checkpoint.state["control"]
        assert sends_on_heap(control) == []
        assert control  # the last frames' acks and retry timers are due
