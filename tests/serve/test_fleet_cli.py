"""``python -m repro fleet``: params resolution and CLI surface."""

from __future__ import annotations

import pytest

from repro.recover import kinds
from repro.recover.codec import config_hash
from repro.serve.fleet.cli import main
from repro.serve.telemetry import FleetReport


def resolve_run_config(params: dict) -> dict:
    return kinds.resolve_run_config("fleet", params)


def run_from_config(params: dict) -> FleetReport:
    return kinds.build_runtime(resolve_run_config(params)).run()


class TestResolveRunConfig:
    def test_defaults_and_explicit_spellings_share_a_hash(self):
        sparse = resolve_run_config({"serve": {"n_sessions": 8}})
        explicit = resolve_run_config(
            {"serve": {"n_sessions": 8}, "n_shards": 4, "vnodes": 64,
             "ring_seed": 0, "migration_rate_hz": 0.0}
        )
        assert config_hash(sparse) == config_hash(explicit)
        assert sparse["kind"] == "fleet"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fleet params"):
            resolve_run_config({"shard_count": 4})

    def test_bad_kill_rejected(self):
        with pytest.raises(ValueError, match="bad fleet params"):
            resolve_run_config({"kills": [{"shard": 1, "at_s": 0.2}]})

    def test_kill_beyond_topology_rejected(self):
        with pytest.raises(ValueError, match="starts with"):
            resolve_run_config(
                {"n_shards": 2, "kills": [{"shard_id": 5, "at_s": 0.1}]}
            )

    def test_run_from_config_returns_sharded_report(self):
        report = run_from_config(
            {"serve": {"n_sessions": 8, "duration_s": 0.2}, "n_shards": 2}
        )
        assert isinstance(report, FleetReport)
        assert report.shards is not None
        assert len(report.shards.shard_rows) == 2

    def test_net_params_resolve_and_run(self):
        report = run_from_config(
            {
                "serve": {"n_sessions": 8, "duration_s": 0.2},
                "n_shards": 2,
                "net": {
                    "enabled": True,
                    "link": {"drop_rate": 0.2, "dup_rate": 0.2},
                },
            }
        )
        assert report.net is not None
        # Every predict frame crossed the wire and was applied once;
        # saccade and reuse frames stayed on the headset.
        predict = sum(
            s.counts["predict"] + s.counts["degraded"] for s in report.sessions
        )
        assert report.net.counters["exhausted_degraded"] == 0
        assert report.net.counters["frames_applied"] == predict

    def test_net_key_is_absent_from_plain_hashes(self):
        # Pre-transport campaign hashes must not shift: a config without
        # net (or with it disabled) resolves to the same dict as before.
        plain = resolve_run_config({"serve": {"n_sessions": 8}})
        disabled = resolve_run_config(
            {"serve": {"n_sessions": 8}, "net": {"enabled": False}}
        )
        assert "net" not in plain["config"]
        assert config_hash(plain) == config_hash(disabled)
        lossy = resolve_run_config(
            {"serve": {"n_sessions": 8}, "net": {"enabled": True}}
        )
        assert lossy["config"]["net"]["enabled"] is True
        assert config_hash(lossy) != config_hash(plain)

    def test_bad_net_params_rejected(self):
        with pytest.raises(ValueError, match="bad fleet params"):
            resolve_run_config({"net": {"enabled": True, "drop": 0.5}})
        with pytest.raises(ValueError, match="on_exhaust must be one of"):
            resolve_run_config({"net": {"enabled": True, "on_exhaust": "no"}})


class TestCliMain:
    ARGS = [
        "--sessions", "16", "--shards", "4", "--duration", "0.3",
        "--kill-shard", "2@0.2",
    ]

    def test_kill_run_prints_failover_line(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Fleet topology: 4 shards started" in out
        assert "Failover: shard 2 killed at 0.200s" in out

    def test_compare_no_kill_prints_cost(self, capsys):
        assert main(self.ARGS + ["--compare-no-kill"]) == 0
        out = capsys.readouterr().out
        assert "no-kill baseline" in out
        assert "Failover cost:" in out

    def test_bad_kill_spec_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--kill-shard", "nope"])
        assert exc.value.code == 2

    def test_net_run_prints_transport_section(self, capsys):
        assert main([
            "--sessions", "8", "--shards", "2", "--duration", "0.2",
            "--net", "--net-drop", "0.2", "--net-dup", "0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Transport:" in out
        assert "Exactly-once:" in out
        assert "Detector:" in out

    def test_partition_flag_alone_enables_the_transport(self, capsys):
        assert main([
            "--sessions", "8", "--shards", "2", "--duration", "0.3",
            "--partition", "1@0.1:0.2",
        ]) == 0
        out = capsys.readouterr().out
        assert "Partitions: 1 windows" in out

    def test_compare_no_fault_requires_net(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--sessions", "8", "--compare-no-fault"])
        assert exc.value.code == 2
        assert "--compare-no-fault" in capsys.readouterr().err

    def test_kill_at_event_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit) as exc:
            main(["--kill-at-event", "10"])
        assert exc.value.code == 2

    def test_checkpointed_run_and_crash_exit(self, tmp_path, capsys):
        from repro.recover import JOURNAL_NAME
        from repro.recover.cli import EXIT_SIMULATED_CRASH

        directory = tmp_path / "ckpt"
        code = main(self.ARGS + [
            "--checkpoint-dir", str(directory),
            "--checkpoint-every", "20",
            "--kill-at-event", "50",
        ])
        assert code == EXIT_SIMULATED_CRASH
        assert (directory / JOURNAL_NAME).exists()


class TestSpecParsingErrors:
    """Malformed schedule specs must exit 2 with a message naming the
    bad token — never a traceback."""

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (["--kill-shard", "nope@0.3"],
             "--kill-shard: 'nope' is not an integer id in 'nope@0.3'"),
            (["--kill-shard", "2@soon"],
             "--kill-shard: 'soon' is not a time in seconds in '2@soon'"),
            (["--kill-shard", "2"],
             "--kill-shard expects ID@SECONDS, got '2'"),
            (["--migrate", "3@later"],
             "--migrate: 'later' is not a time in seconds in '3@later'"),
            (["--migrate", "x@0.2"],
             "--migrate: 'x' is not an integer id in 'x@0.2'"),
            (["--partition", "1,x@0.2:0.35"],
             "--partition: 'x' is not an integer shard id in '1,x@0.2:0.35'"),
            (["--partition", "1@0.2"],
             "--partition expects a START:STOP window in seconds, got '1@0.2'"),
            (["--partition", "@0.2:0.3"],
             "--partition expects SHARDS@START:STOP, got '@0.2:0.3'"),
            (["--gray-shard", "1@0.2:abc"],
             "--gray-shard: 'abc' is not a time in seconds in '1@0.2:abc'"),
            (["--gray-shard", "1"],
             "--gray-shard expects ID@START:STOP, got '1'"),
        ],
    )
    def test_bad_token_is_named_without_traceback(self, capsys, argv, needle):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert needle in err
        assert "Traceback" not in err
