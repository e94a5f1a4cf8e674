"""CLI: serve/chaos --checkpoint-dir/--kill-at-event and `repro recover`."""

from __future__ import annotations

import pytest

from repro.__main__ import main
from repro.recover.cli import EXIT_SIMULATED_CRASH

SERVE = ["serve", "--sessions", "6", "--duration", "0.3", "--workers", "2"]
CHAOS = ["chaos", "--sessions", "4", "--duration", "0.3", "--workers", "2"]


def ckpt_flags(tmp_path, kill=None, every=50):
    flags = ["--checkpoint-dir", str(tmp_path), "--checkpoint-every", str(every)]
    if kill is not None:
        flags += ["--kill-at-event", str(kill)]
    return flags


class TestKillAndRecover:
    def test_serve_kill_then_recover_verify(self, tmp_path, capsys):
        code = main(SERVE + ckpt_flags(tmp_path, kill=20, every=8))
        assert code == EXIT_SIMULATED_CRASH
        captured = capsys.readouterr()
        assert "simulated crash" in captured.err
        assert "python -m repro recover" in captured.err

        assert main(["recover", "--dir", str(tmp_path), "--verify"]) == 0
        captured = capsys.readouterr()
        assert "bit-identical" in captured.err
        assert "Fleet: 6 sessions" in captured.out

    def test_chaos_kill_then_recover_verify(self, tmp_path, capsys):
        code = main(CHAOS + ckpt_flags(tmp_path, kill=30, every=20))
        assert code == EXIT_SIMULATED_CRASH
        capsys.readouterr()
        assert main(["recover", "--dir", str(tmp_path), "--verify"]) == 0
        captured = capsys.readouterr()
        assert "restored chaos run" in captured.err
        assert "bit-identical" in captured.err

    def test_recovered_stdout_matches_uninterrupted_run(self, tmp_path, capsys):
        assert main(SERVE) == 0
        uninterrupted = capsys.readouterr().out
        assert (
            main(SERVE + ckpt_flags(tmp_path, kill=20, every=8))
            == EXIT_SIMULATED_CRASH
        )
        capsys.readouterr()
        assert main(["recover", "--dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == uninterrupted


class TestCheckpointedRunWithoutKill:
    def test_serve_checkpointed_run_completes(self, tmp_path, capsys):
        assert main(SERVE + ckpt_flags(tmp_path)) == 0
        assert "Fleet: 6 sessions" in capsys.readouterr().out
        assert (tmp_path / "journal.jsonl").exists()
        assert list(tmp_path.glob("ckpt-*.manifest.json"))


class TestUsageErrors:
    def test_kill_without_checkpoint_dir_rejected(self):
        with pytest.raises(SystemExit):
            main(SERVE + ["--kill-at-event", "10"])

    def test_kill_at_zero_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(SERVE + ckpt_flags(tmp_path, kill=0))

    def test_recover_empty_directory_fails(self, tmp_path, capsys):
        assert main(["recover", "--dir", str(tmp_path)]) == 1
        assert "recovery failed" in capsys.readouterr().err

    def test_recover_requires_dir(self):
        with pytest.raises(SystemExit):
            main(["recover"])
