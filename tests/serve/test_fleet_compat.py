"""Restoring old single-runtime checkpoints next to fleet ones.

``FleetRuntime.restore`` restores fleets and refuses any other kind:
it returns only its own class and raises :class:`TypeError` on a
checkpoint of another kind.  An old
single-runtime ("serve"/"chaos") checkpoint still warm-restarts through
``restore_runtime`` (and ``python -m repro recover``) to its original
runtime class and completes byte-identically.
"""

from __future__ import annotations

import pytest

from repro.faults import ProcessKill, SimulatedCrash
from repro.recover import fleet_report_bytes
from repro.recover.manager import restore_runtime, run_with_checkpoints
from repro.serve import FleetRuntime, ServeConfig, ServeRuntime
from repro.serve.fleet import FleetConfig


def crash(runtime, directory) -> None:
    with pytest.raises(SimulatedCrash):
        run_with_checkpoints(
            runtime, directory, every=5, kill=ProcessKill(at_event=12)
        )


class TestOldCheckpointCompat:
    def test_restore_returns_the_original_runtime_class(self, tmp_path):
        config = ServeConfig(n_sessions=6, duration_s=0.4, n_workers=2, seed=1)
        crash(ServeRuntime(config), tmp_path)
        runtime = restore_runtime(tmp_path).runtime
        assert isinstance(runtime, ServeRuntime)
        assert not isinstance(runtime, FleetRuntime)

    def test_restored_old_run_completes_byte_identically(self, tmp_path):
        config = ServeConfig(n_sessions=6, duration_s=0.4, n_workers=2, seed=1)
        crash(ServeRuntime(config), tmp_path)
        runtime = restore_runtime(tmp_path).runtime
        while runtime.step():
            pass
        reference = ServeRuntime(config).run()
        assert fleet_report_bytes(runtime.finish()) == fleet_report_bytes(
            reference
        )

    def test_serve_checkpoint_is_refused(self, tmp_path):
        config = ServeConfig(n_sessions=6, duration_s=0.4, n_workers=2, seed=1)
        crash(ServeRuntime(config), tmp_path)
        with pytest.raises(
            TypeError, match="holds a ServeRuntime, not a FleetRuntime"
        ):
            FleetRuntime.restore(tmp_path)
        assert type(restore_runtime(tmp_path).runtime) is ServeRuntime

    def test_fleet_checkpoint_restores_to_the_fleet(self, tmp_path):
        config = FleetConfig(
            serve=ServeConfig(n_sessions=8, duration_s=0.3, seed=0), n_shards=2
        )
        crash(FleetRuntime(config), tmp_path / "fleet")
        runtime = FleetRuntime.restore(tmp_path / "fleet")
        assert isinstance(runtime, FleetRuntime)
