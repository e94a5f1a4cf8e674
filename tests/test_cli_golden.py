"""Golden output of ``python -m repro serve|chaos|fleet|trace|sdc``.

Every row runs one or more ``python -m repro`` commands in a fresh
directory and pins each step's exit code plus the sha256 of its stdout
and stderr.  The digests cover the printed reports, the ``--compare-*``
baselines, the SLO verdicts, the ``obs-out/<kind>-<config-hash>``
directory an ``--obs`` run picks by default, the crash exit code of
``--kill-at-event`` and the recovered report, the usage refusals, and
``--help`` at a fixed 100-column width.  :data:`OBS_TREES` pins the
bytes of every artifact an ``--obs`` row writes under ``obs-out/``.

Serve, chaos and fleet runs record saccade and reuse frames in bulk, so
their bypass spans are emitted when a session's backlog is flushed
rather than at each frame's arrival.  :data:`OBS_CONTENT` pins what that must
not change: the spans as a set and every metric but a histogram's
float ``_sum`` (whose rounding depends on the order of its samples).

The ``*-all-flags`` rows give every flag a non-default value, so the
pinned report (and, with ``--obs``, the obs-out hash) fails if any flag
stops reaching its config field or its ms -> s scale changes.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from repro.__main__ import main

SERVE = ["serve", "--sessions", "6", "--duration", "0.3", "--seed", "3"]
CHAOS = ["chaos", "--sessions", "6", "--duration", "0.3", "--seed", "7"]
FLEET = [
    "fleet", "--sessions", "8", "--shards", "3", "--workers", "1",
    "--duration", "0.3", "--reuse-displacement", "0.05",
    "--queue-budget", "0.8",
]
FLEET_KILL = FLEET + [
    "--kill-shard", "1@0.15", "--migration-rate", "10", "--migrate", "2@0.1",
]
FLEET_NET = FLEET + [
    "--net", "--net-drop", "0.1", "--net-dup", "0.1", "--net-jitter-ms", "1",
    "--partition", "1@0.1:0.2", "--gray-shard", "2@0.05:0.15",
    "--gray-factor", "10",
]
SERVE_ALL_FLAGS = [
    "serve", "--sessions", "5", "--duration", "0.25", "--fps", "90",
    "--workers", "3", "--max-batch", "4", "--batch-window-ms", "1.5",
    "--admission", "shed", "--queue-budget", "1.5", "--deadline-frames",
    "1.25", "--reuse-displacement", "0.5", "--service-fixed-ms", "0.7",
    "--service-per-sample-ms", "0.3", "--seed", "11", "--max-session-rows",
    "3", "--obs", "--obs-top", "4",
]
#: The soft-error acceleration lands upsets on this row's few predict
#: frames, so its report has a ``Soft errors:`` line.
CHAOS_ALL_FLAGS = [
    "chaos", "--sessions", "5", "--duration", "0.25", "--workers", "3",
    "--seed", "4", "--drop-rate", "0.2", "--noise-burst-rate", "0.5",
    "--occlusion-rate", "0.3", "--bit-error-rate", "1e-7",
    "--no-worker-faults", "--soft-error-fit", "500", "--soft-error-accel",
    "5e12", "--max-session-rows", "3", "--obs", "--obs-top", "4",
]
FLEET_ALL_FLAGS = [
    "fleet", "--sessions", "7", "--shards", "2", "--duration", "0.25",
    "--fps", "90", "--workers", "2", "--max-batch", "4", "--queue-budget",
    "1.5", "--reuse-displacement", "0.5", "--seed", "5", "--vnodes", "16",
    "--ring-seed", "3", "--kill-shard", "1@0.2", "--migrate", "1@0.1",
    "--migration-rate", "4", "--migration-seed", "9",
    "--rebalance-interval", "0.1", "--rebalance-high-ms", "3",
    "--rebalance-low-ms", "0.5", "--guard", "0.05", "--max-session-rows",
    "3", "--obs", "--obs-top", "4",
]
# The transport refuses live migration and the rebalancer, so the net
# flags get their own row.
FLEET_NET_ALL_FLAGS = [
    "fleet", "--sessions", "7", "--shards", "3", "--duration", "0.25",
    "--workers", "1", "--seed", "5", "--kill-shard", "2@0.2", "--net",
    "--net-seed", "2", "--net-drop", "0.05", "--net-dup", "0.02",
    "--net-delay-ms", "0.7", "--net-jitter-ms", "0.2",
    "--net-ack-timeout-ms", "3", "--net-max-retransmits", "6",
    "--net-backoff", "1.5", "--net-heartbeat-ms", "6", "--net-detect-ms",
    "4", "--net-phi", "5", "--partition", "0,1@0.05:0.08", "--gray-shard",
    "0@0.1:0.15", "--gray-factor", "7", "--net-on-exhaust", "drop",
    "--max-session-rows", "3",
]

TRACE = [
    "trace", "--frames", "30", "--sessions", "3", "--workers", "2",
    "--seed", "1", "--top", "3", "--no-hw", "--out", "obs-out/trace",
]
#: The same traced run with the exemplar accelerator and TFR spans.
TRACE_HW = [arg for arg in TRACE if arg != "--no-hw"]


def _kill_then_recover(
    base: "list[str]", kill_at: int, every: int = 40
) -> "list[list[str]]":
    return [
        base + ["--checkpoint-dir", "ckpt", "--checkpoint-every", str(every),
                "--kill-at-event", str(kill_at)],
        ["recover", "--dir", "ckpt", "--verify"],
    ]


#: name -> the commands run, in order, in one fresh directory.
ROWS: "dict[str, list[list[str]]]" = {
    "serve": [SERVE],
    "serve-compare-sequential": [SERVE + ["--compare-sequential"]],
    "serve-slo": [SERVE + ["--slo", "default"]],
    "serve-obs": [SERVE + ["--obs", "--obs-top", "3"]],
    "serve-all-flags": [SERVE_ALL_FLAGS],
    # 12 events: saccade and reuse frames are not events.
    "serve-kill-recover": _kill_then_recover(SERVE, 10, every=4),
    "serve-help": [["serve", "--help"]],
    "serve-refuse-slo-checkpoint": [
        SERVE + ["--slo", "default", "--checkpoint-dir", "ckpt"]
    ],
    "serve-refuse-kill-without-dir": [SERVE + ["--kill-at-event", "5"]],
    "chaos": [CHAOS],
    "chaos-fault-free": [CHAOS + ["--fault-free"]],
    "chaos-compare-fault-free": [CHAOS + ["--compare-fault-free"]],
    "chaos-obs": [CHAOS + ["--obs", "--obs-top", "3"]],
    "chaos-all-flags": [CHAOS_ALL_FLAGS],
    # 54 events: saccade and reuse frames are not events.
    "chaos-kill-recover": _kill_then_recover(CHAOS, 50),
    "chaos-help": [["chaos", "--help"]],
    "chaos-refuse-slo-checkpoint": [
        CHAOS + ["--slo", "default", "--checkpoint-dir", "ckpt"]
    ],
    "fleet-kill": [FLEET_KILL],
    "fleet-compare-no-kill": [FLEET_KILL + ["--compare-no-kill"]],
    "fleet-net-compare-no-fault": [FLEET_NET + ["--compare-no-fault"]],
    "fleet-net-obs": [FLEET_NET + ["--obs"]],
    "fleet-slo": [FLEET_KILL + ["--slo", "default"]],
    "fleet-slo-obs": [FLEET_KILL + ["--slo", "default", "--obs"]],
    "fleet-obs": [FLEET_KILL + ["--obs", "--obs-top", "3"]],
    "fleet-all-flags": [FLEET_ALL_FLAGS],
    "fleet-net-all-flags": [FLEET_NET_ALL_FLAGS],
    "fleet-kill-recover": _kill_then_recover(FLEET_KILL, 200),
    "fleet-kill-recover-obs": [
        _kill_then_recover(FLEET_KILL, 200)[0],
        ["recover", "--dir", "ckpt", "--obs", "--obs-top", "2"],
    ],
    "fleet-help": [["fleet", "--help"]],
    "fleet-refuse-slo-checkpoint": [
        FLEET_KILL + ["--slo", "default", "--checkpoint-dir", "ckpt"]
    ],
    "fleet-refuse-bad-kill-spec": [FLEET + ["--kill-shard", "1@soon"]],
    "trace-serve": [TRACE],
    "trace-chaos": [TRACE + ["--chaos"]],
    "trace-hw": [TRACE_HW],
    "sdc": [["sdc"]],
}

#: name -> per command: (exit code, sha256(stdout)[:16], sha256(stderr)[:16]).
GOLDEN: "dict[str, list[tuple[int, str, str]]]" = {
    "chaos": [(0, "07dacb86b78026a3", "e3b0c44298fc1c14")],
    "chaos-all-flags": [(0, "7844c238f80cb27e", "e3b0c44298fc1c14")],
    "chaos-compare-fault-free": [(0, "d312e082db80ffe9", "e3b0c44298fc1c14")],
    "chaos-fault-free": [(0, "6149d6630547e4da", "e3b0c44298fc1c14")],
    "chaos-help": [(0, "261c8720accbe6aa", "e3b0c44298fc1c14")],
    "chaos-kill-recover": [
        (17, "e3b0c44298fc1c14", "88969f729bd9274c"),
        (0, "07dacb86b78026a3", "70b12dd4489902e9"),
    ],
    "chaos-obs": [(0, "f8781d15afb50546", "e3b0c44298fc1c14")],
    "chaos-refuse-slo-checkpoint": [(2, "e3b0c44298fc1c14", "5a4a1fd7b58bdf1e")],
    "fleet-all-flags": [(0, "d5d043d82d38d41b", "e3b0c44298fc1c14")],
    "fleet-compare-no-kill": [(0, "5ca0006f5f24783f", "e3b0c44298fc1c14")],
    "fleet-help": [(0, "a93d0c15c6024181", "e3b0c44298fc1c14")],
    "fleet-kill": [(0, "0f6a930f5a9da2fa", "e3b0c44298fc1c14")],
    "fleet-kill-recover": [
        (17, "e3b0c44298fc1c14", "169e83ad66a9f04b"),
        (0, "0f6a930f5a9da2fa", "87295d4a90aceb55"),
    ],
    "fleet-kill-recover-obs": [
        (17, "e3b0c44298fc1c14", "169e83ad66a9f04b"),
        (0, "f57054d45a320e32", "1c16a0cd1f606283"),
    ],
    "fleet-net-all-flags": [(0, "e14c3ab6d7a7e957", "e3b0c44298fc1c14")],
    "fleet-net-compare-no-fault": [(0, "4dedda435df54379", "e3b0c44298fc1c14")],
    "fleet-net-obs": [(0, "78bd3ce76e9c9d11", "e3b0c44298fc1c14")],
    "fleet-obs": [(0, "0f34176270d17821", "e3b0c44298fc1c14")],
    "fleet-refuse-bad-kill-spec": [(2, "e3b0c44298fc1c14", "ff7de0365b60183a")],
    "fleet-refuse-slo-checkpoint": [(2, "e3b0c44298fc1c14", "fdb44ba9d9821d06")],
    "fleet-slo": [(0, "be0fb3aefdb5f9a5", "e3b0c44298fc1c14")],
    "fleet-slo-obs": [(0, "8de4114d01716400", "e3b0c44298fc1c14")],
    "serve": [(0, "59a267edb94c866d", "e3b0c44298fc1c14")],
    "serve-all-flags": [(0, "753e91b75170b6d8", "e3b0c44298fc1c14")],
    "serve-compare-sequential": [(0, "c1b49f851802ce0d", "e3b0c44298fc1c14")],
    "serve-help": [(0, "b522a18fcae9079c", "e3b0c44298fc1c14")],
    "serve-kill-recover": [
        (17, "e3b0c44298fc1c14", "b9e7c79b94d6a0ec"),
        (0, "59a267edb94c866d", "3f63394c6f2aca11"),
    ],
    "serve-obs": [(0, "c7ea91026db07aa4", "e3b0c44298fc1c14")],
    "serve-refuse-kill-without-dir": [(2, "e3b0c44298fc1c14", "85b4c2ad98fad267")],
    "serve-refuse-slo-checkpoint": [(2, "e3b0c44298fc1c14", "16a0a53831cd1dfb")],
    "sdc": [(0, "d935e9757e27b0e1", "e3b0c44298fc1c14")],
    "serve-slo": [(0, "f845f6a8251bf030", "e3b0c44298fc1c14")],
    "trace-chaos": [(0, "7c083a82cbf91dd8", "e3b0c44298fc1c14")],
    "trace-hw": [(0, "d38c5cc97b918558", "e3b0c44298fc1c14")],
    "trace-serve": [(0, "a794796f7648bb58", "e3b0c44298fc1c14")],
}


#: name -> sha256 over the (path, bytes) of every file under obs-out/.
OBS_TREES: "dict[str, str]" = {
    "chaos-all-flags": "f9ef40ac123aa952",
    "chaos-obs": "ed7477b651d87db5",
    "fleet-all-flags": "6994581048537ea5",
    "fleet-kill-recover-obs": "89e303b2d4908050",
    "fleet-net-obs": "70e862509158b98e",
    "fleet-obs": "39d5290ca7a515cd",
    "fleet-slo-obs": "e689d4223a8855fe",
    "serve-all-flags": "911c27b8c66c7474",
    "serve-obs": "7e347a39a0b48588",
    "trace-chaos": "b93153c471fc336e",
    "trace-hw": "711c4694139649c1",
    "trace-serve": "dc38b478dc97d391",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def obs_tree_digest(root: Path) -> "str | None":
    """One digest of every artifact under ``root/obs-out``, or None."""
    files = sorted(p for p in (root / "obs-out").rglob("*") if p.is_file())
    if not files:
        return None
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_row(name: str, capsys) -> "list[tuple[int, str, str]]":
    """Run one row's commands in the current directory."""
    steps = []
    for argv in ROWS[name]:
        try:
            code = main(list(argv))
        except SystemExit as exit_:
            code = exit_.code
        captured = capsys.readouterr()
        steps.append((code, _sha(captured.out), _sha(captured.err)))
    return steps


@pytest.mark.parametrize("name", sorted(ROWS))
def test_cli_output_is_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "100")
    assert run_row(name, capsys) == GOLDEN[name]
    assert obs_tree_digest(tmp_path) == OBS_TREES.get(name)


#: name -> (sha256 of the sorted trace.jsonl lines, sha256 of
#: metrics.prom without its ``_sum`` lines), both computed with every
#: bypass frame recorded at its own ARRIVAL event.
OBS_CONTENT: "dict[str, tuple[str, str]]" = {
    "chaos-all-flags": ("9605b1dbce3c3fba", "a7c4e1871fa9cb5e"),
    "chaos-obs": ("b7dc9e64fb782b14", "45976784f32515a6"),
    "fleet-obs": ("060af2d5cee6b8fe", "da9eba578b9a1ac6"),
    "serve-obs": ("60b552c6f5f1f6dc", "c7d03295829c1c96"),
    "trace-chaos": ("0c79824411b18a76", "d9c978c108a11e64"),
}


@pytest.mark.parametrize("name", sorted(OBS_CONTENT))
def test_obs_artifacts_move_only_in_order(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    run_row(name, capsys)
    (out_dir,) = (tmp_path / "obs-out").iterdir()
    spans = sorted((out_dir / "trace.jsonl").read_text().splitlines())
    metrics = [
        line
        for line in (out_dir / "metrics.prom").read_text().splitlines()
        if "_sum" not in line
    ]
    assert (_sha("\n".join(spans)), _sha("\n".join(metrics))) == OBS_CONTENT[name]
