"""Bypass frames as a per-session backlog: the flush order is exact.

Saccade and reuse frames never reach the pool, so the serve runtime and
the fleet shards keep them off the event heap and record them in bulk
per session, at the four points where their order is observable
(DESIGN.md, "Serving runtime").  The oracle is the per-frame event loop
they replace: every digest below was computed with each
bypass frame as its own heap ARRIVAL, on a grid built to hit the tie
rules -- zero stagger (every session ties at every frame instant), kills,
planned migrations and rebalancer ticks placed exactly on frame
instants, DEGRADE and SHED admission, a re-home guard, and SLO
boundaries that land on frame instants.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.faults import ProcessKill, SimulatedCrash, default_chaos_scenario
from repro.faults.netfaults import ShardKill
from repro.faults.runtime import chaos_runtime
from repro.obs import Obs, ObsConfig
from repro.obs.slo import (
    SloConfig,
    SloEngine,
    default_slo_config,
    parse_slo_config,
)
from repro.recover import fleet_report_bytes
from repro.recover.manager import resume, run_with_checkpoints
from repro.serve import ServeConfig, ServeRuntime
from repro.serve.config import AdmissionPolicy
from repro.serve.fleet import FleetConfig, FleetRuntime, NetConfig
from repro.serve.fleet.config import (
    FailoverConfig,
    RebalancerConfig,
    SessionMigration,
    rebalance_ticks,
)
from repro.serve.fleet.runtime import _SHARD_KIND_STRIDE
from repro.serve.fleet.transport import K_NET_SEND
from repro.serve.runtime import _ARRIVAL
from repro.system.session import PATHS

SERVE = ServeConfig(
    n_sessions=8,
    duration_s=0.3,
    n_workers=1,
    max_batch=2,
    stagger_s=0.0,
    queue_budget_deadlines=0.3,
    seed=3,
)


def serve_config(reuse_deg: float, admission: AdmissionPolicy) -> ServeConfig:
    return replace(SERVE, reuse_displacement_deg=reuse_deg, admission=admission)


def fleet_config(reuse_deg: float, admission: AdmissionPolicy) -> FleetConfig:
    # Frame instants are k / 100 s: the kill (0.1), the planned
    # migration (0.05) and the rebalancer ticks at 0.05, 0.1, 0.2, 0.25
    # land exactly on them (0.15 and 0.3 miss by one ulp).
    return FleetConfig(
        serve=replace(
            serve_config(reuse_deg, admission), n_sessions=12, duration_s=0.3
        ),
        n_shards=3,
        kills=(ShardKill(shard_id=1, at_s=0.1),),
        migrations=(SessionMigration(at_s=0.05, session_id=4),),
        failover=FailoverConfig(guard_s=0.05, breaker_threshold=1),
        rebalancer=RebalancerConfig(
            interval_s=0.05, p95_high_s=2e-3, p95_low_s=1e-3, cooldown_s=0.05
        ),
    )


def build(case: str, obs: "Obs | None" = None):
    kind, reuse, admission = case.split("-")
    config = (serve_config if kind == "serve" else fleet_config)(
        float(reuse), AdmissionPolicy(admission)
    )
    runtime = ServeRuntime if kind == "serve" else FleetRuntime
    return runtime(config, obs=obs)


CASES = [
    f"{kind}-{reuse}-{admission}"
    for kind in ("serve", "fleet")
    for reuse in ("0.05", "1.0")
    for admission in ("degrade", "shed")
]

#: case -> sha256(fleet_report_bytes) of the per-frame event loop.
DIGESTS = {
    "serve-0.05-degrade": "195729a032f9e742244c847b9590198c5864211dc512b761f65698dfc445b211",
    "serve-0.05-shed": "656cdacc7e925d161d4a16908234e30785defe88cbea80a8548e2548d5e72cd9",
    "serve-1.0-degrade": "9106e42d61647726f47de50360e0e59a071dee27f6530e9aa52ac4fde6179e87",
    "serve-1.0-shed": "99d58bd4304f17bc7b59443305861c4ddd5b02eaa37bbda7f9f69c7c4361cc76",
    "fleet-0.05-degrade": "1285557c9b2430171d3ed4c12c6ec017d5b57941b3c4df8faf7e8141db2fe217",
    "fleet-0.05-shed": "85a23f73b86e1b099e00aec128d995bbe3c545c8d11b1ddc894a57179fa52174",
    "fleet-1.0-degrade": "2a6048bbe9ff689b5742b09cab7410cd6da1fda86797dc7990d72ba3bdce54f8",
    "fleet-1.0-shed": "b57a59eeef148cd54c2d78628bbb5400ccf7f37c2dddff758d58c3140716cf80",
}

#: case -> sha256 of the report bytes and the SLO history of an observed
#: run under :func:`slo_config`.
SLO_DIGESTS = {
    "serve-0.05-degrade": "e2cf5b0bc2b8aa2b72e574a756b0f74f060b5e88d5c24ea10af7504f38720819",
    "serve-0.05-shed": "6bfa886170a5400c848b0e6d17c53b2582b6ee5529f417ab185dd1f26369f899",
    "serve-1.0-degrade": "bba753135e9f6ba0bcd14abb12d9efef13b0572720c5f74d54b077f407aa2712",
    "serve-1.0-shed": "751a5a3bf0c35ab9393f2ba78b3932babc3d82a5c36eb6f27e6bdbbe5b1fd250",
    "fleet-0.05-degrade": "14b96a2c79b0ffba81824ec567bd787ea677ffc268bc13df931807d89d9f97dc",
    "fleet-0.05-shed": "e840f8d40a46b31cc9d66ed7a66e5c1aaefdb8386b73de26065065604353659a",
    "fleet-1.0-degrade": "5987a2fae7ccbf79010b687f9c8c1e32a996ced65ce3fbb31e546fefc5d85e0a",
    "fleet-1.0-shed": "416b6bfb3cd7f27fc7ac1856b614f318841f5595d182540b3c6b1d242072446a",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digest(runtime) -> str:
    return sha(fleet_report_bytes(runtime.run()))


def slo_config(deadline_s: float) -> SloConfig:
    """The default objective plus one counting frames by path, evaluated
    every three frames: off most rebalancer ticks, so the first item at
    a boundary is often a bypass frame, and the path counters tell which
    one."""
    (by_path,) = parse_slo_config(
        {
            "objectives": [
                {
                    "name": "path_mix",
                    "kind": "ratio",
                    "total": {
                        "metric": "serve_frames_total",
                        "labels": {"path": "reuse"},
                    },
                    "bad": {
                        "metric": "serve_frames_total",
                        "labels": {"path": "saccade"},
                    },
                    "target": 0.5,
                    "window_s": 0.09,
                }
            ]
        }
    ).objectives
    default = default_slo_config(deadline_s)
    return SloConfig(
        objectives=default.objectives + (by_path,), eval_interval_s=0.03
    )


def slo_digest(case: str) -> str:
    obs = Obs(ObsConfig())
    runtime = build(case, obs)
    serve = getattr(runtime.config, "serve", runtime.config)
    engine = SloEngine(slo_config(serve.deadline_s), obs)
    runtime.attach_slo(engine)
    report = fleet_report_bytes(runtime.run())
    return sha(report + engine.history_jsonl().encode())


def predict_frames(sessions) -> int:
    return sum(PATHS[s.codes].tolist().count("predict") for s in sessions)


def tally(runtime) -> dict:
    """Step ``runtime`` to the end, counting events by source and kind."""
    counts: dict = {}
    runtime.start()
    while (head := runtime.peek_event()) is not None:
        kind = head[1]
        if isinstance(runtime, FleetRuntime):
            kind = (
                ("shard", kind % _SHARD_KIND_STRIDE)
                if kind >= _SHARD_KIND_STRIDE
                else ("control", kind)
            )
        counts[kind] = counts.get(kind, 0) + 1
        runtime.step()
    runtime.finish()
    return counts


@pytest.mark.parametrize("case", CASES)
def test_report_matches_the_per_frame_loop(case):
    assert report_digest(build(case)) == DIGESTS[case]


@pytest.mark.parametrize("case", CASES)
def test_slo_history_matches_the_per_frame_loop(case):
    assert slo_digest(case) == SLO_DIGESTS[case]


@pytest.mark.parametrize("case", ["fleet-1.0-degrade", "fleet-0.05-shed"])
def test_crash_and_restore_anywhere(case, tmp_path):
    runtime = build(case)
    runtime.run()
    total = runtime.events_processed
    for kill_at in (1, total // 2, total - 1):
        directory = tmp_path / str(kill_at)
        with pytest.raises(SimulatedCrash):
            run_with_checkpoints(
                build(case), directory, every=max(total // 5, 1),
                kill=ProcessKill(at_event=kill_at),
            )
        assert sha(fleet_report_bytes(resume(directory))) == DIGESTS[case]


@pytest.mark.parametrize("case", CASES)
def test_only_pool_and_control_frames_are_events(case):
    runtime = build(case)
    counts = tally(runtime)
    assert runtime.events_processed == sum(counts.values())
    if isinstance(runtime, ServeRuntime):
        assert counts[_ARRIVAL] == predict_frames(runtime.fleet)
        assert set(counts) <= {0, 1, 2}
    else:
        config = runtime.config
        assert counts[("shard", _ARRIVAL)] == predict_frames(runtime.sessions)
        controls = sum(n for (source, _), n in counts.items() if source == "control")
        assert controls == (
            len(config.kills)
            + runtime.log.migrations_planned
            + len(rebalance_ticks(config))
        )


def test_chaos_runs_seed_only_arriving_predict_frames():
    # Input faults do not make bypass frames events either: an ARRIVAL
    # is a predict frame the sensor delivered, or a retry of one.
    base = default_chaos_scenario(seed=3)
    chaos = replace(base, serve=replace(base.serve, n_sessions=4, duration_s=0.5))
    runtime = chaos_runtime(chaos)
    counts = tally(runtime)
    delivered = sum(
        path == "predict" and not trace.dropped[f]
        for session, trace in zip(runtime.fleet, runtime.chaos.traces)
        for f, path in enumerate(PATHS[session.codes].tolist())
    )
    assert runtime.chaos.report.input_dropped > 0
    assert counts[_ARRIVAL] == delivered + runtime.chaos.report.retries_scheduled


def test_net_runs_send_only_predict_frames():
    # The headset serves saccade and reuse frames (Algorithm 1), so
    # only predict frames cross the transport; a net shard's heap holds
    # no ARRIVAL at all.
    config = FleetConfig(
        serve=replace(SERVE, reuse_displacement_deg=1.0),
        n_shards=2,
        kills=(ShardKill(shard_id=1, at_s=0.1),),
        net=NetConfig(enabled=True, seed=1),
    )
    runtime = FleetRuntime(config)
    counts = tally(runtime)
    assert counts[("control", K_NET_SEND)] == predict_frames(runtime.sessions)
    assert ("shard", _ARRIVAL) not in counts
