"""``python -m repro fleet`` — run a sharded fleet simulation.

Routes N sessions onto shards by consistent hashing, optionally kills
shards mid-run (``--kill-shard 2@0.6``), live-migrates sessions
(``--migrate 7@0.3`` or a seeded ``--migration-rate``), and prints the
fleet report with its shard section.  ``--compare-no-kill`` replays the
identical fleet without the chaos schedule so the failover cost is a
byte-level diff away.

``--net`` (or any partition/gray window) routes each predict frame over
the simulated lossy transport: ``--net-drop/--net-dup/--net-jitter-ms``
shape the links, ``--partition 1,2@0.2:0.35`` cuts shards off the
router for a window, ``--gray-shard 1@0.2:0.4`` makes one alive but
slow, and the heartbeat failure detector — not the omniscient kill
event — drives failover.  ``--compare-no-fault`` replays the identical
fleet with a *clean* network (protocol still on) so the fault cost is
isolated from the protocol overhead.

Each flag sets one fleet campaign param (the spec flags fill ``kills``,
``migrations``, ``net.partitions`` and ``net.gray``); the shared flags
and the run itself are :mod:`repro.serve.frontdoor`'s.
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.faults.netfaults import LinkProfile
from repro.serve.fleet.runtime import run_fleet
from repro.serve.fleet.transport import ON_EXHAUST_POLICIES
from repro.serve.frontdoor import (
    Flag,
    add_flags,
    add_serving_arguments,
    run_serving_cli,
)
from repro.serve.telemetry import format_fleet_report


def _parse_int(token: str, what: str, flag: str, spec: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(
            f"{flag}: {token!r} is not an integer {what} in {spec!r}"
        ) from None


def _parse_time(token: str, flag: str, spec: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(
            f"{flag}: {token!r} is not a time in seconds in {spec!r}"
        ) from None


def _parse_at(spec: str, flag: str) -> tuple[int, float]:
    """Parse an ``ID@SECONDS`` spec (e.g. ``--kill-shard 2@0.6``),
    naming the exact bad token on failure."""
    ident, sep, at_s = spec.partition("@")
    if not sep or not ident or not at_s:
        raise ValueError(f"{flag} expects ID@SECONDS, got {spec!r}")
    return (
        _parse_int(ident, "id", flag, spec),
        _parse_time(at_s, flag, spec),
    )


def _parse_span(token: str, flag: str, spec: str) -> tuple[float, float]:
    start, sep, stop = token.partition(":")
    if not sep or not start or not stop:
        raise ValueError(
            f"{flag} expects a START:STOP window in seconds, got {spec!r}"
        )
    return (
        _parse_time(start, flag, spec),
        _parse_time(stop, flag, spec),
    )


def _parse_partition(spec: str, flag: str = "--partition") -> dict:
    """Parse ``SHARDS@START:STOP`` (e.g. ``1,2@0.2:0.35``)."""
    shards, sep, window = spec.partition("@")
    if not sep or not shards or not window:
        raise ValueError(f"{flag} expects SHARDS@START:STOP, got {spec!r}")
    shard_ids = [
        _parse_int(token, "shard id", flag, spec)
        for token in shards.split(",")
        if token != ""
    ]
    if not shard_ids:
        raise ValueError(f"{flag} names no shards in {spec!r}")
    start_s, stop_s = _parse_span(window, flag, spec)
    return {"start_s": start_s, "stop_s": stop_s, "shard_ids": shard_ids}


def _parse_gray(spec: str) -> dict:
    """Parse ``ID@START:STOP`` (e.g. ``--gray-shard 1@0.2:0.4``)."""
    flag = "--gray-shard"
    ident, sep, window = spec.partition("@")
    if not sep or not ident or not window:
        raise ValueError(f"{flag} expects ID@START:STOP, got {spec!r}")
    start_s, stop_s = _parse_span(window, flag, spec)
    return {
        "shard_id": _parse_int(ident, "shard id", flag, spec),
        "start_s": start_s,
        "stop_s": stop_s,
    }


def _parse_kill(spec: str) -> dict:
    shard_id, at_s = _parse_at(spec, "--kill-shard")
    return {"shard_id": shard_id, "at_s": at_s}


def _parse_migration(spec: str) -> dict:
    session_id, at_s = _parse_at(spec, "--migrate")
    return {"at_s": at_s, "session_id": session_id}


#: Flag -> :class:`~repro.serve.fleet.FleetConfig` field.
FLAGS = (
    Flag("--sessions", "serve.n_sessions", int,
         help="fleet-total session count"),
    Flag("--shards", "n_shards", int),
    Flag("--duration", "serve.duration_s", help="simulated window in seconds"),
    Flag("--fps", "serve.fps", help="per-session frame rate"),
    Flag("--workers", "serve.n_workers", int, help="workers PER SHARD"),
    Flag("--max-batch", "serve.max_batch", int),
    Flag("--queue-budget", "serve.queue_budget_deadlines",
         help="admission budget in units of the frame deadline"),
    Flag("--reuse-displacement", "serve.reuse_displacement_deg",
         help="Algorithm-1 reuse threshold in degrees"),
    Flag("--seed", "serve.seed", int),
    Flag("--vnodes", "vnodes", int,
         help="virtual nodes per shard on the hash ring"),
    Flag("--ring-seed", "ring_seed", int),
    Flag("--kill-shard", "kills", parse=_parse_kill, metavar="ID@T",
         help="kill shard ID at T seconds (repeatable)"),
    Flag("--migrate", "migrations", parse=_parse_migration, metavar="SID@T",
         help="live-migrate session SID at T seconds "
         "(repeatable; ring picks the target)"),
    Flag("--migration-rate", "migration_rate_hz",
         help="seeded random migrations per second"),
    Flag("--migration-seed", "migration_seed", int),
    Flag("--rebalance-interval", "rebalancer.interval_s",
         help="rebalancer tick period in seconds (0 disables)"),
    Flag("--rebalance-high-ms", "rebalancer.p95_high_s", scale=1e-3,
         help="P95 queue wait above which a shard is hot"),
    Flag("--rebalance-low-ms", "rebalancer.p95_low_s", scale=1e-3,
         help="P95 queue wait below which the fleet may shrink"),
    Flag("--guard", "failover.guard_s",
         help="breaker-guarded window after a re-home, seconds"),
)
NET_FLAGS = (
    Flag("--net", "net.enabled", bool,
         help="route frames over the simulated transport"),
    Flag("--net-seed", "net.seed", int),
    Flag("--net-drop", "net.link.drop_rate", metavar="P",
         help="per-message drop probability"),
    Flag("--net-dup", "net.link.dup_rate", metavar="P",
         help="per-message duplication probability"),
    Flag("--net-delay-ms", "net.link.delay_s", scale=1e-3,
         help="base one-way link delay"),
    Flag("--net-jitter-ms", "net.link.jitter_s", scale=1e-3,
         help="uniform extra delay (reordering source)"),
    Flag("--net-ack-timeout-ms", "net.ack_timeout_s", scale=1e-3,
         help="first retransmit timeout"),
    Flag("--net-max-retransmits", "net.max_retransmits", int),
    Flag("--net-backoff", "net.backoff_factor",
         help="exponential backoff factor between retransmits"),
    Flag("--net-heartbeat-ms", "net.heartbeat_s", scale=1e-3,
         help="shard heartbeat period"),
    Flag("--net-detect-ms", "net.detect_every_s", scale=1e-3,
         help="failure-detector evaluation period"),
    Flag("--net-phi", "net.phi_threshold",
         help="suspicion threshold in heartbeat intervals"),
    Flag("--partition", "net.partitions", parse=_parse_partition,
         metavar="SHARDS@T1:T2",
         help="cut shards off the router for [T1,T2) "
         "(e.g. 1,2@0.2:0.35; repeatable)"),
    Flag("--gray-shard", "net.gray", parse=_parse_gray, metavar="ID@T1:T2",
         help="gray failure: shard alive but slow for [T1,T2) (repeatable)"),
    Flag("--gray-factor", None, help="delay multiplier of gray-slow windows"),
    Flag("--net-on-exhaust", "net.on_exhaust", str, choices=ON_EXHAUST_POLICIES,
         help="what the router does with a frame whose "
         "retransmits are exhausted"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro fleet",
        description="Simulate a sharded serving fleet with consistent-hash "
        "routing, live migration, and shard failover.",
    )
    add_flags(parser, FLAGS)
    group = parser.add_argument_group(
        "net transport",
        "simulated lossy router<->shard network (any --partition or "
        "--gray-shard implies --net)",
    )
    add_flags(group, NET_FLAGS)
    parser.add_argument("--compare-no-kill", action="store_true",
                        help="also run the same fleet without the chaos "
                        "schedule and print both reports")
    parser.add_argument("--compare-no-fault", action="store_true",
                        help="also run the same fleet over a CLEAN network "
                        "(transport protocol on, faults and kills off) and "
                        "print both reports")
    add_serving_arguments(parser)
    return parser


def _net_params(args: argparse.Namespace, params: dict) -> None:
    """``--gray-factor`` sets every gray window's delay factor, and any
    partition or gray window implies ``--net``."""
    net = params.get("net", {})
    if args.gray_factor is not None:
        for window in net.get("gray", []):
            window["delay_factor"] = args.gray_factor
    if net.get("partitions") or net.get("gray"):
        net["enabled"] = True


def _check(args: argparse.Namespace, config) -> None:
    if args.compare_no_fault and not config.net.enabled:
        raise ValueError("--compare-no-fault requires the net transport "
                         "(--net, --partition, or --gray-shard)")


def _compare(args, runtime, report) -> None:
    config = runtime.config
    if args.compare_no_kill:
        baseline = run_fleet(replace(config, kills=()))
        print("\n--- no-kill baseline (same fleet, no chaos schedule) ---\n")
        print(
            format_fleet_report(
                baseline, max_session_rows=args.max_session_rows
            )
        )
        print(
            f"\nFailover cost: goodput {report.predict_goodput_fps:.0f} vs "
            f"{baseline.predict_goodput_fps:.0f} fresh predictions/s, "
            f"{report.lost_shard_frames} frames lost with killed shards "
            f"(baseline {baseline.lost_shard_frames})"
        )
    if args.compare_no_fault:
        clean_net = replace(
            config.net,
            link=LinkProfile(delay_s=config.net.link.delay_s),
            partitions=(),
            gray=(),
        )
        baseline = run_fleet(replace(config, kills=(), net=clean_net))
        print("\n--- clean-network baseline (same fleet + protocol, "
              "no faults) ---\n")
        print(
            format_fleet_report(
                baseline, max_session_rows=args.max_session_rows
            )
        )
        faulted = report.net.counters
        clean = baseline.net.counters
        print(
            f"\nFault cost: goodput {report.predict_goodput_fps:.0f} vs "
            f"{baseline.predict_goodput_fps:.0f} fresh predictions/s | "
            f"retransmits {faulted['retransmits']} vs "
            f"{clean['retransmits']} | degraded+lost "
            f"{faulted['exhausted_degraded'] + faulted['exhausted_lost']} "
            f"vs {clean['exhausted_degraded'] + clean['exhausted_lost']} | "
            f"{report.lost_shard_frames} frames died with killed shards "
            f"(baseline {baseline.lost_shard_frames})"
        )


def main(argv: "list[str] | None" = None) -> int:
    return run_serving_cli(
        "fleet", build_parser(), FLAGS + NET_FLAGS, argv,
        params_hook=_net_params, check=_check, compare=_compare,
    )


if __name__ == "__main__":
    raise SystemExit(main())
