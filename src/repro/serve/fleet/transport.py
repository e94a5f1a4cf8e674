"""Deterministic lossy transport between the fleet router and its shards.

Without this module the fleet routes predict frames to shards over an
implicit perfect channel and fails shards only through the omniscient
``ShardKill`` control event.  With ``NetConfig.enabled`` each predict
frame (the headset serves saccade and reuse frames itself) instead
travels as a sequence-numbered envelope over a simulated hub-and-spoke
network (router <-> shard links) that can drop, duplicate,
delay/reorder, partition (:class:`~repro.faults.netfaults.PartitionWindow`)
and gray-slow (:class:`~repro.faults.netfaults.GraySlow`) messages — and
the fleet keeps its two core guarantees anyway:

* **exactly-once application** — ack/timeout/retransmit with exponential
  backoff re-sends unacked envelopes; a per-fleet applied-sequence
  registry dedupes every extra copy (link duplicates *and*
  retransmissions whose ack was lost) before it reaches a shard, so the
  frame-conservation ledger still closes exactly: every predict frame
  is completed once, degraded once, or accounted lost.
* **detection-driven failover** — shards emit heartbeats over the same
  lossy links; a phi-accrual-style detector (elapsed silence over an EMA
  of observed heartbeat intervals) *suspects* silent shards and only
  then re-homes their sessions.  A kill is discovered, never announced.
  False suspicions (partition, gray-slow shard) bounce back: the shard's
  next heartbeat heals it, rejoins it to the ring, and returns the
  sessions the ring still assigns to it, with the existing re-home
  breaker guarding both directions against stampedes.

Determinism and recovery: every random decision is a pure SHA-256 hash
of ``(seed, purpose, shard, seq, attempt[, dup])`` — there is no RNG
state to checkpoint — and the protocol state (pending envelopes, applied /
exhausted registries, detector estimates, displaced sessions, counters)
is the transport's dataclass fields, which round-trip through the typed
codec (``state_dict()`` / ``load_state()``) so a checkpoint taken
mid-partition restores byte-identically.

The transport owns protocol *state and policy*; the
:class:`~repro.serve.fleet.runtime.FleetRuntime` owns the event heap and
topology, dispatching the negative control-event kinds below to
:meth:`FleetTransport.handle`.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

from repro.faults.netfaults import GraySlow, LinkProfile, PartitionWindow
from repro.obs import NULL_OBS, PID_NET
from repro.recover.configio import decode_into, encode
from repro.utils.validation import check_positive

# Net control-event kinds.  Negative so the write-ahead journal encoding
# stays disjoint from both the classic control kinds (1..3) and the
# shard-event encoding ((shard_id + 1) * stride + kind >= 4).
K_NET_SEND = -1        #: a predict frame enters the router (payload: its seq)
K_NET_DELIVER = -2     #: a data copy reaches its shard
K_NET_ACK = -3         #: an ack reaches the router
K_NET_RETRY = -4       #: retransmit timer for one sequence number
K_NET_HEARTBEAT = -5   #: a shard emits a heartbeat
K_NET_HB_DELIVER = -6  #: a heartbeat reaches the detector
K_NET_DETECT = -7      #: periodic failure-detector evaluation

#: Exhaustion policies: degrade the frame at the router (serve it from
#: the buffered gaze, the client-side fallback) or account it lost.
ON_EXHAUST_POLICIES = ("degrade", "drop")


@dataclass(frozen=True)
class NetConfig:
    """Knobs of the simulated router<->shard network and its protocol."""

    enabled: bool = False
    seed: int = 0
    link: LinkProfile = field(default_factory=LinkProfile)
    partitions: tuple[PartitionWindow, ...] = ()
    gray: tuple[GraySlow, ...] = ()
    #: First retransmit timeout; attempt ``k`` waits
    #: ``ack_timeout_s * backoff_factor**k``.
    ack_timeout_s: float = 5e-3
    backoff_factor: float = 2.0
    max_retransmits: int = 5
    #: Heartbeat emission period per shard.
    heartbeat_s: float = 0.02
    #: Failure-detector evaluation period.
    detect_every_s: float = 0.01
    #: Suspect a shard when its silence exceeds ``phi_threshold`` times
    #: the EMA of its observed heartbeat intervals.
    phi_threshold: float = 4.0
    on_exhaust: str = "degrade"

    def __post_init__(self) -> None:
        check_positive("ack_timeout_s", self.ack_timeout_s)
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_retransmits < 0:
            raise ValueError(
                f"max_retransmits must be >= 0, got {self.max_retransmits}"
            )
        check_positive("heartbeat_s", self.heartbeat_s)
        check_positive("detect_every_s", self.detect_every_s)
        check_positive("phi_threshold", self.phi_threshold)
        if self.on_exhaust not in ON_EXHAUST_POLICIES:
            raise ValueError(
                f"on_exhaust must be one of {ON_EXHAUST_POLICIES}, "
                f"got {self.on_exhaust!r}"
            )


#: Counter keys, fixed so reports and snapshots enumerate them stably.
COUNTER_NAMES = (
    "data_sent",          # every data transmission (first sends + retransmits)
    "retransmits",
    "dup_injected",       # duplicate copies the link created
    "acks_sent",
    "heartbeats_sent",
    "data_dropped",       # data copies lost to drop draws or partitions
    "acks_dropped",
    "heartbeats_dropped",
    "frames_applied",     # unique sequence numbers applied to a shard
    "frames_deduped",     # extra copies discarded by the applied registry
    "dead_letters",       # copies delivered to a dead shard
    "late_discards",      # copies arriving after their seq was exhausted
    "acked",
    "ack_lost_gaveup",    # retries exhausted but the frame was applied
    "exhausted_degraded",
    "exhausted_lost",
    "suspected",
    "false_suspects",
    "heals",
    "heal_bounce_sessions",
)


def _unit(seed: int, *key) -> float:
    """Deterministic uniform draw in ``[0, 1)`` keyed by the message.

    A pure function of ``(seed, key)`` — the transport carries no RNG
    state, which is what keeps mid-partition checkpoints byte-identical.
    """
    token = ":".join(map(str, ("net", seed, *key)))
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


_unpack_u64 = struct.Struct(">Q").unpack_from
#: ``x * 2**-64 == x / 2**64`` exactly: scaling by a power of two only
#: shifts the exponent.
_INV_2_64 = 2.0**-64


@dataclass(init=False, eq=False, repr=False)
class FleetTransport:
    """Protocol state machine of the lossy router<->shard channel.

    Its dataclass fields are the protocol state it checkpoints.
    """

    #: seq -> attempt number of the envelope awaiting an ack.
    pending: dict[int, int]
    #: Sequence numbers applied to some shard exactly once.
    applied: set[int]
    #: Sequence numbers the router gave up on (degraded/lost).
    exhausted: set[int]
    #: Shards currently suspected by the failure detector.
    suspected: set[int]
    #: shard -> sim time of its last delivered heartbeat (0.0 = start).
    last_seen: dict[int, float]
    #: shard -> EMA of observed heartbeat intervals.
    mean_interval: dict[int, float]
    #: session -> the suspected shard it was displaced from.
    displaced: dict[int, int]
    #: Detector transitions: {"at_s","shard","kind","phi","dead"}.
    transitions: list[dict]
    #: Kill-to-suspicion latencies of real (dead-shard) failovers.
    detect_latencies: list[float]
    counters: dict[str, int]

    def __init__(self, config: NetConfig, obs=None):
        self.config = config
        self.obs = obs if obs is not None else NULL_OBS
        #: Every draw hashes ``_prefix + tail``: the same bytes as
        #: ``_unit(seed, *key)`` when ``tail == ":".join(map(str, key))``.
        self._prefix = f"net:{config.seed}:"
        #: shard -> its partition ``(start_s, stop_s)`` windows, and its
        #: gray ``(start_s, stop_s, delay_factor)`` windows in config
        #: order (the order their factors multiply in).
        self._partitions: dict[int, list[tuple[float, float]]] = {}
        for window in config.partitions:
            for shard_id in window.shard_ids:
                self._partitions.setdefault(int(shard_id), []).append(
                    (window.start_s, window.stop_s)
                )
        self._gray: dict[int, list[tuple[float, float, float]]] = {}
        for window in config.gray:
            self._gray.setdefault(int(window.shard_id), []).append(
                (window.start_s, window.stop_s, window.delay_factor)
            )
        self.pending = {}
        self.applied = set()
        self.exhausted = set()
        self.suspected = set()
        self.last_seen = {}
        self.mean_interval = {}
        self.displaced = {}
        self.transitions = []
        self.detect_latencies = []
        self.counters = {name: 0 for name in COUNTER_NAMES}

    # ------------------------------------------------------------------
    # Channel model
    # ------------------------------------------------------------------
    def register_shard(self, shard_id: int) -> None:
        """Start monitoring a shard (its start counts as a heartbeat)."""
        self.last_seen[shard_id] = 0.0
        self.mean_interval[shard_id] = self.config.heartbeat_s

    def partitioned(self, shard_id: int, t: float) -> bool:
        for start_s, stop_s in self._partitions.get(shard_id, ()):
            if start_s <= t < stop_s:
                return True
        return False

    def _gray_factor(self, shard_id: int, t: float) -> float:
        factor = 1.0
        for start_s, stop_s, delay_factor in self._gray.get(shard_id, ()):
            if start_s <= t < stop_s:
                factor *= delay_factor
        return factor

    def _draw(self, tail: str) -> float:
        """``_unit(seed, *key)`` for ``tail == ":".join(map(str, key))``."""
        digest = hashlib.sha256((self._prefix + tail).encode()).digest()
        return _unpack_u64(digest)[0] * _INV_2_64

    def _delay(self, shard_id: int, t: float, tail: str) -> float:
        link = self.config.link
        jitter = link.jitter_s * self._draw(tail) if link.jitter_s > 0 else 0.0
        return (link.delay_s + jitter) * self._gray_factor(shard_id, t)

    def _dropped(self, shard_id: int, t: float, tail: str) -> bool:
        if self.partitioned(shard_id, t):
            return True
        rate = self.config.link.drop_rate
        return rate > 0 and self._draw(tail) < rate

    # ------------------------------------------------------------------
    # Obs plumbing
    # ------------------------------------------------------------------
    def _instant(self, name: str, now: float, args: dict) -> None:
        if self.obs.enabled:
            self.obs.tracer.instant(
                name, now, cat="net", pid=PID_NET, args=args
            )

    def _count(self, metric: str, n: int = 1) -> None:
        if self.obs.enabled:
            self.obs.metrics.counter(metric).inc(n)

    # ------------------------------------------------------------------
    # Event handlers (dispatched by FleetRuntime.step)
    # ------------------------------------------------------------------
    def handle(self, fleet, kind: int, payload, now: float) -> None:
        if kind == K_NET_SEND:
            self._transmit(fleet, payload, 0, now)
        elif kind == K_NET_DELIVER:
            self._on_deliver(fleet, payload, now)
        elif kind == K_NET_ACK:
            self._on_ack(payload, now)
        elif kind == K_NET_RETRY:
            self._on_retry(fleet, payload, now)
        elif kind == K_NET_HEARTBEAT:
            self._on_heartbeat(fleet, payload, now)
        elif kind == K_NET_HB_DELIVER:
            self._on_hb_deliver(fleet, payload, now)
        elif kind == K_NET_DETECT:
            self._on_detect(fleet, now)
        else:  # pragma: no cover - guarded by the kind<0 dispatch
            raise ValueError(f"unknown net event kind {kind}")

    def _transmit(self, fleet, seq: int, attempt: int, now: float) -> None:
        """Send one envelope copy toward the session's *current* shard.

        Retransmissions re-resolve the target, which is how in-flight
        frames of a re-homed session reroute to the surviving shard.
        """
        shard_id = fleet._session_shard[fleet._requests[seq].session_id]
        self.pending[seq] = attempt
        self.counters["data_sent"] += 1
        timeout = (
            self.config.ack_timeout_s * self.config.backoff_factor**attempt
        )
        fleet._push_control(now + timeout, K_NET_RETRY, {"seq": seq})
        tail = f"{shard_id}:{seq}:{attempt}"
        if self._dropped(shard_id, now, "drop:" + tail):
            self.counters["data_dropped"] += 1
            self._instant(
                "net.drop", now,
                {"seq": seq, "shard": shard_id, "attempt": attempt},
            )
            self._count("net_data_dropped_total")
            return
        delay = self._delay(shard_id, now, "delay:" + tail)
        envelope = {"seq": seq, "shard": shard_id, "attempt": attempt,
                    "dup": 0}
        fleet._push_control(now + delay, K_NET_DELIVER, envelope)
        dup_rate = self.config.link.dup_rate
        if dup_rate > 0 and self._draw("dup:" + tail) < dup_rate:
            self.counters["dup_injected"] += 1
            dup_delay = self._delay(shard_id, now, "dupdelay:" + tail)
            fleet._push_control(
                now + dup_delay, K_NET_DELIVER, {**envelope, "dup": 1}
            )
            self._instant(
                "net.dup_injected", now, {"seq": seq, "shard": shard_id}
            )
            self._count("net_dup_injected_total")

    def _on_deliver(self, fleet, payload: dict, now: float) -> None:
        """One data copy reaches its shard: apply exactly once."""
        seq = payload["seq"]
        shard_id = payload["shard"]
        shard = fleet.shards[shard_id]
        if not shard.alive:
            self.counters["dead_letters"] += 1
            return
        if seq in self.exhausted:
            # The router already resolved this frame (degraded or lost);
            # applying a late copy would double-account it.
            self.counters["late_discards"] += 1
            self._instant(
                "net.late_discard", now, {"seq": seq, "shard": shard_id}
            )
            return
        if seq in self.applied:
            self.counters["frames_deduped"] += 1
            self._instant(
                "net.dedupe", now,
                {"seq": seq, "shard": shard_id, "dup": payload["dup"]},
            )
            self._count("net_frames_deduped_total")
            # Re-ack so a lost first ack stops triggering retransmits.
            self._send_ack(fleet, shard_id, seq, payload, now)
            return
        self.applied.add(seq)
        self.counters["frames_applied"] += 1
        request = fleet._requests[seq]
        shard._on_arrival(request, now)
        if request.session_id not in shard._members:
            fleet._track_stragglers(shard)  # its session has moved on
        self._send_ack(fleet, shard_id, seq, payload, now)

    def _send_ack(
        self, fleet, shard_id: int, seq: int, payload: dict, now: float
    ) -> None:
        self.counters["acks_sent"] += 1
        tail = f"{shard_id}:{seq}:{payload['attempt']}:{payload['dup']}"
        if self._dropped(shard_id, now, "ackdrop:" + tail):
            self.counters["acks_dropped"] += 1
            self._count("net_acks_dropped_total")
            return
        delay = self._delay(shard_id, now, "ackdelay:" + tail)
        fleet._push_control(now + delay, K_NET_ACK, {"seq": seq})

    def _on_ack(self, payload: dict, now: float) -> None:
        if self.pending.pop(payload["seq"], None) is not None:
            self.counters["acked"] += 1

    def _on_retry(self, fleet, payload: dict, now: float) -> None:
        """Retransmit timer: back off and re-send, or give up."""
        seq = payload["seq"]
        attempt = self.pending.get(seq)
        if attempt is None:
            return  # acked (or resolved) before the timer fired
        attempt += 1
        if attempt > self.config.max_retransmits:
            del self.pending[seq]
            if seq in self.applied:
                # Applied but every ack was lost: the frame is fine, the
                # router just stops asking.
                self.counters["ack_lost_gaveup"] += 1
                return
            self.exhausted.add(seq)
            fleet._net_exhaust(seq, now)
            return
        self.counters["retransmits"] += 1
        self._instant(
            "net.retransmit", now, {"seq": seq, "attempt": attempt}
        )
        self._count("net_retransmits_total")
        self._transmit(fleet, seq, attempt, now)

    def _on_heartbeat(self, fleet, payload: dict, now: float) -> None:
        shard_id = int(payload["shard"])
        if not fleet.shards[shard_id].alive:
            return  # dead shards are silent — that IS the failure signal
        self.counters["heartbeats_sent"] += 1
        tail = f"{shard_id}:{payload['i']}"
        if self._dropped(shard_id, now, "hbdrop:" + tail):
            self.counters["heartbeats_dropped"] += 1
            return
        delay = self._delay(shard_id, now, "hbdelay:" + tail)
        fleet._push_control(
            now + delay, K_NET_HB_DELIVER, {"shard": shard_id}
        )

    def _on_hb_deliver(self, fleet, payload: dict, now: float) -> None:
        shard_id = int(payload["shard"])
        last = self.last_seen.get(shard_id, 0.0)
        interval = now - last
        if interval > 0:
            mean = self.mean_interval.get(shard_id, self.config.heartbeat_s)
            self.mean_interval[shard_id] = 0.8 * mean + 0.2 * interval
        self.last_seen[shard_id] = now
        if shard_id in self.suspected:
            fleet._net_heal(shard_id, now)

    def _on_detect(self, fleet, now: float) -> None:
        """Periodic phi evaluation over every monitored shard."""
        for shard_id in sorted(self.last_seen):
            if shard_id in self.suspected:
                continue
            if fleet.shards[shard_id].retired_at_s is not None:
                continue
            mean = max(
                self.mean_interval.get(shard_id, self.config.heartbeat_s),
                1e-9,
            )
            phi = (now - self.last_seen[shard_id]) / mean
            if phi >= self.config.phi_threshold:
                fleet._net_suspect(shard_id, phi, now)

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.recover)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return encode(self)

    def load_state(self, state: dict, path: str = "") -> None:
        decode_into(self, state, path)
