"""Fault-aware serving loop: injection, recovery, graceful degradation.

:class:`ChaosRuntime` extends the deterministic discrete-event loop of
:class:`repro.serve.runtime.ServeRuntime` with the full fault model:

* **Input faults** — each session's oculomotor trace is pre-faulted by
  :func:`repro.faults.injectors.inject_input_faults`; dropped frames are
  accounted as lost input (never silently vanished), MIPI-corrupted
  frames arrive late by one retransmission, occlusion-blinded frames are
  degraded to buffered-gaze reuse.
* **Serving faults + recovery** — dispatches go through a
  :class:`~repro.serve.workers.FaultyWorkerPool`, whose per-worker circuit
  breakers evict flapping workers until a cooldown + half-open probe
  re-admits them; a failed batch's frames are re-queued with exponential
  backoff, or degraded instead when the retry could not beat the frame's
  deadline.
* **Tracking-quality watchdog** — one
  :class:`~repro.system.watchdog.TrackingWatchdog` per session monitors
  realized error/confidence and walks the degradation ladder: widen the
  foveal radius (Eq. 1), stop trusting fresh predictions, fall back to
  full-resolution rendering; recovery is hysteretic.

Input faults are set-up: only delivered predict frames and retries are
ARRIVALs.  The SDC guard and the watchdog are per-session state, stepped
in each session's arrival order: a backlog frame when the backlog is
recorded, a predict frame at its ARRIVAL.  An SLO page that widens every
watchdog lands where the base loop evaluates the SLO, after every frame
before it.  A seed reproduces bit-identical fault/degradation telemetry.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.faults.config import ChaosConfig
from repro.faults.injectors import (
    OCCLUSION_BLIND_OPENNESS,
    InputFaultTrace,
    inject_input_faults,
)
from repro.obs import Obs, PID_RELIABILITY, PID_WORKERS, session_pid
from repro.recover.configio import decode, encode
from repro.reliability.guard import GazeVerdict, PlausibilityConfig, PlausibilityGuard
from repro.reliability.softerror import FaultSite, SoftErrorEvent, SoftErrorModel
from repro.serve.config import BatchServiceModel
from repro.serve.request import BypassFrames, ClientSession, FrameRequest
from repro.serve.request import build_fleet, fleet_requests
from repro.serve.runtime import _ARRIVAL, InferenceFn, ServeRuntime
from repro.serve.telemetry import FaultReport, FleetReport
from repro.serve.workers import FaultyWorkerPool, WorkerState
from repro.system.session import SessionConfig, decide_paths
from repro.system.watchdog import DegradationLevel, TrackingWatchdog

#: Per-session sub-seed strides (distinct odd primes keep the fault and
#: error streams independent of each other and of the oculomotor seeds).
_FAULT_SEED_STRIDE = 9176
_ERROR_SEED_STRIDE = 7919

#: Gaze deviation (degrees) beyond which an uncaught corruption counts
#: as silent data corruption — just above the INT8 quantization grid.
SDC_THRESHOLD_DEG = 0.05


def build_chaos_fleet(
    config: ChaosConfig,
) -> tuple[list[ClientSession], list[InputFaultTrace]]:
    """The serve fleet with input faults layered onto every session.

    Starts from the *same* clean fleet ``build_fleet`` would produce for
    the serve config (so fault-free comparisons replay identical
    behaviour), then perturbs each track and recomputes its Algorithm-1
    decisions — noisy gaze breaks reuse anchors exactly the way real
    tracking noise does.  A session's backlog holds, in arrival order,
    its saccade and reuse frames and every ``"dropped"`` frame and
    ``"retransmit"`` CRC failure, both at capture; a retransmitted frame
    arrives late, after any on-time frame of that instant.
    """
    clean = build_fleet(config.serve)
    session_config = SessionConfig(
        reuse_displacement_deg=config.serve.reuse_displacement_deg,
        post_saccade_low_res=config.serve.post_saccade_low_res,
    )
    fleet, traces = [], []
    for session in clean:
        faulted, trace = inject_input_faults(
            session.track,
            config.input_faults,
            seed=config.fault_seed * _FAULT_SEED_STRIDE + session.session_id,
        )
        chaos_session = ClientSession(
            session_id=session.session_id,
            track=faulted,
            decisions=decide_paths(faulted, session_config),
            start_s=session.start_s,
        )
        late = trace.retransmit_s.tolist()
        backlog = []
        for f, (t, path) in enumerate(
            zip(session.arrivals.tolist(), chaos_session.decisions)
        ):
            if trace.dropped[f]:
                backlog.append((t, False, f, "dropped"))
                continue
            if late[f]:
                backlog.append((t, False, f, "retransmit"))
            if path != "predict":
                backlog.append((t + late[f], late[f] > 0, f, path))
        backlog.sort()
        chaos_session.bypass = BypassFrames(
            [entry[2] for entry in backlog],
            [entry[0] for entry in backlog],
            [entry[3] for entry in backlog],
        )
        fleet.append(chaos_session)
        traces.append(trace)
    return fleet, traces


class ChaosRuntime(ServeRuntime):
    """One chaos scenario: faulted fleet, faulty pool, recovery stack."""

    def __init__(
        self,
        chaos: ChaosConfig,
        service: "BatchServiceModel | None" = None,
        inference: "InferenceFn | None" = None,
        obs: "Obs | None" = None,
    ):
        fleet, traces = build_chaos_fleet(chaos)
        service = service if service is not None else BatchServiceModel()
        pool = FaultyWorkerPool(
            chaos.serve.n_workers,
            service,
            schedule=chaos.worker_faults,
            stall_timeout_s=chaos.recovery.dispatch_timeout_s,
            breaker_threshold=chaos.recovery.breaker_threshold,
            breaker_cooldown_s=chaos.recovery.breaker_cooldown_s,
        )
        super().__init__(
            chaos.serve, service=service, inference=inference, fleet=fleet,
            obs=obs, pool=pool,
        )
        self.chaos = chaos
        self.traces = traces
        self.watchdogs = [
            TrackingWatchdog(
                chaos.profile,
                chaos.watchdog,
                start_s=s.start_s,
                on_transition=self._watchdog_hook(s.session_id),
            )
            for s in self.fleet
        ]
        self.faults = FaultReport()
        # Per-session realized tracking error of the healthy tracker: a
        # half-normal stream whose P95 equals the profile's delta-theta.
        scale = chaos.profile.delta_theta_deg / 1.96
        self.base_error = [
            np.abs(
                np.random.default_rng(
                    chaos.fault_seed * _ERROR_SEED_STRIDE + s.session_id
                ).normal(0.0, scale, size=s.n_frames)
            )
            for s in self.fleet
        ]
        #: Backlog entries recorded so far, per session.
        self._cursors = [0] * len(self.fleet)
        # Silicon soft errors (repro.reliability): one seeded schedule
        # over the whole window, events dealt round-robin onto sessions
        # and consumed by each session's next predict-path frame (SRAM
        # corruption persists until the datapath fetches it).
        self._sdc_queues: list[list[tuple[int, SoftErrorEvent]]] = [
            [] for _ in self.fleet
        ]
        self._sdc_next: list[int] = [0] * len(self.fleet)
        self._sdc_persistent = [np.zeros(2) for _ in self.fleet]
        self._guard_last_frame: list["int | None"] = [None] * len(self.fleet)
        self.guards: "list[PlausibilityGuard] | None" = None
        if chaos.soft_errors.active:
            self.guards = [
                PlausibilityGuard(PlausibilityConfig(fps=chaos.serve.fps))
                for _ in self.fleet
            ]
            schedule = SoftErrorModel(chaos.soft_errors).schedule(
                chaos.serve.duration_s
            )
            for index, event in enumerate(schedule):
                sid = index % len(self.fleet)
                session = self.fleet[sid]
                frame = int((event.t_s - session.start_s) * chaos.serve.fps)
                frame = min(max(frame, 0), session.n_frames - 1)
                self._sdc_queues[sid].append((frame, event))
            for queue in self._sdc_queues:
                queue.sort(key=lambda item: item[0])

    # ------------------------------------------------------------------
    # SLO coupling: a paging latency budget widens the fovea
    # ------------------------------------------------------------------
    def attach_slo(self, engine) -> None:
        """Attach an SLO engine and wire its PAGE action to the ladder:
        an objective with ``on_page: "widen"`` escalates every session's
        watchdog to WIDENED — the Eq. 1 foveal-radius widening path —
        the moment the error budget pages."""
        super().attach_slo(engine)
        engine.on_page = self._slo_page_hook

    def _slo_page_hook(self, objective, now_s: float) -> None:
        if objective.on_page != "widen":
            return
        for watchdog in self.watchdogs:
            watchdog.escalate(now_s, DegradationLevel.WIDENED)

    # ------------------------------------------------------------------
    # Observability hooks (no-ops unless ``obs`` is enabled)
    # ------------------------------------------------------------------
    def _watchdog_hook(self, session_id: int):
        """Per-session ``on_transition`` callback emitting trace instants
        (``watchdog.NOMINAL->WIDENED`` style) + a transition counter."""
        if not self.obs.enabled:
            return None

        def hook(now_s: float, src: str, dst: str) -> None:
            self.obs.tracer.instant(
                f"watchdog.{src}->{dst}", now_s, cat="watchdog",
                pid=session_pid(session_id),
                args={"from": src, "to": dst},
            )
            self.obs.metrics.counter(
                "watchdog_transitions_total",
                help="Watchdog degradation-ladder transitions.",
                to=dst,
            ).inc()

        return hook

    # ------------------------------------------------------------------
    # Silicon soft errors + SDC guard (repro.reliability)
    # ------------------------------------------------------------------
    def _sdc_offset(self, event: SoftErrorEvent) -> np.ndarray:
        """Gaze-space corruption of one upset.

        Magnitude follows the flipped bit's weight on the INT8 activation
        grid (``2^bit`` codes — low bits are sub-threshold nudges, high
        bits are wild jumps); direction is a deterministic function of
        the bit offset so repeated events spread over angles."""
        assert self.guards is not None
        config = self.guards[0].config
        code_scale = config.field_deg / 2.0 / 127.0
        magnitude = float(1 << (event.bit_offset % 8)) * code_scale
        theta = math.radians(event.bit_offset % 360)
        return magnitude * np.array([math.cos(theta), math.sin(theta)])

    def _sdc_obs(self, sid: int, frame: int, now: float, outcome: str) -> None:
        if not self.obs.enabled:
            return
        self.obs.tracer.instant(
            f"sdc.{outcome}", now, cat="reliability", pid=PID_RELIABILITY,
            args={"session": sid, "frame": frame},
        )
        self.obs.metrics.counter(
            "sdc_outcomes_total",
            help="SDC-guard outcomes for soft-error-affected frames.",
            outcome=outcome,
        ).inc()

    def _sdc_layer(
        self, path: str, sid: int, i: int, now: float, blind: bool
    ) -> tuple[float, bool]:
        """Apply pending upsets to this frame's tracker output and gate
        it through the plausibility guard.

        Returns ``(extra_error_deg, degrade)``: the residual gaze
        deviation an *escaped* corruption adds to the realized tracking
        error (which the watchdog then observes — escaped SDC widens the
        foveal radius exactly like any other tracking error), and
        whether the guard fell back to gaze reuse for this frame.
        """
        assert self.guards is not None
        guard = self.guards[sid]
        gaze = np.asarray(self.fleet[sid].track.gaze_deg[i], dtype=np.float64)
        last = self._guard_last_frame[sid]
        gap = 1.0 if last is None else float(max(i - last, 1))
        if blind:
            return 0.0, False
        self._guard_last_frame[sid] = i
        if path != "predict":
            # Bypass paths reuse the buffered gaze — no datapath fetch,
            # no corruption; just keep the physiological reference warm.
            guard.check(gaze, frames=gap)
            return 0.0, False
        queue, cursor = self._sdc_queues[sid], self._sdc_next[sid]
        events: list[SoftErrorEvent] = []
        while cursor < len(queue) and queue[cursor][0] <= i:
            events.append(queue[cursor][1])
            cursor += 1
        self._sdc_next[sid] = cursor
        persistent = self._sdc_persistent[sid]
        transient = np.zeros(2)
        for event in events:
            offset = self._sdc_offset(event)
            if event.site is FaultSite.WEIGHT:
                # Weight-SRAM corruption persists until a scrub reloads
                # the store; activation/accumulator upsets are transient.
                persistent += offset
            else:
                transient += offset
            self.faults.soft_errors_injected += 1
            if self.obs.enabled:
                self.obs.tracer.instant(
                    f"sdc.flip.{event.site.value}", now, cat="reliability",
                    pid=PID_RELIABILITY,
                    args={
                        "session": sid, "frame": i,
                        "bit": event.bit_offset, "mode": event.mode.value,
                    },
                )
                self.obs.metrics.counter(
                    "sdc_soft_errors_total",
                    help="Soft errors injected into the tracker datapath.",
                    site=event.site.value,
                ).inc()
        if not events and not persistent.any():
            guard.check(gaze, frames=gap)
            return 0.0, False
        corrupted = gaze + persistent + transient
        out, verdict = guard.check(
            corrupted, recompute=lambda: gaze + persistent, frames=gap
        )
        if verdict is GazeVerdict.FALLBACK:
            self.faults.sdc_detected += 1
            self.faults.sdc_fallback_degraded += 1
            # The guard cannot localize the fault, but two implausible
            # computes in a row say state is corrupted: scrub the store.
            persistent[:] = 0.0
            self._sdc_obs(sid, i, now, "fallback")
            return 0.0, True
        if verdict is GazeVerdict.RECOMPUTED:
            self.faults.sdc_detected += 1
            self.faults.sdc_recomputed += 1
            self._sdc_obs(sid, i, now, "recomputed")
        deviation = float(np.linalg.norm(out - gaze))
        if deviation > SDC_THRESHOLD_DEG:
            self.faults.sdc_escaped += 1
            self._sdc_obs(sid, i, now, "escaped")
        return deviation, False

    # ------------------------------------------------------------------
    # Retry / backoff
    # ------------------------------------------------------------------
    def _retry_or_degrade(self, request: FrameRequest, now: float) -> None:
        recovery = self.chaos.recovery
        next_attempt = request.retries + 1
        backoff = recovery.backoff_base_s * recovery.backoff_factor**request.retries
        retry_at = now + backoff
        expected_done = retry_at + self._full_batch_s
        if next_attempt > recovery.max_retries:
            self.faults.retry_exhausted_degraded += 1
            self._degrade_now(request, now, cause="retry_exhausted")
        elif expected_done > request.deadline_s:
            # The retry cannot beat the deadline: degrade immediately —
            # a stale-but-on-time gaze beats a fresh-but-late one.
            self.faults.deadline_degraded += 1
            self._degrade_now(request, now, cause="deadline")
        else:
            self.faults.retries_scheduled += 1
            if self.obs.enabled:
                self.obs.tracer.instant(
                    "retry.scheduled", now, cat="faults",
                    pid=session_pid(request.session_id),
                    args={"frame": request.frame_index, "attempt": next_attempt},
                )
            self._push(retry_at, _ARRIVAL, replace(request, retries=next_attempt))

    # ------------------------------------------------------------------
    # Set-up and the per-frame step
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Seed the predict frames that arrive, as the backlog orders
        them (idempotent)."""
        if self._started:
            return
        arriving = []
        for request in fleet_requests(self.fleet, self._deadline_s):
            trace, i = self.traces[request.session_id], request.frame_index
            if not trace.dropped[i]:
                late = float(trace.retransmit_s[i])
                arriving.append(
                    (request.arrival_s + late, late > 0, request.seq, request)
                )
        for time_s, _, _, request in sorted(arriving):
            self._push(time_s, _ARRIVAL, request)
        self._started = True

    def _fault_step(self, sid: int, i: int, path: str, now: float) -> "str | None":
        """Frame ``i``'s SDC guard and watchdog step at its arrival
        ``now``.  Returns ``"full_res"``, a degrade cause, or None."""
        trace = self.traces[sid]
        openness = float(self.fleet[sid].track.openness[i])
        blind = openness < OCCLUSION_BLIND_OPENNESS
        if trace.noise_deg[i] > 0:
            self.faults.noise_burst_frames += 1
        if trace.occlusion[i] > 0:
            self.faults.occluded_frames += 1
        sdc_error_deg = 0.0
        if self.guards is not None:
            sdc_error_deg, degrade = self._sdc_layer(path, sid, i, now, blind)
            if degrade:
                return "sdc"
        error_deg = float(
            self.base_error[sid][i] + trace.noise_deg[i] + sdc_error_deg
        )
        confidence = openness * (0.5 if trace.corrupted[i] else 1.0)
        level = self.watchdogs[sid].observe(
            now, error_deg=None if blind else error_deg, confidence=confidence
        )
        if level is DegradationLevel.FULL_RES:
            # Tracking lost: render full-resolution — no gaze needed, the
            # frame completes without touching the serving path at all.
            self.faults.watchdog_full_res_frames += 1
            return "full_res"
        if path == "predict":
            if blind:
                self.faults.occlusion_degraded += 1
                return "occlusion"
            if level >= DegradationLevel.REUSE_ONLY:
                self.faults.watchdog_reuse_frames += 1
                return "watchdog"
        return None

    def _backlog_cursor(self, session: ClientSession) -> int:
        return self._cursors[session.session_id]

    def _record_bypass(self, session_id, frames, arrivals, paths) -> None:
        """Record backlog entries; a frame's latency counts from its
        capture, not its (retransmitted) arrival."""
        self._cursors[session_id] += len(frames)
        captured = self.fleet[session_id].arrivals
        saccade_s, reuse_s = self.config.saccade_bypass_s, self.config.reuse_bypass_s
        for frame, now, path in zip(frames, arrivals, paths):
            if path in ("dropped", "retransmit"):
                if path == "dropped":
                    self.faults.input_dropped += 1
                    self.stats[session_id].record_lost_input()
                else:
                    self.faults.mipi_corrupted_frames += 1
                if self.obs.enabled:
                    self.obs.tracer.instant(
                        f"input.{path}", now, cat="faults",
                        pid=session_pid(session_id), args={"frame": frame},
                    )
                continue
            if self._fault_step(session_id, frame, path, now) == "full_res":
                path, done = "full_res", now
            else:
                done = now + (saccade_s if path == "saccade" else reuse_s)
            self._record_frame(session_id, frame, path, float(captured[frame]), done)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------
    def _on_arrival(self, request: FrameRequest, now: float) -> None:
        if request.retries > 0:
            # A retried frame rejoining the batcher after backoff; it was
            # admitted on first arrival and is never silently dropped.
            self.batcher.requeue([request])
            self.faults.frames_requeued += 1
            self._try_dispatch(now)
            return
        sid, i = request.session_id, request.frame_index
        self._ledger_row(sid, now)  # the session's earlier frames step first
        outcome = self._fault_step(sid, i, "predict", now)
        if outcome == "full_res":
            self._record_frame(sid, i, outcome, request.arrival_s, now)
        elif outcome is not None:
            self._degrade_now(request, now, cause=outcome)
        else:
            super()._on_arrival(request, now)

    def _on_failed_batch(
        self, worker: WorkerState, batch: "list[FrameRequest]", cause: str,
        now: float,
    ) -> None:
        self.faults.batch_failures += 1
        if cause == "crash":
            self.faults.worker_crash_failures += 1
        else:
            self.faults.worker_stall_timeouts += 1
        if self.obs.enabled:
            self.obs.tracer.instant(
                f"batch.failed.{cause}", now, cat="faults",
                pid=PID_WORKERS, tid=worker.worker_id,
                args={"batch_size": len(batch)},
            )
            self.obs.metrics.counter(
                "serve_batch_failures_total",
                help="Dispatched batches that failed, by fault cause.",
                cause=cause,
            ).inc()
        for request in batch:
            self._retry_or_degrade(request, now)

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.recover)
    # ------------------------------------------------------------------
    RUNTIME_KIND = "chaos"

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["faults"] = encode(self.faults)
        state["cursors"] = list(self._cursors)
        state["watchdogs"] = [w.state_dict() for w in self.watchdogs]
        state["sdc"] = {
            "next": list(self._sdc_next),
            "persistent": [[float(x) for x in p] for p in self._sdc_persistent],
            "guard_last_frame": list(self._guard_last_frame),
            "guards": None
            if self.guards is None
            else [g.state_dict() for g in self.guards],
        }
        return state

    def load_state(self, state: dict) -> None:
        # Input-fault traces and the per-session error streams are pure
        # functions of the (seeded) config and were rebuilt by __init__;
        # only the mutable recovery-stack state needs restoring.
        super().load_state(state)
        self.faults = decode(FaultReport, state["faults"])
        self._cursors = [int(n) for n in state["cursors"]]
        if len(state["watchdogs"]) != len(self.watchdogs):
            raise ValueError("snapshot watchdog count does not match config")
        for watchdog, saved in zip(self.watchdogs, state["watchdogs"]):
            watchdog.load_state(saved)
        sdc = state["sdc"]
        self._sdc_next = [int(n) for n in sdc["next"]]
        self._sdc_persistent = [
            np.asarray(p, dtype=np.float64) for p in sdc["persistent"]
        ]
        self._guard_last_frame = [
            None if f is None else int(f) for f in sdc["guard_last_frame"]
        ]
        if sdc["guards"] is not None and self.guards is not None:
            for guard, saved in zip(self.guards, sdc["guards"]):
                guard.load_state(saved)

    # ------------------------------------------------------------------
    # Telemetry assembly
    # ------------------------------------------------------------------
    def _fault_report(self) -> FaultReport:
        end_s = max(self.config.duration_s, self._makespan_s)
        dwell: dict[str, float] = {}
        degradation: list[tuple[float, int, str, str]] = []
        widened = self.chaos.profile.delta_theta_deg
        for sid, watchdog in enumerate(self.watchdogs):
            watchdog.finalize(end_s)
            for name, seconds in watchdog.dwell_s().items():
                dwell[name] = dwell.get(name, 0.0) + seconds
            degradation.extend(
                (t, sid, src, dst) for (t, src, dst) in watchdog.transitions
            )
            widened = max(widened, watchdog.max_widened_delta_theta_deg)
        degradation.sort(key=lambda item: (item[0], item[1]))
        breaker_transitions: list[tuple[float, int, str, str]] = []
        for wid, breaker in enumerate(self.pool.breakers):
            breaker_transitions.extend(
                (t, wid, src, dst) for (t, src, dst) in breaker.transitions
            )
        breaker_transitions.sort(key=lambda item: (item[0], item[1]))
        self.faults.breaker_transitions = breaker_transitions
        self.faults.degradation_transitions = degradation
        self.faults.degradation_dwell_s = {
            name: dwell[name] for name in sorted(dwell)
        }
        self.faults.widened_delta_theta_deg = widened
        return self.faults


def run_chaos(
    chaos: ChaosConfig,
    service: "BatchServiceModel | None" = None,
    inference: "InferenceFn | None" = None,
    obs: "Obs | None" = None,
) -> FleetReport:
    """Run one seeded chaos scenario; the report carries ``.faults``."""
    return ChaosRuntime(chaos, service=service, inference=inference, obs=obs).run()
