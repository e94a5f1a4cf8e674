"""The chaos fault model: injection, recovery, graceful degradation.

:class:`ChaosModel` is a fault component of
:class:`repro.serve.runtime.ServeRuntime`, held as ``runtime.chaos``.
It owns the per-session fault state the serving loop steps:

* **Input faults** — each session's oculomotor trace is pre-faulted by
  :func:`repro.faults.injectors.inject_input_faults`; dropped frames are
  accounted as lost input (never silently vanished), MIPI-corrupted
  frames arrive late by one retransmission, occlusion-blinded frames are
  degraded to buffered-gaze reuse.
* **Serving faults + recovery** — dispatches go through a
  :class:`~repro.serve.workers.FaultyWorkerPool`, whose per-worker circuit
  breakers evict flapping workers until a cooldown + half-open probe
  re-admits them; the model re-queues a failed batch's frames with
  exponential backoff, or degrades them instead when the retry could
  not beat the frame's deadline.
* **Tracking-quality watchdog** — one
  :class:`~repro.system.watchdog.TrackingWatchdog` per session monitors
  realized error/confidence and walks the degradation ladder: widen the
  foveal radius (Eq. 1), stop trusting fresh predictions, fall back to
  full-resolution rendering; recovery is hysteretic.

:func:`chaos_runtime` builds a chaos run: the faulted fleet, the faulty
pool and the model, handed to a plain ``ServeRuntime``.  Input faults are
set-up: only delivered predict frames and retries are ARRIVALs.  The SDC
guard and the watchdog are per-session state, stepped in each session's
arrival order: a backlog frame when the backlog is recorded, a predict
frame at its ARRIVAL.  An SLO page that widens every watchdog lands
where the loop evaluates the SLO, after every frame before it.  A seed
reproduces bit-identical fault/degradation telemetry.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.eye.motion import TrackStack
from repro.faults.config import ChaosConfig
from repro.faults.injectors import (
    OCCLUSION_BLIND_OPENNESS,
    InputFaultTrace,
    inject_input_faults,
)
from repro.obs import NULL_OBS, Obs, PID_RELIABILITY, PID_WORKERS, session_pid
from repro.recover.configio import decode, encode, field_path, section
from repro.reliability.guard import GazeVerdict, PlausibilityConfig, PlausibilityGuard
from repro.reliability.softerror import FaultSite, SoftErrorEvent, SoftErrorModel
from repro.serve.config import BatchServiceModel
from repro.serve.request import BypassFrames, ClientSession, FrameRequest, build_fleet
from repro.serve.runtime import InferenceFn, ServeRuntime
from repro.serve.telemetry import FaultReport, FleetReport
from repro.serve.workers import FaultyWorkerPool
from repro.system.session import PATHS, SessionConfig, decide_path_codes
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
    behaviour), then perturbs each track and recomputes the Algorithm-1
    path codes of all faulted tracks in one call — noisy gaze breaks
    reuse anchors exactly the way real tracking noise does.  Each chaos
    session holds its row of that re-decided stack, so its predict
    frames and backlog both come from its faulted track.  A session's
    backlog holds, in arrival order, its saccade and reuse frames and
    every ``"dropped"`` frame and ``"retransmit"`` CRC failure, both at
    capture; a retransmitted frame arrives late, after any on-time frame
    of that instant.
    """
    clean = build_fleet(config.serve)
    session_config = SessionConfig(
        reuse_displacement_deg=config.serve.reuse_displacement_deg,
        post_saccade_low_res=config.serve.post_saccade_low_res,
    )
    faulted, traces = [], []
    for session in clean:
        track, trace = inject_input_faults(
            session.track,
            config.input_faults,
            seed=config.fault_seed * _FAULT_SEED_STRIDE + session.session_id,
        )
        faulted.append(track)
        traces.append(trace)
    codes = decide_path_codes(TrackStack.of(faulted), session_config)
    codes.flags.writeable = False
    fleet = []
    for session, track, row, trace in zip(clean, faulted, codes, traces):
        late = trace.retransmit_s.tolist()
        backlog = []
        for f, (t, path) in enumerate(
            zip(session.arrivals.tolist(), PATHS[row].tolist())
        ):
            if trace.dropped[f]:
                backlog.append((t, False, f, "dropped"))
                continue
            if late[f]:
                backlog.append((t, False, f, "retransmit"))
            if path != "predict":
                backlog.append((t + late[f], late[f] > 0, f, path))
        backlog.sort()
        fleet.append(replace(
            session,
            track=track,
            codes=row,
            backlog=BypassFrames(
                [entry[2] for entry in backlog],
                [entry[0] for entry in backlog],
                [entry[3] for entry in backlog],
            ),
        ))
    return fleet, traces


class ChaosModel:
    """The chaos fault model of one run, held as ``runtime.chaos``.

    It builds the run's faulted fleet (:func:`build_chaos_fleet`).  The
    runtime asks the model which predict frames arrive and when, steps it
    once per frame in each session's arrival order, and hands it every
    failed batch; the model keeps the counters of :attr:`report`.
    """

    def __init__(self, config: ChaosConfig, obs: "Obs | None" = None):
        self.config = config
        fleet, self.traces = build_chaos_fleet(config)
        self.fleet = fleet
        self.obs = obs if obs is not None else NULL_OBS
        self.watchdogs = [
            TrackingWatchdog(
                config.profile,
                config.watchdog,
                start_s=s.start_s,
                on_transition=self._watchdog_hook(s.session_id),
            )
            for s in fleet
        ]
        self.report = FaultReport()
        # Per-session realized tracking error of the healthy tracker: a
        # half-normal stream whose P95 equals the profile's delta-theta.
        scale = config.profile.delta_theta_deg / 1.96
        self.base_error = [
            np.abs(
                np.random.default_rng(
                    config.fault_seed * _ERROR_SEED_STRIDE + s.session_id
                ).normal(0.0, scale, size=s.n_frames)
            )
            for s in fleet
        ]
        #: Backlog entries recorded so far, per session.
        self.cursors = [0] * len(fleet)
        # Silicon soft errors (repro.reliability): one seeded schedule
        # over the whole window, events dealt round-robin onto sessions
        # and consumed by each session's next predict-path frame (SRAM
        # corruption persists until the datapath fetches it).
        self._sdc_queues: list[list[tuple[int, SoftErrorEvent]]] = [
            [] for _ in fleet
        ]
        self._sdc_next: list[int] = [0] * len(fleet)
        self._sdc_persistent = [np.zeros(2) for _ in fleet]
        self._guard_last_frame: list["int | None"] = [None] * len(fleet)
        self.guards: "list[PlausibilityGuard] | None" = None
        if config.soft_errors.active:
            self.guards = [
                PlausibilityGuard(PlausibilityConfig(fps=config.serve.fps))
                for _ in fleet
            ]
            schedule = SoftErrorModel(config.soft_errors).schedule(
                config.serve.duration_s
            )
            for index, event in enumerate(schedule):
                sid = index % len(fleet)
                session = fleet[sid]
                frame = int((event.t_s - session.start_s) * config.serve.fps)
                frame = min(max(frame, 0), session.n_frames - 1)
                self._sdc_queues[sid].append((frame, event))
            for queue in self._sdc_queues:
                queue.sort(key=lambda item: item[0])

    # ------------------------------------------------------------------
    # SLO coupling: a paging latency budget widens the fovea
    # ------------------------------------------------------------------
    def on_page(self, objective, now_s: float) -> None:
        """The SLO engine's PAGE hook: an objective with ``on_page:
        "widen"`` escalates every session's watchdog to WIDENED — the
        Eq. 1 foveal-radius widening path — the moment the error budget
        pages."""
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
            self.report.soft_errors_injected += 1
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
            self.report.sdc_detected += 1
            self.report.sdc_fallback_degraded += 1
            # The guard cannot localize the fault, but two implausible
            # computes in a row say state is corrupted: scrub the store.
            persistent[:] = 0.0
            self._sdc_obs(sid, i, now, "fallback")
            return 0.0, True
        if verdict is GazeVerdict.RECOMPUTED:
            self.report.sdc_detected += 1
            self.report.sdc_recomputed += 1
            self._sdc_obs(sid, i, now, "recomputed")
        deviation = float(np.linalg.norm(out - gaze))
        if deviation > SDC_THRESHOLD_DEG:
            self.report.sdc_escaped += 1
            self._sdc_obs(sid, i, now, "escaped")
        return deviation, False

    # ------------------------------------------------------------------
    # Failed batches: retry with backoff, or degrade
    # ------------------------------------------------------------------
    def batch_failed(
        self, worker_id: int, batch_size: int, cause: str, now: float
    ) -> None:
        """Count one batch the pool failed (``"crash"`` or ``"stall"``)."""
        self.report.batch_failures += 1
        if cause == "crash":
            self.report.worker_crash_failures += 1
        else:
            self.report.worker_stall_timeouts += 1
        if self.obs.enabled:
            self.obs.tracer.instant(
                f"batch.failed.{cause}", now, cat="faults",
                pid=PID_WORKERS, tid=worker_id,
                args={"batch_size": batch_size},
            )
            self.obs.metrics.counter(
                "serve_batch_failures_total",
                help="Dispatched batches that failed, by fault cause.",
                cause=cause,
            ).inc()

    def retry_or_degrade(
        self, request: FrameRequest, now: float, full_batch_s: float
    ) -> "tuple[float, FrameRequest] | str":
        """A failed frame's fate: ``(retry_at, retried request)`` to
        re-queue after backoff, or the cause to degrade it for now."""
        recovery = self.config.recovery
        next_attempt = request.retries + 1
        backoff = recovery.backoff_base_s * recovery.backoff_factor**request.retries
        retry_at = now + backoff
        if next_attempt > recovery.max_retries:
            self.report.retry_exhausted_degraded += 1
            return "retry_exhausted"
        if retry_at + full_batch_s > request.deadline_s:
            # The retry cannot beat the deadline: degrade immediately —
            # a stale-but-on-time gaze beats a fresh-but-late one.
            self.report.deadline_degraded += 1
            return "deadline"
        self.report.retries_scheduled += 1
        if self.obs.enabled:
            self.obs.tracer.instant(
                "retry.scheduled", now, cat="faults",
                pid=session_pid(request.session_id),
                args={"frame": request.frame_index, "attempt": next_attempt},
            )
        return retry_at, request._replace(retries=next_attempt)

    # ------------------------------------------------------------------
    # Set-up and the per-frame step
    # ------------------------------------------------------------------
    def delivered(
        self, requests: "list[FrameRequest]"
    ) -> "list[tuple[float, FrameRequest]]":
        """The predict frames that arrive, as ``(arrival, request)`` in
        the order the backlog orders them: a dropped frame never
        arrives, a retransmitted one late."""
        arriving = []
        for request in requests:
            trace, i = self.traces[request.session_id], request.frame_index
            if not trace.dropped[i]:
                late = float(trace.retransmit_s[i])
                arriving.append(
                    (request.arrival_s + late, late > 0, request.seq, request)
                )
        return [(time_s, request) for time_s, _, _, request in sorted(arriving)]

    def fault_step(self, sid: int, i: int, path: str, now: float) -> "str | None":
        """Frame ``i``'s SDC guard and watchdog step at its arrival
        ``now``.  Returns ``"full_res"``, a degrade cause, or None; a
        ``"dropped"`` or ``"retransmit"`` backlog entry only counts, and
        returns its path."""
        if path == "dropped" or path == "retransmit":
            if path == "dropped":
                self.report.input_dropped += 1
            else:
                self.report.mipi_corrupted_frames += 1
            if self.obs.enabled:
                self.obs.tracer.instant(
                    f"input.{path}", now, cat="faults",
                    pid=session_pid(sid), args={"frame": i},
                )
            return path
        trace = self.traces[sid]
        openness = float(self.fleet[sid].track.openness[i])
        blind = openness < OCCLUSION_BLIND_OPENNESS
        if trace.noise_deg[i] > 0:
            self.report.noise_burst_frames += 1
        if trace.occlusion[i] > 0:
            self.report.occluded_frames += 1
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
            self.report.watchdog_full_res_frames += 1
            return "full_res"
        if path == "predict":
            if blind:
                self.report.occlusion_degraded += 1
                return "occlusion"
            if level >= DegradationLevel.REUSE_ONLY:
                self.report.watchdog_reuse_frames += 1
                return "watchdog"
        return None

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.recover)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """The model's mutable state, under the checkpoint's top-level
        ``faults``, ``cursors``, ``watchdogs`` and ``sdc`` keys."""
        return {
            "faults": encode(self.report),
            "cursors": list(self.cursors),
            "watchdogs": [w.state_dict() for w in self.watchdogs],
            "sdc": {
                "next": list(self._sdc_next),
                "persistent": [p.tolist() for p in self._sdc_persistent],
                "guard_last_frame": list(self._guard_last_frame),
                "guards": None
                if self.guards is None
                else [g.state_dict() for g in self.guards],
            },
        }

    def load_state(self, state: dict, path: str = "") -> None:
        # Input-fault traces and the per-session error streams are pure
        # functions of the (seeded) config and were rebuilt by __init__;
        # only the mutable recovery-stack state needs restoring.
        def read(hint, at: str, saved: dict, key: str):
            return decode(hint, section(saved, key, at), field_path(at, key))

        self.report = read(FaultReport, path, state, "faults")
        self.cursors = read(list[int], path, state, "cursors")
        saved = zip(self.watchdogs, section(state, "watchdogs", path), strict=True)
        for i, (watchdog, watchdog_state) in enumerate(saved):
            watchdog.load_state(watchdog_state, f"{field_path(path, 'watchdogs')}[{i}]")
        sdc, at = section(state, "sdc", path), field_path(path, "sdc")
        self._sdc_next = read(list[int], at, sdc, "next")
        persistent = read(list[tuple[float, float]], at, sdc, "persistent")
        self._sdc_persistent = [np.array(p, dtype=np.float64) for p in persistent]
        self._guard_last_frame = read(list[int | None], at, sdc, "guard_last_frame")
        guards = section(sdc, "guards", at)
        if guards is not None and self.guards is not None:
            saved = zip(self.guards, guards, strict=True)
            for i, (guard, guard_state) in enumerate(saved):
                guard.load_state(guard_state, f"{at}.guards[{i}]")

    # ------------------------------------------------------------------
    # Telemetry assembly
    # ------------------------------------------------------------------
    def finalize(self, end_s: float, pool: FaultyWorkerPool) -> FaultReport:
        """Close the watchdogs at ``end_s`` and fill in :attr:`report`'s
        transitions, dwell and widening."""
        dwell: dict[str, float] = {}
        widened = self.config.profile.delta_theta_deg
        for watchdog in self.watchdogs:
            watchdog.finalize(end_s)
            for name, seconds in watchdog.dwell_s().items():
                dwell[name] = dwell.get(name, 0.0) + seconds
            widened = max(widened, watchdog.max_widened_delta_theta_deg)
        self.report.breaker_transitions = _merged_transitions(pool.breakers)
        self.report.degradation_transitions = _merged_transitions(self.watchdogs)
        self.report.degradation_dwell_s = {
            name: dwell[name] for name in sorted(dwell)
        }
        self.report.widened_delta_theta_deg = widened
        return self.report


def _merged_transitions(machines) -> "list[tuple[float, int, str, str]]":
    """Every ``(t, src, dst)`` transition of ``machines`` as ``(t, index,
    src, dst)``, ordered by time, then index."""
    merged = [
        (t, index, src, dst)
        for index, machine in enumerate(machines)
        for (t, src, dst) in machine.transitions
    ]
    merged.sort(key=lambda item: (item[0], item[1]))
    return merged


def chaos_runtime(
    config: ChaosConfig,
    service: "BatchServiceModel | None" = None,
    inference: "InferenceFn | None" = None,
    obs: "Obs | None" = None,
) -> ServeRuntime:
    """One chaos scenario: the faulted fleet on a faulty pool, with a
    :class:`ChaosModel` as the runtime's ``chaos`` component."""
    model = ChaosModel(config, obs)
    service = service if service is not None else BatchServiceModel()
    pool = FaultyWorkerPool(
        config.serve.n_workers,
        service,
        schedule=config.worker_faults,
        stall_timeout_s=config.recovery.dispatch_timeout_s,
        breaker_threshold=config.recovery.breaker_threshold,
        breaker_cooldown_s=config.recovery.breaker_cooldown_s,
    )
    return ServeRuntime(
        config.serve, service=service, inference=inference, fleet=model.fleet,
        obs=obs, pool=pool, chaos=model,
    )


def run_chaos(
    chaos: ChaosConfig,
    service: "BatchServiceModel | None" = None,
    inference: "InferenceFn | None" = None,
    obs: "Obs | None" = None,
) -> FleetReport:
    """Run one seeded chaos scenario; the report carries ``.faults``."""
    return chaos_runtime(chaos, service=service, inference=inference, obs=obs).run()
