"""SDC injection campaign: unprotected vs ABFT vs guard-only.

The campaign drives a *real* INT8 tracker datapath — quantized gaze
codes through two weight-stationary GEMM stages with 32-bit
accumulation and an inter-stage requantize shift, exactly the stored
representations :mod:`repro.reliability.softerror` knows how to flip —
over an oculomotor-model gaze trajectory.  Fault schedules are Poisson
draws from the FIT-rate config; the *same* schedule is replayed against
three protection configurations:

``unprotected``
    Faults flow straight to the output; every deviation beyond the
    quantization grid is a silent data corruption.
``abft``
    Both GEMMs run through :func:`repro.reliability.abft.abft_matmul`
    with checksums stored at operand-write time.  Accumulator upsets
    land in the augmented product (checksum registers included); weight
    upsets persist in the live store until a multi-error recompute
    triggers a scrub from the golden image.
``guard``
    No datapath protection; the
    :class:`repro.reliability.guard.PlausibilityGuard` gates the output
    (flag -> recompute once -> gaze reuse) and a fallback triggers a
    weight scrub.  Low-magnitude corruptions slip under the
    main-sequence velocity bound — the coverage gap this campaign
    quantifies.

Cycle overhead is *measured*, not asserted: the paper-scale predict
path is costed on the POLO accelerator with and without
``abft_protected`` (checksum rows/columns are real systolic work, see
:meth:`repro.hw.systolic.SystolicArray.abft_op`).

Everything is seeded; the same config reproduces the same report to the
digit, which is what the ``sdc-smoke`` CI job pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.profiles import polo_path_reports
from repro.eye.motion import OculomotorConfig, OculomotorModel
from repro.nn.quantization import QuantSpec
from repro.recover.configio import encode
from repro.reliability.abft import AbftOutcome, AbftStats, abft_matmul
from repro.reliability.guard import GazeVerdict, PlausibilityConfig, PlausibilityGuard
from repro.reliability.softerror import (
    FaultSite,
    FlipMode,
    SoftErrorConfig,
    SoftErrorEvent,
    SoftErrorModel,
    apply_event,
    flip_accumulator_bit,
    flip_int_code_bits,
)
from repro.utils.validation import check_positive

#: The three protection configurations the campaign compares.
PROTECTIONS = ("unprotected", "abft", "guard")


@dataclass(frozen=True)
class SdcCampaignConfig:
    """One campaign: a FIT sweep replayed against each protection."""

    fit_rates: tuple[float, ...] = (50.0, 200.0, 800.0)
    protections: tuple[str, ...] = PROTECTIONS
    n_frames: int = 300
    fps: float = 100.0
    #: Campaign-grade acceleration (stronger than the chaos default) so
    #: a few simulated seconds carry tens of upsets per FIT point.
    acceleration: float = 5e10
    #: Output deviation (degrees) beyond which a frame counts as SDC;
    #: sits just above the int8 quantization grid of the datapath.
    sdc_threshold_deg: float = 0.05
    pruning_ratio: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.fit_rates:
            raise ValueError("fit_rates must not be empty")
        for fit in self.fit_rates:
            check_positive("fit_rate", fit)
        for name in self.protections:
            if name not in PROTECTIONS:
                raise ValueError(
                    f"unknown protection {name!r}; choose from {PROTECTIONS}"
                )
        check_positive("n_frames", self.n_frames)
        check_positive("fps", self.fps)
        check_positive("acceleration", self.acceleration)
        check_positive("sdc_threshold_deg", self.sdc_threshold_deg)

    @property
    def duration_s(self) -> float:
        return self.n_frames / self.fps


@dataclass
class SdcRunResult:
    """Outcome of one (protection, FIT rate) cell."""

    protection: str
    fit_per_mbit: float
    frames: int
    injected: int
    corrupted_frames: int
    detected: int
    corrected: int
    recomputed: int
    guard_flagged: int
    guard_fallbacks: int
    scrubs: int
    escaped_sdc: int
    mean_error_deg: float
    p95_error_deg: float

    @property
    def coverage(self) -> float:
        """Fraction of corrupted frames that did NOT escape as SDC."""
        if self.corrupted_frames == 0:
            return 1.0
        return 1.0 - self.escaped_sdc / self.corrupted_frames

    def as_dict(self) -> dict:
        return {**encode(self), "coverage": self.coverage}


@dataclass
class SdcReport:
    """Full campaign output plus the measured ABFT hardware overhead."""

    config: SdcCampaignConfig
    runs: list[SdcRunResult] = field(default_factory=list)
    unprotected_cycles: int = 0
    protected_cycles: int = 0
    abft_cycles: int = 0

    @property
    def cycle_overhead(self) -> float:
        """Relative predict-path cycle cost of ABFT protection."""
        if self.unprotected_cycles == 0:
            return 0.0
        return (
            self.protected_cycles - self.unprotected_cycles
        ) / self.unprotected_cycles

    def runs_for(self, protection: str) -> list[SdcRunResult]:
        return [r for r in self.runs if r.protection == protection]


# ----------------------------------------------------------------------
# The injected datapath
# ----------------------------------------------------------------------

class _Int8Tracker:
    """Two-stage INT8 gaze datapath with explicit stored representations.

    Stage 1 spreads the 2-vector of gaze codes across 8 hidden lanes
    (weight codes of 64, i.e. one set bit — every flip is visible at a
    known power of two); the 32-bit accumulators requantize by an
    arithmetic ``>> 6``; stage 2 folds the lanes back.  Clean end to
    end: ``out = round(gaze / a_scale) * a_scale`` — pure quantization,
    so any deviation beyond the grid is attributable to injection.
    """

    A_BITS = 2 * 8       # stage-1 activation codes resident in SRAM
    H_BITS = 8 * 8       # inter-stage codes resident in SRAM

    def __init__(self):
        self.spec = QuantSpec()
        cfg = PlausibilityConfig()
        self.a_scale = cfg.field_deg / 2.0 / self.spec.qmax
        w1 = np.zeros((2, 8), dtype=np.int8)
        w2 = np.zeros((8, 2), dtype=np.int8)
        for lane in range(8):
            w1[lane % 2, lane] = 64
            w2[lane, lane % 2] = 1
        self.golden_store = np.concatenate([w1.reshape(-1), w2.reshape(-1)])

    @staticmethod
    def views(store: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return store[:16].reshape(2, 8), store[16:].reshape(8, 2)

    def quantize_gaze(self, gaze: np.ndarray) -> np.ndarray:
        q = np.clip(
            np.round(np.asarray(gaze) / self.a_scale),
            -self.spec.qmax - 1,
            self.spec.qmax,
        )
        return q.astype(np.int8)

    def dequantize_out(self, acc: np.ndarray) -> np.ndarray:
        # Clean path: acc = 4 * a_codes, so /4 recovers the code grid.
        return acc.astype(np.float64) * (self.a_scale / 4.0)

    # ------------------------------------------------------------------
    @staticmethod
    def _stuck(event: SoftErrorEvent) -> "int | None":
        return event.stuck_value if event.mode is FlipMode.STUCK_AT else None

    def _split_act_events(self, events) -> tuple[list, list]:
        """Route activation upsets onto the a-codes or the h-codes by
        their offset within the resident activation image."""
        a_evs, h_evs = [], []
        span = self.A_BITS + self.H_BITS
        for e in events:
            (a_evs if e.bit_offset % span < self.A_BITS else h_evs).append(e)
        return a_evs, h_evs

    @staticmethod
    def _split_acc_events(events) -> tuple[list, list]:
        """Route accumulator upsets onto stage 1 or stage 2's registers
        (they time-share the same physical accumulator file)."""
        s1, s2 = [], []
        for e in events:
            (s1 if (e.bit_offset // 32) % 2 == 0 else s2).append(e)
        return s1, s2

    # ------------------------------------------------------------------
    def forward(
        self,
        gaze: np.ndarray,
        store: np.ndarray,
        act_events=(),
        acc_events=(),
    ) -> np.ndarray:
        """Unprotected frame computation under the given transient events."""
        w1, w2 = self.views(store)
        a_evs, h_evs = self._split_act_events(act_events)
        acc1_evs, acc2_evs = self._split_acc_events(acc_events)

        a = self.quantize_gaze(gaze)
        for e in a_evs:
            flip_int_code_bits(a, e.bit_offset, e.n_bits, self._stuck(e))
        acc1 = a.astype(np.int64)[None, :] @ w1.astype(np.int64)
        for e in acc1_evs:
            flip_accumulator_bit(acc1, e.bit_offset, e.n_bits, self._stuck(e))
        h = np.clip(acc1 >> 6, -self.spec.qmax - 1, self.spec.qmax).astype(np.int8)
        for e in h_evs:
            flip_int_code_bits(h, e.bit_offset, e.n_bits, self._stuck(e))
        acc2 = h.astype(np.int64) @ w2.astype(np.int64)
        for e in acc2_evs:
            flip_accumulator_bit(acc2, e.bit_offset, e.n_bits, self._stuck(e))
        return self.dequantize_out(acc2[0])

    def forward_abft(
        self,
        gaze: np.ndarray,
        store: np.ndarray,
        act_events,
        acc_events,
        stats: AbftStats,
    ) -> tuple[np.ndarray, bool, bool]:
        """ABFT-protected frame; returns ``(out, detected, scrubbed)``.

        Checksums are the ones written alongside the clean operands
        (golden weight row sums; the producer's copy of the activation
        codes), so corrupted *reads* mismatch them.  Recompute refetches
        clean operands, and a recompute caused by a corrupted weight
        store scrubs it from the golden image.
        """
        w1, w2 = self.views(store)
        g1, g2 = self.views(self.golden_store)
        a_evs, h_evs = self._split_act_events(act_events)
        acc1_evs, acc2_evs = self._split_acc_events(acc_events)

        a_clean = self.quantize_gaze(gaze)
        a = a_clean.copy()
        for e in a_evs:
            flip_int_code_bits(a, e.bit_offset, e.n_bits, self._stuck(e))

        def corrupt1(c_full: np.ndarray) -> None:
            for e in acc1_evs:
                flip_accumulator_bit(c_full, e.bit_offset, e.n_bits, self._stuck(e))

        acc1, outcome1 = abft_matmul(
            a[None, :],
            w1,
            a_check=a_clean.astype(np.int64)[None, :].sum(axis=0),
            b_check=g1.astype(np.int64).sum(axis=1),
            corrupt=corrupt1,
            recompute=lambda: a_clean.astype(np.int64)[None, :]
            @ g1.astype(np.int64),
            stats=stats,
        )
        h_clean = np.clip(
            acc1 >> 6, -self.spec.qmax - 1, self.spec.qmax
        ).astype(np.int8)
        h = h_clean.copy()
        for e in h_evs:
            flip_int_code_bits(h, e.bit_offset, e.n_bits, self._stuck(e))

        def corrupt2(c_full: np.ndarray) -> None:
            for e in acc2_evs:
                flip_accumulator_bit(c_full, e.bit_offset, e.n_bits, self._stuck(e))

        acc2, outcome2 = abft_matmul(
            h,
            w2,
            a_check=h_clean.astype(np.int64).sum(axis=0),
            b_check=g2.astype(np.int64).sum(axis=1),
            corrupt=corrupt2,
            recompute=lambda: h_clean.astype(np.int64) @ g2.astype(np.int64),
            stats=stats,
        )
        detected = (
            outcome1 is not AbftOutcome.CLEAN or outcome2 is not AbftOutcome.CLEAN
        )
        scrubbed = False
        if (
            AbftOutcome.RECOMPUTED in (outcome1, outcome2)
            and not np.array_equal(store, self.golden_store)
        ):
            store[:] = self.golden_store
            scrubbed = True
        return self.dequantize_out(acc2[0]), detected, scrubbed


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------

def default_sdc_campaign() -> SdcCampaignConfig:
    """The configuration ``python -m repro sdc`` runs by default."""
    return SdcCampaignConfig()


def _group_by_frame(
    events: tuple[SoftErrorEvent, ...], fps: float, n_frames: int
) -> dict[int, list[SoftErrorEvent]]:
    grouped: dict[int, list[SoftErrorEvent]] = {}
    for event in events:
        frame = min(int(event.t_s * fps), n_frames - 1)
        grouped.setdefault(frame, []).append(event)
    return grouped


def _run_cell(
    tracker: _Int8Tracker,
    gaze: np.ndarray,
    golden_out: np.ndarray,
    frame_events: dict[int, list[SoftErrorEvent]],
    protection: str,
    fit: float,
    config: SdcCampaignConfig,
) -> SdcRunResult:
    store = tracker.golden_store.copy()
    stats = AbftStats()
    guard = PlausibilityGuard(PlausibilityConfig(fps=config.fps))
    injected = corrupted = escaped = scrubs = 0
    deviations = np.zeros(len(gaze))

    for t in range(len(gaze)):
        events = frame_events.get(t, [])
        injected += len(events)
        act_events = [e for e in events if e.site is FaultSite.ACTIVATION]
        acc_events = [e for e in events if e.site is FaultSite.ACCUMULATOR]
        for e in events:
            if e.site is FaultSite.WEIGHT:
                apply_event(e, weight_codes=store)

        raw = tracker.forward(gaze[t], store, act_events, acc_events)
        frame_corrupt = not np.array_equal(raw, golden_out[t])
        corrupted += frame_corrupt

        if protection == "unprotected":
            out, silent = raw, True
        elif protection == "abft":
            out, detected, scrubbed = tracker.forward_abft(
                gaze[t], store, act_events, acc_events, stats
            )
            scrubs += scrubbed
            silent = not detected
        else:  # guard
            out, verdict = guard.check(
                raw, recompute=lambda: tracker.forward(gaze[t], store)
            )
            if verdict is GazeVerdict.FALLBACK and not np.array_equal(
                store, tracker.golden_store
            ):
                # The guard cannot localize the fault; a fallback is the
                # system's cue that state may be corrupted -> scrub.
                store[:] = tracker.golden_store
                scrubs += 1
            silent = verdict is not GazeVerdict.FALLBACK

        deviation = float(np.linalg.norm(out - golden_out[t]))
        deviations[t] = deviation
        if silent and deviation > config.sdc_threshold_deg:
            escaped += 1

    return SdcRunResult(
        protection=protection,
        fit_per_mbit=fit,
        frames=len(gaze),
        injected=injected,
        corrupted_frames=corrupted,
        detected=stats.detected,
        corrected=stats.corrected + stats.checksum_repaired,
        recomputed=stats.recomputed,
        guard_flagged=guard.flagged,
        guard_fallbacks=guard.fallbacks,
        scrubs=scrubs,
        escaped_sdc=escaped,
        mean_error_deg=float(deviations.mean()),
        p95_error_deg=float(np.percentile(deviations, 95)),
    )


def _abft_hardware_overhead(pruning_ratio: float) -> dict[str, int]:
    """Predict-path cycles with and without ABFT on the POLO accelerator."""
    unprotected, protected = (
        polo_path_reports(pruning_ratio, abft=abft)["predict"]
        for abft in (False, True)
    )
    return {
        "unprotected_cycles": unprotected.cycles,
        "protected_cycles": protected.cycles,
        "abft_cycles": protected.abft_cycles,
    }


def run_sdc_campaign(config: "SdcCampaignConfig | None" = None) -> SdcReport:
    """Run the full FIT sweep; deterministic for a given config."""
    config = config or default_sdc_campaign()
    tracker = _Int8Tracker()
    track = OculomotorModel(
        OculomotorConfig(fps=config.fps), seed=config.seed
    ).generate(config.n_frames)
    gaze = track.gaze_deg
    golden_out = np.stack([tracker.forward(g, tracker.golden_store) for g in gaze])

    report = SdcReport(config=config, **_abft_hardware_overhead(config.pruning_ratio))
    for index, fit in enumerate(config.fit_rates):
        model = SoftErrorModel(
            SoftErrorConfig(
                fit_per_mbit=fit,
                acceleration=config.acceleration,
                seed=config.seed + 7919 * (index + 1),
            )
        )
        frame_events = _group_by_frame(
            model.schedule(config.duration_s), config.fps, config.n_frames
        )
        for protection in config.protections:
            report.runs.append(
                _run_cell(
                    tracker, gaze, golden_out, frame_events,
                    protection, fit, config,
                )
            )
    return report


def sdc_summary_metrics(report: SdcReport) -> dict[str, float]:
    """One flat metrics dict per campaign: the aggregate overhead plus
    per-protection worst-case cells.

    Shared by the ``repro.exp`` sdc runner, ``sdc --slo`` summary
    verdicts, and the bench history — all three gate on these names.
    """
    metrics: dict[str, float] = {
        "cycle_overhead": report.cycle_overhead,
        "injected_total": float(sum(r.injected for r in report.runs)),
    }
    for protection in report.config.protections:
        cells = report.runs_for(protection)
        metrics[f"{protection}_coverage_min"] = min(c.coverage for c in cells)
        metrics[f"{protection}_escaped_total"] = float(
            sum(c.escaped_sdc for c in cells)
        )
        metrics[f"{protection}_p95_error_deg"] = max(c.p95_error_deg for c in cells)
    return metrics


def format_sdc_report(report: SdcReport) -> str:
    """Human-readable campaign summary (stable across runs — CI diffs it)."""
    cfg = report.config
    lines = [
        "SDC resilience campaign",
        f"  frames: {cfg.n_frames} @ {cfg.fps:g} fps   seed: {cfg.seed}   "
        f"acceleration: {cfg.acceleration:g}x",
        f"  ABFT predict-path overhead: {report.cycle_overhead * 100:.2f}% "
        f"({report.unprotected_cycles} -> {report.protected_cycles} cycles, "
        f"{report.abft_cycles} on checksums)",
        "",
        f"  {'protection':<12} {'FIT/Mbit':>8} {'inj':>5} {'corrupt':>7} "
        f"{'det':>5} {'corr':>5} {'recomp':>6} {'flag':>5} {'fall':>5} "
        f"{'escaped':>7} {'coverage':>8} {'p95 deg':>8}",
    ]
    for run in report.runs:
        lines.append(
            f"  {run.protection:<12} {run.fit_per_mbit:>8g} {run.injected:>5} "
            f"{run.corrupted_frames:>7} {run.detected:>5} {run.corrected:>5} "
            f"{run.recomputed:>6} {run.guard_flagged:>5} {run.guard_fallbacks:>5} "
            f"{run.escaped_sdc:>7} {run.coverage:>8.3f} {run.p95_error_deg:>8.4f}"
        )
    return "\n".join(lines)
