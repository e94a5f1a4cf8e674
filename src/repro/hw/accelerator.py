"""Accelerator composition: the POLO accelerator and the per-baseline
dedicated accelerators (paper §5, §7).

The POLO accelerator runs INT8 (POLOViT is weight/activation quantized,
Table 1) on a 16 x 16 array with IPU and token selector.  Each baseline
gets a dedicated accelerator with the same compute-engine *area* (§7);
since the baselines are FP16 models, the equal-area array is smaller
(8 x 8 with the default area table), which is the architectural source of
POLO's gaze-latency advantage beyond its smaller op count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hw.area import AreaTable
from repro.hw.buffers import SramBuffer
from repro.hw.energy import EnergyBreakdown, EnergyTable
from repro.hw.ipu import IpuModel, IpuReport
from repro.hw.mapper import ScheduleReport, WorkloadMapper
from repro.hw.sfu import SpecialFunctionUnit
from repro.hw.systolic import SystolicArray
from repro.obs.tracer import PID_ACCEL
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class AcceleratorConfig:
    """Geometry, precision, clock, and buffering of one accelerator."""

    name: str = "POLO"
    rows: int = 16
    cols: int = 16
    precision: str = "int8"
    clock_hz: float = 1e9
    act_buffer_kb: float = 128.0
    weight_buffer_kb: float = 128.0
    has_token_selector: bool = True
    has_ipu: bool = True
    #: Cost every GEMM in its Huang–Abraham-augmented form (checksum row
    #: and column are real array work) plus checksum generation and
    #: verification passes.  See :mod:`repro.reliability.abft`.
    abft_protected: bool = False

    def __post_init__(self) -> None:
        check_positive("clock_hz", self.clock_hz)


@dataclass
class ExecutionReport:
    """Latency/energy/utilization of one accelerator invocation."""

    latency_s: float
    cycles: int
    energy: EnergyBreakdown
    utilization: float
    schedule: "ScheduleReport | None" = None

    def __add__(self, other: "ExecutionReport") -> "ExecutionReport":
        total_cycles = self.cycles + other.cycles
        util = 0.0
        if total_cycles:
            util = (
                self.utilization * self.cycles + other.utilization * other.cycles
            ) / total_cycles
        return ExecutionReport(
            latency_s=self.latency_s + other.latency_s,
            cycles=total_cycles,
            energy=self.energy + other.energy,
            utilization=util,
            schedule=None,
        )


class Accelerator:
    """A systolic-array accelerator instance with its mapper and IPU."""

    def __init__(
        self,
        config: "AcceleratorConfig | None" = None,
        energy: "EnergyTable | None" = None,
        area: "AreaTable | None" = None,
    ):
        self.config = config or AcceleratorConfig()
        self.energy_table = energy or EnergyTable()
        self.area_table = area or AreaTable()
        cfg = self.config
        self.array = SystolicArray(cfg.rows, cfg.cols, cfg.precision)
        self.sfu = SpecialFunctionUnit()
        self.act_buffer = SramBuffer("activation", cfg.act_buffer_kb, self.energy_table)
        self.weight_buffer = SramBuffer("weight", cfg.weight_buffer_kb, self.energy_table)
        self.mapper = WorkloadMapper(
            self.array,
            self.sfu,
            self.energy_table,
            self.act_buffer,
            self.weight_buffer,
            abft=cfg.abft_protected,
        )
        self.ipu = IpuModel(energy=self.energy_table) if cfg.has_ipu else None

    # ------------------------------------------------------------------
    def run(self, ops: list) -> ExecutionReport:
        """Execute a DNN workload; returns latency at the configured clock."""
        schedule = self.mapper.map(ops)
        return ExecutionReport(
            latency_s=schedule.cycles / self.config.clock_hz,
            cycles=schedule.cycles,
            energy=schedule.energy,
            utilization=schedule.utilization,
            schedule=schedule,
        )

    def run_ipu(self, report: IpuReport) -> ExecutionReport:
        """Wrap an IPU cost report in accelerator time units."""
        return ExecutionReport(
            latency_s=report.cycles / self.config.clock_hz,
            cycles=report.cycles,
            energy=report.energy,
            utilization=0.0,
        )

    # ------------------------------------------------------------------
    @property
    def area_mm2(self) -> float:
        cfg = self.config
        return self.area_table.accelerator_mm2(
            cfg.rows,
            cfg.cols,
            cfg.precision,
            cfg.act_buffer_kb + cfg.weight_buffer_kb,
            with_token_selector=cfg.has_token_selector,
            with_ipu=cfg.has_ipu,
        )

    def area_fractions(self) -> dict[str, float]:
        """Area split in the Fig.-less §7 reporting format
        (buffers / compute engine / IPU)."""
        cfg = self.config
        buffers = self.area_table.buffers_mm2(cfg.act_buffer_kb + cfg.weight_buffer_kb)
        engine = self.area_table.compute_engine_mm2(
            cfg.rows, cfg.cols, cfg.precision, cfg.has_token_selector
        )
        ipu = self.area_table.ipu_mm2 if cfg.has_ipu else 0.0
        total = buffers + engine + ipu
        return {
            "buffers": buffers / total,
            "engine": engine / total,
            "ipu": ipu / total,
            "total_mm2": total,
        }

    def average_power_w(self, energy_j: float, latency_s: float) -> float:
        if latency_s <= 0:
            raise ValueError("latency must be positive")
        return energy_j / latency_s


# ----------------------------------------------------------------------
# Factories
# ----------------------------------------------------------------------

def polo_accelerator(
    energy: "EnergyTable | None" = None,
    area: "AreaTable | None" = None,
    abft: bool = False,
) -> Accelerator:
    """The paper's POLO accelerator: 16x16 INT8 @ 1 GHz, 2x128 KB.

    With ``abft=True`` every GEMM is costed in its checksum-augmented
    form so reliability overhead appears in latency/energy/utilization."""
    return Accelerator(
        AcceleratorConfig(abft_protected=abft), energy=energy, area=area
    )


def baseline_accelerator(
    name: str,
    energy: "EnergyTable | None" = None,
    area: "AreaTable | None" = None,
) -> Accelerator:
    """A dedicated FP16 accelerator with the same compute-engine area as
    POLO's (§7); equal area buys a smaller FP16 array."""
    area = area or AreaTable()
    dim = area.equal_area_array_dim(16, 16, "int8", "fp16")
    config = AcceleratorConfig(
        name=name,
        rows=dim,
        cols=dim,
        precision="fp16",
        has_token_selector=False,
        has_ipu=False,
    )
    return Accelerator(config, energy=energy, area=area)


# ----------------------------------------------------------------------
# POLONet per-path execution (drives Eq. 6)
# ----------------------------------------------------------------------

@dataclass
class PathReport:
    """Gaze-processing latency/energy for one Algorithm-1 path."""

    path: str
    latency_s: float
    energy: EnergyBreakdown
    cycles: int = 0
    #: Cycles spent on ABFT checksum work (zero unless the accelerator is
    #: ``abft_protected``); a subset of ``cycles``.
    abft_cycles: int = 0


class PoloAcceleratorModel:
    """Costs POLONet's three execution paths on the POLO accelerator.

    The saccade RNN runs on every frame; the reuse check adds the XOR
    pass; a fresh prediction adds the pupil search and the gaze ViT.
    """

    def __init__(
        self,
        accelerator: "Accelerator | None" = None,
        frame_shape: tuple[int, int] = (400, 640),
        pool_m: int = 4,
        pupil_window: int = 5,
    ):
        self.accelerator = accelerator or polo_accelerator()
        if self.accelerator.ipu is None:
            raise ValueError("POLO accelerator model requires an IPU")
        self.frame_shape = frame_shape
        self.pool_m = pool_m
        self.pupil_window = pupil_window

    @property
    def map_shape(self) -> tuple[int, int]:
        return (self.frame_shape[0] // self.pool_m, self.frame_shape[1] // self.pool_m)

    def path_report(
        self,
        path: str,
        saccade_ops: list,
        vit_ops: "list | None" = None,
        binary_map: "np.ndarray | None" = None,
        tracer=None,
        t0_s: float = 0.0,
    ) -> PathReport:
        """Latency/energy of one frame on 'saccade', 'reuse', or 'predict'.

        With a ``tracer`` (see :mod:`repro.obs`), emits sim-clock
        per-stage spans on the accelerator track starting at ``t0_s``:
        the IPU datapath stages, the saccade RNN, and — on the predict
        path — the gaze ViT broken down into systolic / SFU /
        token-selector cycle shares from the mapper's schedule.  Tracing
        is read-only: the returned report is identical with or without a
        tracer.
        """
        acc = self.accelerator
        clock = acc.config.clock_hz
        if binary_map is None and path == "predict":
            # Worst-case white-pixel population for the pupil search: the
            # pupil disc occupies ~2% of the pooled map.
            h, w = self.map_shape
            binary_map = np.zeros((h, w), dtype=np.uint8)
            n_white = max(1, int(0.02 * h * w))
            binary_map.reshape(-1)[:n_white] = 1
        stage_reports = acc.ipu.frame_stage_costs(
            self.frame_shape, self.pool_m, binary_map, self.pupil_window, path
        )
        cycles = sum(r.cycles for r in stage_reports)
        energy = EnergyBreakdown()
        for r in stage_reports:
            energy = energy + r.energy
        ipu_report = IpuReport(path, cycles, energy)
        saccade_exec = acc.run(saccade_ops)
        total = acc.run_ipu(ipu_report) + saccade_exec
        vit_exec = None
        if path == "predict":
            if vit_ops is None:
                raise ValueError("predict path requires the gaze ViT workload")
            vit_exec = acc.run(vit_ops)
            total = total + vit_exec
        if tracer is not None and tracer.enabled:
            self._trace_stages(tracer, t0_s, clock, stage_reports, saccade_exec, vit_exec)
        abft_cycles = 0
        for exec_report in (saccade_exec, vit_exec):
            if exec_report is not None and exec_report.schedule is not None:
                abft_cycles += exec_report.schedule.abft_cycles
        return PathReport(
            path=path,
            latency_s=total.latency_s,
            energy=total.energy,
            cycles=total.cycles,
            abft_cycles=abft_cycles,
        )

    def _trace_stages(
        self,
        tracer,
        t0_s: float,
        clock_hz: float,
        stage_reports: list,
        saccade_exec: ExecutionReport,
        vit_exec: "ExecutionReport | None",
    ) -> None:
        t = t0_s
        for report in stage_reports:
            dur = report.cycles / clock_hz
            tracer.record_span(
                f"ipu.{report.task}", t, dur, cat="accel", pid=PID_ACCEL,
                args={"cycles": report.cycles},
            )
            t += dur
        tracer.record_span(
            "array.saccade_rnn", t, saccade_exec.latency_s, cat="accel",
            pid=PID_ACCEL, args={"cycles": saccade_exec.cycles},
        )
        t += saccade_exec.latency_s
        if vit_exec is None:
            return
        tracer.record_span(
            "array.gaze_vit", t, vit_exec.latency_s, cat="accel",
            pid=PID_ACCEL, args={"cycles": vit_exec.cycles},
        )
        schedule = vit_exec.schedule
        if schedule is not None:
            sub = t
            for name, cycles in (
                ("systolic", schedule.matmul_cycles),
                ("sfu", schedule.sfu_cycles),
                ("token_selector", schedule.elementwise_cycles),
            ):
                dur = cycles / clock_hz
                tracer.record_span(
                    f"array.gaze_vit.{name}", sub, dur, cat="accel",
                    pid=PID_ACCEL, tid=1, args={"cycles": cycles},
                )
                sub += dur
