"""Workload-to-engine mapping: op lists -> cycles, energy, traffic.

The mapper walks an op list (see :mod:`repro.hw.ops`), schedules GEMMs on
the systolic array and nonlinearities on the SFU, and charges SRAM
traffic for weights (loaded once, weight-stationary), streamed
activations, and written outputs.  It is shared by the POLO accelerator
and every baseline's dedicated accelerator, so cross-algorithm
comparisons differ only in array geometry, precision, and op lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.buffers import SramBuffer
from repro.hw.energy import EnergyBreakdown, EnergyTable
from repro.hw.ops import ElementwiseOp, MatMulOp, NonlinearOp
from repro.hw.sfu import SpecialFunctionUnit
from repro.hw.systolic import SystolicArray

_BYTES_PER_ELEM = {"int8": 1, "fp16": 2}


@dataclass
class ScheduleReport:
    """Result of mapping one workload."""

    cycles: int = 0
    matmul_cycles: int = 0
    sfu_cycles: int = 0
    elementwise_cycles: int = 0
    macs: int = 0
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    weight_bytes: int = 0
    activation_bytes: int = 0
    peak_macs_per_cycle: int = 1
    #: Cycles attributable to ABFT protection (checksum rows/columns on
    #: the array plus checksum generation and verification on the
    #: elementwise datapath).  Zero on unprotected schedules; always a
    #: subset of ``cycles`` so overhead fractions are exact.
    abft_cycles: int = 0

    @property
    def utilization(self) -> float:
        """Achieved fraction of peak MAC throughput over the whole run."""
        if self.cycles == 0:
            return 0.0
        return self.macs / (self.cycles * self.peak_macs_per_cycle)

    def __add__(self, other: "ScheduleReport") -> "ScheduleReport":
        return ScheduleReport(
            peak_macs_per_cycle=max(self.peak_macs_per_cycle, other.peak_macs_per_cycle),
            cycles=self.cycles + other.cycles,
            matmul_cycles=self.matmul_cycles + other.matmul_cycles,
            sfu_cycles=self.sfu_cycles + other.sfu_cycles,
            elementwise_cycles=self.elementwise_cycles + other.elementwise_cycles,
            macs=self.macs + other.macs,
            energy=self.energy + other.energy,
            weight_bytes=self.weight_bytes + other.weight_bytes,
            activation_bytes=self.activation_bytes + other.activation_bytes,
            abft_cycles=self.abft_cycles + other.abft_cycles,
        )


class WorkloadMapper:
    """Maps op lists onto one array + SFU + buffer configuration."""

    def __init__(
        self,
        array: SystolicArray,
        sfu: "SpecialFunctionUnit | None" = None,
        energy: "EnergyTable | None" = None,
        act_buffer: "SramBuffer | None" = None,
        weight_buffer: "SramBuffer | None" = None,
        elementwise_per_cycle: int = 16,
        abft: bool = False,
    ):
        self.array = array
        self.sfu = sfu or SpecialFunctionUnit()
        self.energy_table = energy or EnergyTable()
        self.act_buffer = act_buffer or SramBuffer("activation", 128, self.energy_table)
        self.weight_buffer = weight_buffer or SramBuffer("weight", 128, self.energy_table)
        self.elementwise_per_cycle = elementwise_per_cycle
        #: Cost every GEMM as its Huang–Abraham-augmented form plus
        #: checksum generation/verification passes (see :meth:`map`).
        self.abft = abft

    @property
    def bytes_per_elem(self) -> int:
        return _BYTES_PER_ELEM[self.array.precision]

    def map(self, ops: list) -> ScheduleReport:
        """Schedule the op list; ops execute back-to-back (no overlap)."""
        report = ScheduleReport(peak_macs_per_cycle=self.array.macs_per_cycle)
        mac_pj = self.energy_table.mac_pj(self.array.precision)
        for op in ops:
            if isinstance(op, MatMulOp):
                exec_op = self.array.abft_op(op) if self.abft else op
                cycles = self.array.cycles(exec_op)
                report.matmul_cycles += cycles
                report.macs += exec_op.macs
                report.energy = report.energy + EnergyBreakdown(
                    mac_j=exec_op.macs * mac_pj * 1e-12
                )
                w_bytes = self.array.weight_loads(exec_op) * self.bytes_per_elem
                a_bytes = (
                    self.array.activation_reads(exec_op)
                    + self.array.output_writes(exec_op)
                ) * self.bytes_per_elem
                report.weight_bytes += w_bytes
                report.activation_bytes += a_bytes
                report.energy = report.energy + EnergyBreakdown(
                    buffer_j=self.weight_buffer.access(w_bytes)
                    + self.act_buffer.access(a_bytes)
                )
                if self.abft:
                    # Checksum generation (column sums of A, row sums of
                    # B) and product verification (row + column sums of
                    # the augmented C against the stored checksums) run
                    # on the elementwise adder datapath; the augmented
                    # GEMM's extra row/column is array work.  All of it
                    # lands in ``abft_cycles`` so ``path_report`` can
                    # state the protection overhead exactly.
                    verify_adds = (
                        op.m * op.k
                        + op.k * op.n
                        + 2 * (op.m + 1) * (op.n + 1)
                    )
                    verify_cycles = max(
                        1, verify_adds // self.elementwise_per_cycle
                    )
                    report.elementwise_cycles += verify_cycles
                    v_bytes = (op.m + 1) * (op.n + 1) * self.bytes_per_elem
                    report.activation_bytes += v_bytes
                    report.energy = report.energy + EnergyBreakdown(
                        buffer_j=self.act_buffer.access(v_bytes),
                        other_j=verify_adds
                        * 0.05
                        * self.energy_table.sfu_op_pj
                        * 1e-12,
                    )
                    report.abft_cycles += (
                        cycles - self.array.cycles(op) + verify_cycles
                    )
            elif isinstance(op, NonlinearOp):
                cycles = self.sfu.cycles(op)
                report.sfu_cycles += cycles
                report.energy = report.energy + EnergyBreakdown(
                    sfu_j=self.sfu.energy_weight_for(op)
                    * self.energy_table.sfu_op_pj
                    * 1e-12
                )
                a_bytes = 2 * op.count * self.bytes_per_elem  # read + write
                report.activation_bytes += a_bytes
                report.energy = report.energy + EnergyBreakdown(
                    buffer_j=self.act_buffer.access(a_bytes)
                )
            elif isinstance(op, ElementwiseOp):
                cycles = max(1, op.count // self.elementwise_per_cycle)
                report.elementwise_cycles += cycles
                a_bytes = 3 * op.count * self.bytes_per_elem
                report.activation_bytes += a_bytes
                report.energy = report.energy + EnergyBreakdown(
                    buffer_j=self.act_buffer.access(a_bytes),
                    other_j=op.count * 0.05 * self.energy_table.sfu_op_pj * 1e-12,
                )
            else:
                raise TypeError(f"unsupported op type {type(op).__name__}")
        report.cycles = (
            report.matmul_cycles + report.sfu_cycles + report.elementwise_cycles
        )
        return report
