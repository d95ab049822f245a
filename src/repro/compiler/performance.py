"""Static performance prediction.

Because schedules are fully static (constant-trip loops, fixed block
lengths, compile-time skew), a compiled program's run time and operation
counts are *computable at compile time* — the simulator must then agree
exactly.  This module produces that prediction; a test asserts
prediction == observation for every program, which is itself a strong
check on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cellcodegen.emit import OpCounts
from .driver import CompiledProgram


@dataclass(frozen=True)
class PerformancePrediction:
    """Compile-time prediction of one run."""

    n_cells: int
    skew: int
    cycles_per_cell: int
    total_cycles: int
    #: Dynamic operation counts per cell.
    alu_ops: int
    mpy_ops: int
    mem_reads: int
    mem_writes: int
    receives: int
    sends: int

    @property
    def fp_ops_per_cell(self) -> int:
        return self.alu_ops + self.mpy_ops

    @property
    def array_fp_ops(self) -> int:
        return self.fp_ops_per_cell * self.n_cells

    @property
    def fp_ops_per_cycle(self) -> float:
        """Aggregate arithmetic rate of the whole array."""
        return self.array_fp_ops / max(self.total_cycles, 1)

    @property
    def peak_fraction(self) -> float:
        """Fraction of the machine's peak (2 FP issues/cycle/cell)."""
        return self.fp_ops_per_cycle / (2 * self.n_cells)


def predict_performance(program: CompiledProgram) -> PerformancePrediction:
    """Compute the run-time facts of one execution at compile time, from
    the same per-run operation totals the simulator counts
    (:meth:`~repro.cellcodegen.emit.OpCounts.of_run`)."""
    counts = OpCounts.of_run(program.cell_code)
    cycles = program.cell_code.total_cycles
    return PerformancePrediction(
        n_cells=program.n_cells,
        skew=program.skew.skew,
        cycles_per_cell=cycles,
        total_cycles=cycles + program.skew.skew * (program.n_cells - 1),
        alu_ops=counts.alu_ops,
        mpy_ops=counts.mpy_ops,
        mem_reads=counts.mem_reads,
        mem_writes=counts.mem_writes,
        receives=sum(counts.receives.values()),
        sends=sum(counts.sends.values()),
    )


def format_performance(prediction: PerformancePrediction) -> str:
    lines = [
        f"{prediction.n_cells} cells, skew {prediction.skew}: "
        f"{prediction.total_cycles} cycles",
        f"per cell: {prediction.alu_ops} ALU + {prediction.mpy_ops} MPY ops, "
        f"{prediction.mem_reads}R/{prediction.mem_writes}W memory, "
        f"{prediction.receives} receives / {prediction.sends} sends",
        f"array rate: {prediction.fp_ops_per_cycle:.2f} FP ops/cycle "
        f"({prediction.peak_fraction:.1%} of peak)",
    ]
    return "\n".join(lines)
