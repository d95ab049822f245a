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

from ..cellcodegen.emit import CellCode, OpCounts, block_runs
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
    """Compute the run-time facts of one execution at compile time: each
    block's operation totals times its executions, as the simulator's
    :class:`~repro.machine.plan.ExecutionPlan` counts them."""
    code: CellCode = program.cell_code
    counts = {block.block_id: OpCounts.of(block) for block in code.blocks()}
    runs = [(counts[block_id], n) for block_id, n in block_runs(code.items)]
    cycles = code.total_cycles
    return PerformancePrediction(
        n_cells=program.n_cells,
        skew=program.skew.skew,
        cycles_per_cell=cycles,
        total_cycles=cycles + program.skew.skew * (program.n_cells - 1),
        alu_ops=sum(n * c.alu_ops for c, n in runs),
        mpy_ops=sum(n * c.mpy_ops for c, n in runs),
        mem_reads=sum(n * c.mem_reads for c, n in runs),
        mem_writes=sum(n * c.mem_writes for c, n in runs),
        receives=sum(n * sum(c.receives.values()) for c, n in runs),
        sends=sum(n * sum(c.sends.values()) for c, n in runs),
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
