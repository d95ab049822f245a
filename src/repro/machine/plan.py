"""Static, reusable simulation state derived from one compiled program.

Everything here is a pure function of the :class:`CompiledProgram` —
independent of the cell index, the input data and the run — so one
:class:`ExecutionPlan` is shared by all cells of a run and by every run
of a batch:

* **Skip-idle block plans.**  Scheduled blocks are dominated by nop
  cycles (latency bubbles and drain ranges; 30–50% of instruction slots
  on the Table 7-1 programs).  A :class:`BlockPlan` keeps only the
  issuing cycles, so the executor jumps from one active cycle to the
  next instead of ticking through provably idle ranges — the cycle
  arithmetic is unchanged because each active instruction carries its
  offset and the block's total length still advances the clock.
* **The IU address schedule** (``emissions``), identical for every cell
  up to the per-hop delay, rather than re-walked per run.
* **The host I/O sequences** (input references and output bindings per
  channel), rather than re-derived from the host program per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from ..analysis.local_opt import pure_evaluator
from ..cellcodegen.emit import CellCode, ScheduledBlock
from ..cellcodegen.isa import (
    AddressSource,
    DeqOp,
    EnqOp,
    MemOp,
    MicroInstr,
    MoveOp,
    Operand,
    Reg,
)
from ..ir.dag import OpKind
from ..lang.ast import Channel

if TYPE_CHECKING:  # pragma: no cover - circular import at run time
    from ..compiler.driver import CompiledProgram
    from ..hostcodegen.io_program import HostBinding, HostValueRef
    from .tape import ValueTape


@dataclass(slots=True)
class DecodedInstr:
    """One issuing micro-instruction, pre-decoded for execution.

    Decoding resolves everything that is the same on every dynamic
    issue — the load/store split, the pure-op evaluation functions, the
    operand tuples — so the executor's hot loop does no dispatch, only
    state updates.  ``instr`` stays attached for tracing and listings.
    """

    cycle: int
    instr: MicroInstr
    deqs: tuple[DeqOp, ...]
    loads: tuple[MemOp, ...]
    stores: tuple[MemOp, ...]
    #: Queue-addressed memory ops in *slot order* — the order the IU
    #: emits their addresses (``addr_demands`` is stably sorted by
    #: cycle, so same-cycle addresses arrive in instruction-slot
    #: order).  The executor must dequeue addresses in this order even
    #: though it applies loads before stores.
    addressed: tuple[MemOp, ...]
    #: ``(evaluator, sources, dest)`` or ``None``.
    alu: tuple[Callable[..., float], tuple[Operand, ...], Reg] | None
    #: ``(evaluator, sources, dest, is_divide)`` or ``None``.
    mpy: tuple[Callable[..., float], tuple[Operand, ...], Reg, bool] | None
    move: MoveOp | None
    enqs: tuple[EnqOp, ...]

    @classmethod
    def of(cls, cycle: int, instr: MicroInstr) -> "DecodedInstr":
        alu = mpy = None
        if instr.alu is not None:
            fn = pure_evaluator(instr.alu.op)
            assert fn is not None, instr.alu.op
            alu = (fn, tuple(instr.alu.sources), instr.alu.dest)
        if instr.mpy is not None:
            fn = pure_evaluator(instr.mpy.op)
            assert fn is not None, instr.mpy.op
            mpy = (
                fn,
                tuple(instr.mpy.sources),
                instr.mpy.dest,
                instr.mpy.op is OpKind.FDIV,
            )
        return cls(
            cycle=cycle,
            instr=instr,
            deqs=tuple(instr.deqs),
            loads=tuple(m for m in instr.mem if m.is_load),
            stores=tuple(m for m in instr.mem if not m.is_load),
            addressed=tuple(
                m
                for m in instr.mem
                if m.address_source is not AddressSource.LITERAL
            ),
            alu=alu,
            mpy=mpy,
            move=instr.move,
            enqs=tuple(instr.enqs),
        )


@dataclass(frozen=True)
class BlockPlan:
    """One scheduled block, reduced to its issuing cycles."""

    length: int
    #: Number of non-nop instructions (the block's issue count).
    issued: int
    #: The non-nop instructions, pre-decoded, in cycle order.
    active: tuple[DecodedInstr, ...]

    @classmethod
    def of(cls, block: ScheduledBlock) -> "BlockPlan":
        active = tuple(
            DecodedInstr.of(cycle, instr)
            for cycle, instr in enumerate(block.instructions)
            if not instr.is_nop()
        )
        return cls(length=block.length, issued=len(active), active=active)


def block_plans(code: CellCode) -> dict[int, BlockPlan]:
    """A :class:`BlockPlan` per static block of ``code``."""
    return {block.block_id: BlockPlan.of(block) for block in code.blocks()}


def static_io_counts(items) -> tuple[dict[Channel, int], dict[Channel, int]]:
    """Exact per-channel (sends, receives) of one cell's full run.

    Schedules are data-independent, so these counts are a static
    property of the code tree: every cell enqueues exactly
    ``sends[channel]`` words per run.  The stream-accounting guard in
    :meth:`~repro.machine.array.WarpMachine.run` compares each
    inter-cell link against them — a dropped or duplicated send shows up
    as a count divergence even when it would not underflow anything.
    """
    sends = {Channel.X: 0, Channel.Y: 0}
    receives = {Channel.X: 0, Channel.Y: 0}
    for item in items:
        if isinstance(item, ScheduledBlock):
            for instr in item.instructions:
                for enq in instr.enqs:
                    sends[enq.queue.channel] += 1
                for deq in instr.deqs:
                    receives[deq.queue.channel] += 1
        else:
            inner_sends, inner_receives = static_io_counts(item.body)
            for channel in (Channel.X, Channel.Y):
                sends[channel] += inner_sends[channel] * item.trip
                receives[channel] += inner_receives[channel] * item.trip
    return sends, receives


class ExecutionPlan:
    """All static per-program simulation state, computed once."""

    def __init__(self, program: "CompiledProgram"):
        self.blocks: dict[int, BlockPlan] = block_plans(program.cell_code)
        #: ``(emit_time, deadline, address)`` per dynamic IU emission.
        self.emissions: list[tuple[int, int, int]] = list(
            program.iu_program.emission_times()
        )
        #: The emission schedule split into parallel time/value lists so
        #: a cell's address queue is a couple of list copies, not a
        #: per-item enqueue loop.
        self.emission_times: list[int] = [t for t, _d, _a in self.emissions]
        self.emission_values: list[float] = [
            float(a) for _t, _d, a in self.emissions
        ]
        self.input_refs: dict[Channel, list["HostValueRef"]] = {
            channel: list(program.host_program.input_sequence(channel))
            for channel in (Channel.X, Channel.Y)
        }
        self.output_bindings: dict[Channel, list["HostBinding"]] = {
            channel: list(program.host_program.output_bindings(channel))
            for channel in (Channel.X, Channel.Y)
        }
        #: Static per-channel I/O counts of one cell run, used by the
        #: stream-accounting guard (every inter-cell link must carry
        #: exactly ``sends_per_run[channel]`` words).
        self.sends_per_run, self.receives_per_run = static_io_counts(
            program.cell_code.items
        )
        #: The value tape of one clean run (:mod:`.tape`), recorded on
        #: first use by :meth:`~repro.machine.array.WarpMachine.value_tape`;
        #: ``False`` once the recording run has failed.
        self.tape: "ValueTape | bool | None" = None

    @property
    def skipped_slots(self) -> int:
        """Instruction slots the fast path never visits (nop cycles)."""
        return sum(
            plan.length - plan.issued for plan in self.blocks.values()
        )
