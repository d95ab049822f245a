"""Assembling scheduled blocks into cell microcode.

The output mirrors the program tree: a sequence of
:class:`ScheduledBlock` (straight-line microcode) and
:class:`ScheduledLoop` (constant-trip loops whose bodies are again
sequences).  The cell sequencer executes loops with zero overhead — the
loop branch rides in the control field of the last body instruction, and
the continue/exit decision comes from the IU's loop signal
(Section 6.3.1).

Emission also produces the two streams later phases consume:

* ``addr_demands`` — for every memory reference whose address is not a
  compile-time constant, the cycle (within the block) at which the cell
  dequeues the address from the IU path, plus the affine expression the
  IU must compute (Section 6.3.2's deadlines);
* ``io_events`` — the cycle of every send/receive, feeding the
  five-vector timing characterisation of Section 6.2.1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Union

from ..errors import RegisterPressureError
from ..ir.builder import CellProgramIR
from ..ir.dag import Dag, OpKind, QueueRef
from ..ir.tree import BasicBlock, Loop, TreeNode
from ..lang.ast import Channel
from ..lang.semantic import AffineIndex, affine_add, affine_const
from ..config import CellConfig
from .isa import (
    AddressSource,
    AluOp,
    DeqOp,
    EnqOp,
    Lit,
    LoopMark,
    LoopMarkKind,
    MemOp,
    MicroInstr,
    MoveOp,
    MpyOp,
    Reg,
)
from .layout import MemoryLayout, layout_memory
from .regalloc import allocate_registers, resolve_operand
from .schedule import BlockSchedule, schedule_block


@dataclass(frozen=True)
class AddressDemand:
    """An address the IU must deliver: ``cycle`` within the block, and the
    affine expression (over enclosing loop indices) of the word address."""

    cycle: int
    expression: AffineIndex
    is_load: bool


@dataclass(frozen=True)
class IOEvent:
    """One send/receive in a block schedule."""

    cycle: int
    io_index: int
    kind: OpKind  # RECV or SEND
    queue: QueueRef


@dataclass
class ScheduledBlock:
    block_id: int
    instructions: list[MicroInstr]
    length: int
    addr_demands: list[AddressDemand] = field(default_factory=list)
    io_events: list[IOEvent] = field(default_factory=list)


@dataclass
class ScheduledLoop:
    loop_id: int
    var: str
    start: int
    step: int
    trip: int
    body: list["ScheduledItem"] = field(default_factory=list)


ScheduledItem = Union[ScheduledBlock, ScheduledLoop]


@dataclass
class CellCode:
    """The complete microcode of one (every) Warp cell."""

    items: list[ScheduledItem]
    layout: MemoryLayout
    pinned: dict[str, Reg]
    config: CellConfig
    max_live_registers: int = 0

    def blocks(self):
        return (block for block, _runs in block_runs(self.items))

    @property
    def n_instructions(self) -> int:
        """Static microcode length (the Table 7-1 "cell ucode" metric)."""
        return sum(len(block.instructions) for block in self.blocks())

    @property
    def total_cycles(self) -> int:
        """Execution time of the whole program on one cell."""
        return pass_cycles(self.items)


def block_runs(items: list, runs: int = 1):
    """``(block, runs)`` of every block of the loop tree ``items``, in
    program order: how many times a block runs when ``items`` run
    ``runs`` times.  A loop is an item with a ``body`` (``ScheduledLoop``,
    ``IULoop``), run ``trip`` times per pass."""
    for item in items:
        body = getattr(item, "body", None)
        if body is None:
            yield item, runs
        else:
            yield from block_runs(body, runs * item.trip)


def pass_cycles(items: list) -> int:
    """The cycles of one pass over the loop tree ``items``."""
    return sum(runs * block.length for block, runs in block_runs(items))


@dataclass(frozen=True)
class OpCounts:
    """Operations issued per unit and per channel, by one pass of a
    scheduled block (:meth:`of`) or by one cell run (:meth:`of_run`)."""

    #: Number of non-nop instructions (the issue cycles).
    issued: int
    alu_ops: int
    mpy_ops: int
    mem_reads: int
    mem_writes: int
    sends: Counter[Channel]
    receives: Counter[Channel]

    @classmethod
    def of(cls, block: ScheduledBlock) -> "OpCounts":
        instrs = [i for i in block.instructions if not i.is_nop()]
        return cls(
            issued=len(instrs),
            alu_ops=sum(i.alu is not None for i in instrs),
            mpy_ops=sum(i.mpy is not None for i in instrs),
            mem_reads=sum(m.is_load for i in instrs for m in i.mem),
            mem_writes=sum(not m.is_load for i in instrs for m in i.mem),
            sends=Counter(op.queue.channel for i in instrs for op in i.enqs),
            receives=Counter(
                op.queue.channel for i in instrs for op in i.deqs
            ),
        )

    @classmethod
    def of_run(
        cls, code: CellCode, blocks: Mapping[int, OpCounts] | None = None
    ) -> OpCounts:
        """Operations one cell run of ``code`` issues: each block's
        totals times its executions.  The schedule is data-independent,
        so these are static; the compile-time prediction, the
        simulator's plan and every cell run share them.  ``blocks`` maps
        block ids to totals already computed (the plan's blocks)."""
        if blocks is None:
            blocks = {block.block_id: cls.of(block) for block in code.blocks()}
        runs = [(blocks[b.block_id], n) for b, n in block_runs(code.items)]
        sends: Counter[Channel] = Counter()
        receives: Counter[Channel] = Counter()
        for counts, n in runs:
            sends.update({ch: n * k for ch, k in counts.sends.items()})
            receives.update({ch: n * k for ch, k in counts.receives.items()})
        return cls(
            issued=sum(n * c.issued for c, n in runs),
            alu_ops=sum(n * c.alu_ops for c, n in runs),
            mpy_ops=sum(n * c.mpy_ops for c, n in runs),
            mem_reads=sum(n * c.mem_reads for c, n in runs),
            mem_writes=sum(n * c.mem_writes for c, n in runs),
            sends=sends,
            receives=receives,
        )


class CellCodeGenerator:
    """Drive scheduling, register allocation and emission for a program."""

    def __init__(self, ir: CellProgramIR, config: CellConfig):
        self._ir = ir
        self._config = config
        self._layout = layout_memory(
            ir.arrays, memory_scalars=set(), config=config
        )
        # Pinned registers: one per scalar, then the temp pool.
        self._pinned = {
            name: Reg(index) for index, name in enumerate(ir.scalars)
        }
        n_pinned = len(self._pinned)
        if n_pinned + 8 > config.n_registers:
            raise RegisterPressureError(
                needed=n_pinned + 8, available=config.n_registers
            )
        self._temp_pool = list(range(n_pinned, config.n_registers))
        self._max_live = 0

    def generate(self) -> CellCode:
        items = [self._emit_item(item) for item in self._ir.tree.items]
        _attach_loop_marks(items)
        return CellCode(
            items=items,
            layout=self._layout,
            pinned=self._pinned,
            config=self._config,
            max_live_registers=self._max_live,
        )

    def _emit_item(self, item: TreeNode) -> ScheduledItem:
        if isinstance(item, BasicBlock):
            return self._emit_block(item)
        assert isinstance(item, Loop)
        return ScheduledLoop(
            loop_id=item.loop_id,
            var=item.var,
            start=item.start,
            step=item.step,
            trip=item.trip,
            body=[self._emit_item(child) for child in item.body],
        )

    def _emit_block(self, block: BasicBlock) -> ScheduledBlock:
        schedule = schedule_block(block.dag, self._config)
        assignment = allocate_registers(
            schedule, block.dag, self._pinned, self._temp_pool
        )
        self._max_live = max(self._max_live, assignment.max_live)
        return self._assemble(block.dag, block.block_id, schedule, assignment)

    def _assemble(
        self,
        dag: Dag,
        block_id: int,
        schedule: BlockSchedule,
        assignment,
    ) -> ScheduledBlock:
        instructions = [MicroInstr() for _ in range(schedule.length)]
        demands: list[AddressDemand] = []
        io_events: list[IOEvent] = []

        def operand(operand_id: int):
            return resolve_operand(
                operand_id, schedule, dag, self._pinned, assignment
            )

        for item_id in sorted(
            schedule.items, key=lambda i: (schedule.items[i].cycle, i)
        ):
            item = schedule.items[item_id]
            instr = instructions[item.cycle]
            if item.kind == "alu":
                assert item.node is not None
                instr.alu = AluOp(
                    op=item.node.op,
                    dest=assignment.dest(item_id),
                    sources=tuple(operand(o) for o in item.operands),
                )
            elif item.kind == "mpy":
                assert item.node is not None
                instr.mpy = MpyOp(
                    op=item.node.op,
                    dest=assignment.dest(item_id),
                    sources=tuple(operand(o) for o in item.operands),
                )
            elif item.kind == "mem":
                assert item.node is not None
                ref = item.node.attr
                address = affine_add(
                    affine_const(self._layout.base(ref.array)), ref.index
                )
                is_load = item.node.op is OpKind.LOAD
                if address.is_constant:
                    mem_op = MemOp(
                        is_load=is_load,
                        address_source=AddressSource.LITERAL,
                        address=address.constant,
                        reg=assignment.dest(item_id) if is_load else None,
                        store_value=None if is_load else operand(item.operands[0]),
                    )
                else:
                    demands.append(
                        AddressDemand(
                            cycle=item.cycle, expression=address, is_load=is_load
                        )
                    )
                    mem_op = MemOp(
                        is_load=is_load,
                        address_source=AddressSource.QUEUE,
                        address=None,
                        reg=assignment.dest(item_id) if is_load else None,
                        store_value=None if is_load else operand(item.operands[0]),
                    )
                instr.mem.append(mem_op)
            elif item.kind == "deq":
                assert item.node is not None
                instr.deqs.append(
                    DeqOp(queue=item.node.attr, dest=assignment.dest(item_id))
                )
                io_events.append(
                    IOEvent(
                        cycle=item.cycle,
                        io_index=item.node.io_index,
                        kind=OpKind.RECV,
                        queue=item.node.attr,
                    )
                )
            elif item.kind == "enq":
                assert item.node is not None
                instr.enqs.append(
                    EnqOp(queue=item.node.attr, source=operand(item.operands[0]))
                )
                io_events.append(
                    IOEvent(
                        cycle=item.cycle,
                        io_index=item.node.io_index,
                        kind=OpKind.SEND,
                        queue=item.node.attr,
                    )
                )
            elif item.kind == "move":
                instr.move = MoveOp(
                    dest=assignment.dest(item_id),
                    source=operand(item.operands[0]),
                )
            else:  # pragma: no cover
                raise ValueError(f"unknown item kind {item.kind}")

        demands.sort(key=lambda d: d.cycle)
        io_events.sort(key=lambda e: (e.cycle, e.io_index))
        return ScheduledBlock(
            block_id=block_id,
            instructions=instructions,
            length=schedule.length,
            addr_demands=demands,
            io_events=io_events,
        )


def _attach_loop_marks(items: list[ScheduledItem]) -> None:
    """Decorate first/last body instructions with loop begin/end marks
    (display fidelity; the simulator walks the structured tree)."""
    for item in items:
        if isinstance(item, ScheduledLoop):
            _attach_loop_marks(item.body)
            first = _first_block(item.body)
            last = _last_block(item.body)
            if first is not None and first.instructions:
                first.instructions[0].control.insert(
                    0, LoopMark(LoopMarkKind.BEGIN, item.loop_id)
                )
            if last is not None and last.instructions:
                last.instructions[-1].control.append(
                    LoopMark(LoopMarkKind.END, item.loop_id)
                )


def _first_block(items: list[ScheduledItem]) -> ScheduledBlock | None:
    for item in items:
        if isinstance(item, ScheduledBlock):
            return item
        found = _first_block(item.body)
        if found is not None:
            return found
    return None


def _last_block(items: list[ScheduledItem]) -> ScheduledBlock | None:
    for item in reversed(items):
        if isinstance(item, ScheduledBlock):
            return item
        found = _last_block(item.body)
        if found is not None:
            return found
    return None


def generate_cell_code(ir: CellProgramIR, config: CellConfig) -> CellCode:
    """Generate Warp-cell microcode for a lowered program."""
    return CellCodeGenerator(ir, config).generate()
