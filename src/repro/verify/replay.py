"""Per-block replay of the emitted microcode — hazard and lifetime checks.

This module re-derives, from the instruction words alone, everything the
scheduler was supposed to guarantee inside one block (Section 6.1's
scheduling constraints), and cross-checks the block's side metadata
(``addr_demands``, ``io_events``) against the instructions that
supposedly produced it:

* **structural hazards** — per-cycle resource caps (one ALU op, one
  multiplier op, ``mem_ports`` memory references, one crossbar move, one
  distinct literal value, one enqueue and one dequeue per queue);
* **memory hazards** — same-cycle references to one literal address that
  mix a store with anything else (the executor's load-before-store
  order within a cycle would make the outcome order-dependent);
* **register lifetimes** — with delayed writeback (latency ``L`` lands
  the value at ``issue + L``), a register must never be read strictly
  between a write's issue and its landing (the value is in flight and
  the read is timing-ambiguous), two writes to one register must land
  in issue order, and a temp register must not be read before its first
  in-block write lands (temps carry no value across blocks);
* **drain** — every in-flight effect lands within the block's length,
  so loop iterations and successor blocks start from settled state;
* **slot order** — the ``addr_demands`` cycles/kinds equal the
  queue-addressed memory operations in instruction-slot order (the
  PR 3 bug class), and ``io_events`` equals the sends/receives actually
  present in the instruction words.

Everything reads ``CellCode`` only — never the IR that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cellcodegen.emit import CellCode, ScheduledBlock
from ..cellcodegen.isa import AddressSource, Lit, MicroInstr, Reg
from ..config import CellConfig
from ..ir.dag import OpKind, QueueRef
from .report import VerificationReport


@dataclass(frozen=True)
class RegWrite:
    """One register write derived from an instruction field."""

    issue: int
    landing: int
    reg: int
    unit: str  # 'alu' | 'mpy' | 'load' | 'deq' | 'move'


@dataclass
class BlockReplay:
    """Everything later verifier stages need from one block's replay."""

    block_id: int
    length: int
    #: ``(cycle, is_load)`` of queue-addressed memory ops, in
    #: instruction-slot order.
    addr_ops: list[tuple[int, bool]] = field(default_factory=list)
    #: ``(kind, queue) -> cycles`` of the I/O ops actually present
    #: in the instruction words, in slot order.
    io_ops: dict[tuple[OpKind, QueueRef], list[int]] = field(default_factory=dict)


def _landing(issue: int, latency: int) -> int:
    # All effects take at least one cycle to land.
    return issue + max(latency, 1)


def _register_writes(
    cycle: int, instr: MicroInstr, config: CellConfig
) -> list[RegWrite]:
    writes: list[RegWrite] = []
    for deq in instr.deqs:
        writes.append(
            RegWrite(
                cycle,
                _landing(cycle, config.queue_latency),
                deq.dest.index,
                "deq",
            )
        )
    for mem in instr.mem:
        if mem.is_load and mem.reg is not None:
            writes.append(
                RegWrite(
                    cycle,
                    _landing(cycle, config.mem_read_latency),
                    mem.reg.index,
                    "load",
                )
            )
    if instr.alu is not None:
        writes.append(
            RegWrite(
                cycle,
                _landing(cycle, config.alu_latency),
                instr.alu.dest.index,
                "alu",
            )
        )
    if instr.mpy is not None:
        latency = (
            config.div_latency
            if instr.mpy.op is OpKind.FDIV
            else config.mpy_latency
        )
        writes.append(
            RegWrite(cycle, _landing(cycle, latency), instr.mpy.dest.index, "mpy")
        )
    if instr.move is not None:
        writes.append(
            RegWrite(
                cycle,
                _landing(cycle, config.move_latency),
                instr.move.dest.index,
                "move",
            )
        )
    return writes


def _register_reads(cycle: int, instr: MicroInstr) -> list[tuple[int, int]]:
    reads: list[tuple[int, int]] = []

    def operand(op) -> None:
        if isinstance(op, Reg):
            reads.append((cycle, op.index))

    if instr.alu is not None:
        for source in instr.alu.sources:
            operand(source)
    if instr.mpy is not None:
        for source in instr.mpy.sources:
            operand(source)
    if instr.move is not None:
        operand(instr.move.source)
    for enq in instr.enqs:
        operand(enq.source)
    for mem in instr.mem:
        if not mem.is_load and mem.store_value is not None:
            operand(mem.store_value)
    return reads


def _literal_values(instr: MicroInstr) -> set[str]:
    values: set[str] = set()  # by bits: 0.0 and -0.0 take two fields

    def operand(op) -> None:
        if isinstance(op, Lit):
            values.add(float(op.value).hex())

    if instr.alu is not None:
        for source in instr.alu.sources:
            operand(source)
    if instr.mpy is not None:
        for source in instr.mpy.sources:
            operand(source)
    if instr.move is not None:
        operand(instr.move.source)
    for enq in instr.enqs:
        operand(enq.source)
    for mem in instr.mem:
        if not mem.is_load and mem.store_value is not None:
            operand(mem.store_value)
    return values


def _check_structural(
    block: ScheduledBlock,
    cycle: int,
    instr: MicroInstr,
    config: CellConfig,
    report: VerificationReport,
) -> None:
    if len(instr.mem) > config.mem_ports:
        report.add(
            "hazard.mem_ports",
            f"{len(instr.mem)} memory references in one cycle "
            f"(the cell has {config.mem_ports} ports)",
            block_id=block.block_id,
            cycle=cycle,
        )
    literals = _literal_values(instr)
    if len(literals) > config.literal_ports:
        report.add(
            "hazard.literal_ports",
            f"{len(literals)} distinct literal values in one "
            f"instruction (one literal field)",
            block_id=block.block_id,
            cycle=cycle,
        )
    per_queue_enq: dict[QueueRef, int] = {}
    per_queue_deq: dict[QueueRef, int] = {}
    for enq in instr.enqs:
        per_queue_enq[enq.queue] = per_queue_enq.get(enq.queue, 0) + 1
    for deq in instr.deqs:
        per_queue_deq[deq.queue] = per_queue_deq.get(deq.queue, 0) + 1
    for queue, count in per_queue_enq.items():
        if count > 1:
            report.add(
                "hazard.queue_ports",
                f"{count} enqueues to {queue} in one cycle",
                block_id=block.block_id,
                cycle=cycle,
            )
    for queue, count in per_queue_deq.items():
        if count > 1:
            report.add(
                "hazard.queue_ports",
                f"{count} dequeues from {queue} in one cycle",
                block_id=block.block_id,
                cycle=cycle,
            )
    # Same-cycle references to one literal address: the executor applies
    # loads before stores within a cycle, so a store paired with any
    # other reference to the same word is order-sensitive.
    touched: dict[int, list[bool]] = {}
    for mem in instr.mem:
        if mem.address_source is AddressSource.LITERAL:
            assert mem.address is not None
            if not (0 <= mem.address < config.memory_words):
                report.add(
                    "hazard.address_bounds",
                    f"literal address {mem.address} outside the "
                    f"{config.memory_words}-word data memory",
                    block_id=block.block_id,
                    cycle=cycle,
                )
            touched.setdefault(mem.address, []).append(mem.is_load)
    for address, kinds in touched.items():
        if len(kinds) > 1 and not all(kinds):
            report.add(
                "hazard.mem_conflict",
                f"same-cycle store and {'load' if any(kinds) else 'store'} "
                f"to address {address}",
                block_id=block.block_id,
                cycle=cycle,
            )


def _check_registers(
    block: ScheduledBlock,
    writes: list[RegWrite],
    reads: list[tuple[int, int]],
    pinned: set[int],
    report: VerificationReport,
) -> None:
    by_reg: dict[int, list[RegWrite]] = {}
    for write in writes:
        by_reg.setdefault(write.reg, []).append(write)
    reads_by_reg: dict[int, list[int]] = {}
    for cycle, reg in reads:
        reads_by_reg.setdefault(reg, []).append(cycle)

    for reg, reg_writes in by_reg.items():
        reg_writes.sort(key=lambda w: (w.issue, w.landing))
        for first, second in zip(reg_writes, reg_writes[1:]):
            if second.issue == first.issue:
                report.add(
                    "register.waw_same_cycle",
                    f"two writes to r{reg} issue in cycle {first.issue} "
                    f"({first.unit} and {second.unit})",
                    block_id=block.block_id,
                    cycle=first.issue,
                )
            elif second.landing <= first.landing:
                report.add(
                    "register.waw_order",
                    f"r{reg}: the {second.unit} write issued at cycle "
                    f"{second.issue} lands at {second.landing}, not after "
                    f"the {first.unit} write issued at {first.issue} "
                    f"(lands {first.landing}) — final value is "
                    "issue-order-inverted",
                    block_id=block.block_id,
                    cycle=second.issue,
                )
        if block.length < reg_writes[-1].landing:
            report.add(
                "register.drain",
                f"r{reg}: a {reg_writes[-1].unit} write issued at cycle "
                f"{reg_writes[-1].issue} lands at {reg_writes[-1].landing}, "
                f"past the block's {block.length}-cycle window",
                block_id=block.block_id,
                cycle=reg_writes[-1].issue,
            )

    for reg, cycles in reads_by_reg.items():
        reg_writes = by_reg.get(reg, [])
        first_landing = reg_writes[0].landing if reg_writes else None
        for cycle in cycles:
            in_flight = next(
                (w for w in reg_writes if w.issue < cycle < w.landing), None
            )
            if in_flight is not None:
                report.add(
                    "register.in_flight_read",
                    f"r{reg} read at cycle {cycle} while the {in_flight.unit} "
                    f"write issued at {in_flight.issue} is still in flight "
                    f"(lands {in_flight.landing})",
                    block_id=block.block_id,
                    cycle=cycle,
                )
            elif reg not in pinned and (
                first_landing is None or cycle < first_landing
            ):
                # Temps are block-local: reading one before its first
                # in-block value lands observes leftover garbage.
                report.add(
                    "register.temp_read_before_write",
                    f"temp r{reg} read at cycle {cycle} before any value "
                    f"lands in it this block",
                    block_id=block.block_id,
                    cycle=cycle,
                )


def _check_metadata(
    block: ScheduledBlock, replay: BlockReplay, report: VerificationReport
) -> None:
    declared_addrs = [(d.cycle, d.is_load) for d in block.addr_demands]
    if declared_addrs != replay.addr_ops:
        report.add(
            "slot_order.addr_demands",
            f"addr_demands declares {declared_addrs} but the instruction "
            f"words consume IU addresses as {replay.addr_ops} "
            "(cycle, is_load) in slot order",
            block_id=block.block_id,
        )
    declared_io: dict[tuple[OpKind, QueueRef], list[int]] = {}
    for event in block.io_events:
        declared_io.setdefault((event.kind, event.queue), []).append(
            event.cycle
        )
    actual_io = {
        key: sorted(cycles) for key, cycles in replay.io_ops.items()
    }
    declared_sorted = {
        key: sorted(cycles) for key, cycles in declared_io.items()
    }
    if declared_sorted != actual_io:
        report.add(
            "stream.io_events",
            f"io_events metadata {_named(declared_sorted)} does not match "
            "the sends/receives present in the instruction words "
            f"{_named(actual_io)}",
            block_id=block.block_id,
        )


def _named(io: dict[tuple[OpKind, QueueRef], list[int]]) -> dict:
    """``io`` keyed as a diagnostic prints it: by (kind, queue name)."""
    return {(kind, str(queue)): cycles for (kind, queue), cycles in io.items()}


def replay_block(
    block: ScheduledBlock,
    config: CellConfig,
    pinned: set[int],
    report: VerificationReport,
) -> BlockReplay:
    """Re-derive one block's hazards and metadata from its instructions."""
    replay = BlockReplay(block_id=block.block_id, length=block.length)
    if len(block.instructions) != block.length:
        report.add(
            "hazard.block_length",
            f"{len(block.instructions)} instruction words but a declared "
            f"length of {block.length} cycles",
            block_id=block.block_id,
        )
    writes: list[RegWrite] = []
    reads: list[tuple[int, int]] = []
    for cycle, instr in enumerate(block.instructions):
        if instr.is_nop():
            continue
        _check_structural(block, cycle, instr, config, report)
        writes.extend(_register_writes(cycle, instr, config))
        reads.extend(_register_reads(cycle, instr))
        for mem in instr.mem:
            if mem.address_source is not AddressSource.LITERAL:
                replay.addr_ops.append((cycle, mem.is_load))
        for deq in instr.deqs:
            replay.io_ops.setdefault((OpKind.RECV, deq.queue), []).append(cycle)
        for enq in instr.enqs:
            replay.io_ops.setdefault((OpKind.SEND, enq.queue), []).append(cycle)
    _check_registers(block, writes, reads, pinned, report)
    _check_metadata(block, replay, report)
    return replay


def replay_cell_code(
    code: CellCode, report: VerificationReport
) -> dict[int, BlockReplay]:
    """Replay every block; returns per-block data for later stages."""
    for check in (
        "hazard.mem_ports",
        "hazard.literal_ports",
        "hazard.queue_ports",
        "hazard.mem_conflict",
        "hazard.address_bounds",
        "hazard.block_length",
        "register.in_flight_read",
        "register.waw_order",
        "register.waw_same_cycle",
        "register.temp_read_before_write",
        "register.drain",
        "slot_order.addr_demands",
        "stream.io_events",
    ):
        report.ran(check)
    pinned = {reg.index for reg in code.pinned.values()}
    return {
        block.block_id: replay_block(block, code.config, pinned, report)
        for block in code.blocks()
    }
