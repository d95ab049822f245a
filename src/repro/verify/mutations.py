"""Seeded artifact mutations — miscompiling on purpose to verify the verifier.

Each mutation takes a clean :class:`CompiledProgram`, deep-copies it and
performs surgery on the emitted artifacts only (instruction words, IU
address expressions, declared queue bounds) — exactly the layer the
verifier reads — producing the miscompile classes the project has either
shipped (the PR 3 slot-order bug) or guards against structurally:

* ``swap_slots``            — swap the datapath fields of two instruction
  words inside one block (an I/O or queue-addressed op moves to the
  wrong cycle);
* ``off_by_one_address``    — add 1 to the constant of an IU address
  expression (every use computes a neighbouring word's address);
* ``drop_enqueue``          — delete one enqueue from an instruction;
* ``dup_enqueue``           — duplicate an enqueue into another cycle of
  the same block;
* ``alias_temp_registers``  — rename one temp register onto another
  whose lifetime overlaps it;
* ``shrink_queue_bound``    — understate a declared buffer requirement
  (even seeds) or the configured queue depth (odd seeds).

Generators are deliberately restricted to *observable* mutations — ones
that must change an artifact invariant (metadata stream, register
lifetime, declared bound), so the harness can assert the strict property
"the verifier flags every mutant the differential sweep flags" without
also asserting it about mutants that are semantically invisible.
"""

from __future__ import annotations

import copy
import dataclasses
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from ..cellcodegen.emit import ScheduledBlock
from ..cellcodegen.isa import AddressSource, MicroInstr, Reg

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..compiler.driver import CompiledProgram

MUTATION_KINDS = (
    "swap_slots",
    "off_by_one_address",
    "drop_enqueue",
    "dup_enqueue",
    "alias_temp_registers",
    "shrink_queue_bound",
)

#: Instruction fields that move with a slot swap (``control`` stays: the
#: sequencer's loop marks belong to the position, not the operation).
_SWAP_FIELDS = ("alu", "mpy", "mem", "deqs", "enqs", "move")


@dataclass
class Mutant:
    """One deliberately miscompiled program."""

    kind: str
    seed: int
    description: str
    program: "CompiledProgram"


def mutate(program: "CompiledProgram", kind: str, seed: int) -> Mutant | None:
    """Apply one seeded mutation; None when the program offers no site
    for this mutation kind (e.g. no enqueues to drop)."""
    if kind not in MUTATION_KINDS:
        raise ValueError(f"unknown mutation kind {kind!r}")
    rng = random.Random((MUTATION_KINDS.index(kind) + 1) * 65_537 + seed)
    mutant = copy.deepcopy(program)
    description = _APPLIERS[kind](mutant, rng)
    if description is None:
        return None
    return Mutant(kind=kind, seed=seed, description=description, program=mutant)


def mutation_suite(
    program: "CompiledProgram",
    seeds: tuple[int, ...] = (0, 1, 2),
) -> Iterator[Mutant]:
    """All applicable (kind, seed) mutants of one program."""
    for kind in MUTATION_KINDS:
        for seed in seeds:
            mutant = mutate(program, kind, seed)
            if mutant is not None:
                yield mutant


# Sites ----------------------------------------------------------------------


def _io_signature(instr: MicroInstr):
    """The timing-observable content of one instruction word: which
    queue-addressed/IO operations it performs.  Two slots whose
    signatures differ cannot be swapped without desynchronising the
    block's declared metadata."""
    return (
        tuple(
            (m.is_load,)
            for m in instr.mem
            if m.address_source is AddressSource.QUEUE
        ),
        tuple(sorted(str(d.queue) for d in instr.deqs)),
        tuple(sorted(str(e.queue) for e in instr.enqs)),
    )


def _swap_slots(program: "CompiledProgram", rng: random.Random) -> str | None:
    candidates: list[tuple[ScheduledBlock, int, int]] = []
    for block in program.cell_code.blocks():
        signatures = [_io_signature(i) for i in block.instructions]
        bearing = [
            c
            for c, s in enumerate(signatures)
            if s != ((), (), ())
        ]
        for i in bearing:
            for j in range(len(block.instructions)):
                if j != i and signatures[j] != signatures[i]:
                    candidates.append((block, min(i, j), max(i, j)))
    if not candidates:
        return None
    block, i, j = rng.choice(candidates)
    first, second = block.instructions[i], block.instructions[j]
    for fieldname in _SWAP_FIELDS:
        a, b = getattr(first, fieldname), getattr(second, fieldname)
        setattr(first, fieldname, b)
        setattr(second, fieldname, a)
    return f"swapped slots {i} and {j} of block {block.block_id}"


def _off_by_one_address(
    program: "CompiledProgram", rng: random.Random
) -> str | None:
    iu = program.iu_program
    used = sorted(
        {
            emission.expr_index
            for block in _iu_blocks(iu.items)
            for emission in block.emissions
        }
    )
    if not used:
        return None
    index = rng.choice(used)
    expr = iu.plan.expressions[index]
    iu.plan.expressions[index] = dataclasses.replace(
        expr, constant=expr.constant + 1
    )
    return f"added 1 to IU address expression {index} ({expr})"


def _iu_blocks(items):
    from ..iucodegen.codegen import IUBlock

    for item in items:
        if isinstance(item, IUBlock):
            yield item
        else:
            yield from _iu_blocks(item.body)


def _drop_enqueue(program: "CompiledProgram", rng: random.Random) -> str | None:
    candidates: list[tuple[ScheduledBlock, int, int]] = []
    for block in program.cell_code.blocks():
        for cycle, instr in enumerate(block.instructions):
            for position in range(len(instr.enqs)):
                candidates.append((block, cycle, position))
    if not candidates:
        return None
    block, cycle, position = rng.choice(candidates)
    dropped = block.instructions[cycle].enqs.pop(position)
    return (
        f"dropped '{dropped}' from cycle {cycle} of block {block.block_id}"
    )


def _dup_enqueue(program: "CompiledProgram", rng: random.Random) -> str | None:
    candidates: list[tuple[ScheduledBlock, int, int]] = []
    for block in program.cell_code.blocks():
        if len(block.instructions) < 2:
            continue
        for cycle, instr in enumerate(block.instructions):
            for position in range(len(instr.enqs)):
                candidates.append((block, cycle, position))
    if not candidates:
        return None
    block, cycle, position = rng.choice(candidates)
    enq = block.instructions[cycle].enqs[position]
    targets = [c for c in range(len(block.instructions)) if c != cycle]
    target = rng.choice(targets)
    block.instructions[target].enqs.append(enq)
    return (
        f"duplicated '{enq}' from cycle {cycle} into cycle {target} of "
        f"block {block.block_id}"
    )


def _alias_temp_registers(
    program: "CompiledProgram", rng: random.Random
) -> str | None:
    code = program.cell_code
    pinned = {reg.index for reg in code.pinned.values()}
    candidates: list[tuple[ScheduledBlock, int, int]] = []
    for block in code.blocks():
        writes: dict[int, list[tuple[int, int]]] = {}
        reads: dict[int, list[int]] = {}
        for cycle, instr in enumerate(block.instructions):
            for write in _writes_of(cycle, instr, code.config):
                if write[2] not in pinned:
                    writes.setdefault(write[2], []).append(write[:2])
            for reg in _reads_of(instr):
                if reg not in pinned:
                    reads.setdefault(reg, []).append(cycle)
        temps = sorted(set(writes) | set(reads))
        for a in temps:
            for b in temps:
                if b <= a:
                    continue
                if _lifetimes_collide(
                    writes.get(a, []), reads.get(a, []),
                    writes.get(b, []), reads.get(b, []),
                ):
                    candidates.append((block, a, b))
    if not candidates:
        return None
    block, keep, alias = rng.choice(candidates)
    for instr in block.instructions:
        _rename_register(instr, alias, keep)
    return (
        f"aliased temp r{alias} onto r{keep} in block {block.block_id}"
    )


def _lifetimes_collide(writes_a, reads_a, writes_b, reads_b) -> bool:
    """True when merging the two registers must violate a replay
    invariant: a read of one falls strictly inside a write window of the
    other, two writes share an issue cycle, or their landings invert."""
    for issue, landing in writes_a:
        if any(issue < r < landing for r in reads_b):
            return True
    for issue, landing in writes_b:
        if any(issue < r < landing for r in reads_a):
            return True
    for issue_a, landing_a in writes_a:
        for issue_b, landing_b in writes_b:
            if issue_a == issue_b:
                return True
            first, second = (
                ((issue_a, landing_a), (issue_b, landing_b))
                if issue_a < issue_b
                else ((issue_b, landing_b), (issue_a, landing_a))
            )
            if second[1] <= first[1]:
                return True
    return False


def _writes_of(cycle: int, instr: MicroInstr, config):
    from .replay import _register_writes

    for write in _register_writes(cycle, instr, config):
        yield (write.issue, write.landing, write.reg)


def _reads_of(instr: MicroInstr):
    from .replay import _register_reads

    for _cycle, reg in _register_reads(0, instr):
        yield reg


def _rename_register(instr: MicroInstr, old: int, new: int) -> None:
    target, replacement = Reg(old), Reg(new)

    def swap_operand(op):
        return replacement if op == target else op

    if instr.alu is not None:
        instr.alu = dataclasses.replace(
            instr.alu,
            dest=swap_operand(instr.alu.dest),
            sources=tuple(swap_operand(s) for s in instr.alu.sources),
        )
    if instr.mpy is not None:
        instr.mpy = dataclasses.replace(
            instr.mpy,
            dest=swap_operand(instr.mpy.dest),
            sources=tuple(swap_operand(s) for s in instr.mpy.sources),
        )
    instr.mem = [
        dataclasses.replace(
            m,
            reg=swap_operand(m.reg) if m.reg is not None else None,
            store_value=(
                swap_operand(m.store_value)
                if m.store_value is not None
                else None
            ),
        )
        for m in instr.mem
    ]
    instr.deqs = [
        dataclasses.replace(d, dest=swap_operand(d.dest)) for d in instr.deqs
    ]
    instr.enqs = [
        dataclasses.replace(e, source=swap_operand(e.source))
        for e in instr.enqs
    ]
    if instr.move is not None:
        instr.move = dataclasses.replace(
            instr.move,
            dest=swap_operand(instr.move.dest),
            source=swap_operand(instr.move.source),
        )


def _shrink_queue_bound(
    program: "CompiledProgram", rng: random.Random
) -> str | None:
    shrinkable = [b for b in program.buffers if b.required >= 1]
    if not shrinkable:
        return None
    # Alternate between the two declared bounds so both the metadata and
    # the configured capacity get exercised across seeds.
    if rng.randrange(2) == 0:
        target = rng.choice(shrinkable)
        index = program.buffers.index(target)
        program.buffers[index] = dataclasses.replace(
            target, required=target.required - 1
        )
        return (
            f"understated channel {target.channel} buffer requirement "
            f"{target.required} -> {target.required - 1}"
        )
    worst = max(b.required for b in shrinkable)
    program.config = dataclasses.replace(
        program.config, queue_depth=worst - 1
    )
    return f"shrank queue_depth below the {worst}-word requirement"


_APPLIERS = {
    "swap_slots": _swap_slots,
    "off_by_one_address": _off_by_one_address,
    "drop_enqueue": _drop_enqueue,
    "dup_enqueue": _dup_enqueue,
    "alias_temp_registers": _alias_temp_registers,
    "shrink_queue_bound": _shrink_queue_bound,
}
