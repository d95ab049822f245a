"""Register allocation for scheduled blocks.

Scalar cell variables are *pinned*: each gets a dedicated register for
the whole program (the cell's two 32-word register files give 64
registers — plenty for W2-scale programs; under pressure the driver
demotes scalars to memory and recompiles).  Temporaries (values flowing
between operations inside one block) are allocated by linear scan over
the block schedule.

A freed register may be re-assigned to a writer issuing at or after the
old value's last read: the 5-stage writeback then lands strictly after
the read, so the old consumer always sees the old value.  A value that
is never read holds its register until its own write lands, so no later
write to that register can land first or in the same cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import RegisterPressureError
from ..ir.dag import Dag, OpKind
from .isa import Lit, Operand, Reg
from .schedule import BlockSchedule, SchedItem

#: Item kinds that define a register value.
_PRODUCER_KINDS = frozenset({"alu", "mpy", "deq", "move"})


@dataclass
class RegisterAssignment:
    """Physical destination registers for one block's schedule."""

    dests: dict[int, Reg] = field(default_factory=dict)  # item_id -> Reg
    max_live: int = 0

    def dest(self, item_id: int) -> Reg:
        return self.dests[item_id]


def _produces_value(item: SchedItem) -> bool:
    if item.kind in _PRODUCER_KINDS:
        return True
    if item.kind == "mem":
        assert item.node is not None
        return item.node.op is OpKind.LOAD
    return False


def _operand_producer(
    operand_id: int, schedule: BlockSchedule, dag: Dag
) -> int | None:
    """Map an operand reference to the item that produces it (None for
    CONST/READ leaves)."""
    if operand_id < 0:  # synthetic move reference
        return -operand_id - 1
    node = dag.nodes[operand_id]
    if node.op in (OpKind.CONST, OpKind.READ):
        return None
    return schedule.node_to_item.get(operand_id)


def allocate_registers(
    schedule: BlockSchedule,
    dag: Dag,
    pinned: dict[str, Reg],
    temp_pool: list[int],
) -> RegisterAssignment:
    """Assign physical registers to every value-producing item.

    ``pinned`` maps scalar variable names to their dedicated registers;
    ``temp_pool`` lists the physical register indices available for
    temporaries.  Raises :class:`RegisterPressureError` when the pool is
    exhausted.
    """
    result = RegisterAssignment()

    # Last read cycle per producing item.
    last_use: dict[int, int] = {}
    for item in schedule.items.values():
        for operand_id in item.operands:
            producer = _operand_producer(operand_id, schedule, dag)
            if producer is not None and producer != item.item_id:
                last_use[producer] = max(last_use.get(producer, -1), item.cycle)

    producers = sorted(
        (item for item in schedule.items.values() if _produces_value(item)),
        key=lambda item: (item.cycle, item.item_id),
    )

    free = sorted(temp_pool, reverse=True)
    active: list[tuple[int, int, int]] = []  # (last_use, reg, item_id)
    live = 0
    for item in producers:
        if item.pinned_var is not None:
            result.dests[item.item_id] = pinned[item.pinned_var]
            continue
        # Expire temporaries whose last read is not after this issue.
        still_active = []
        for use, reg, owner in active:
            if use <= item.cycle:
                free.append(reg)
            else:
                still_active.append((use, reg, owner))
        active = still_active
        if not free:
            raise RegisterPressureError(
                needed=len(active) + len(pinned) + 1,
                available=len(temp_pool) + len(pinned),
            )
        reg = free.pop()
        result.dests[item.item_id] = Reg(reg)
        # A value nobody reads keeps its register until its write lands.
        end = last_use.get(item.item_id, item.cycle + item.latency)
        active.append((end, reg, item.item_id))
        live = max(live, len(active))
    result.max_live = live + len(pinned)
    return result


def resolve_operand(
    operand_id: int,
    schedule: BlockSchedule,
    dag: Dag,
    pinned: dict[str, Reg],
    assignment: RegisterAssignment,
) -> Operand:
    """Resolve an operand reference to a physical register or literal."""
    if operand_id < 0:
        return assignment.dest(-operand_id - 1)
    node = dag.nodes[operand_id]
    if node.op is OpKind.CONST:
        return Lit(float(node.attr))  # type: ignore[arg-type]
    if node.op is OpKind.READ:
        return pinned[node.attr]  # type: ignore[index]
    item_id = schedule.node_to_item[operand_id]
    return assignment.dest(item_id)
