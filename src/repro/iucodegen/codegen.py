"""IU code generation (Section 6.3).

Input: the scheduled cell code, whose memory references carry *deadlines*
— the cycle (within their block) at which the cells dequeue each address
from the address path.  Output: an :class:`IUProgram` that

* holds every address expression in induction registers chosen by the
  escalation of :mod:`repro.iucodegen.allocation` (strength reduction —
  the IU has no multiplier);
* updates those registers at loop-iteration boundaries (with wrap
  adjustments when inner loops exit);
* emits each address as late as possible, never later than its deadline
  ("The IU could get ahead of the cells ... but the compiler utilizes
  this freedom only inside a basic block");
* demotes expressions to the 32K sequential table memory when registers
  run out, preferring low-traffic expressions (addresses inside deep
  loops "can overflow the table memory easily", Section 6.3.2);
* plans the loop-control signals, unrolling the last ``k`` iterations of
  loops whose cell body is shorter than the IU's 3-cycle counter test
  (Section 6.3.1).

The IU runs one hop ahead of cell 0, so an address emitted in IU-cycle
``t`` is in cell 0's address queue by cell-cycle ``t``.  Every dynamic
emission (:meth:`IUProgram.emission_times`) comes from one
:func:`~repro.timing.events.walk_events` of the loop tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ..cellcodegen.emit import CellCode, ScheduledBlock, ScheduledItem
from ..cellcodegen.emit import ScheduledLoop, block_runs, pass_cycles
from ..errors import IUDeadlineError, TableOverflowError
from ..lang.semantic import AffineIndex
from ..config import IUConfig
from ..timing.events import walk_events
from .allocation import AllocationPlan, LoopInfo, Strategy, plan_allocation

#: How far (cycles) an emission may slip before its block's window; the
#: slack is borrowed from earlier windows (see DESIGN.md).
MAX_LOOKBEHIND = 64


@dataclass
class IUEmission:
    """One static address emission in a block."""

    deadline: int          # local cell cycle of the dequeue
    cycle: int             # local IU emission cycle (may be negative)
    expr_index: int        # index into the allocation plan's expressions
    from_table: bool = False
    composition_adds: int = 0


@dataclass
class IUBlock:
    block_id: int
    length: int
    emissions: list[IUEmission] = field(default_factory=list)


@dataclass
class IULoop:
    loop_id: int
    var: str
    start: int
    step: int
    trip: int
    body: list["IUItem"] = field(default_factory=list)
    #: Iterations unrolled at the tail so loop signals arrive in time
    #: (0 = the IU tests the counter every iteration).
    unrolled_tail: int = 0
    #: Register updates at the end of every iteration: (register, delta).
    boundary_updates: list[tuple[str, int]] = field(default_factory=list)
    #: Wrap adjustments applied once, when the loop exits.
    exit_updates: list[tuple[str, int]] = field(default_factory=list)


IUItem = Union[IUBlock, IULoop]


@dataclass
class IUProgram:
    """The interface unit's program for one compiled module."""

    items: list[IUItem]
    plan: AllocationPlan
    #: Expression indices resident in table memory.
    table_expressions: frozenset[int]
    #: Total dynamic table entries consumed by one run.
    table_entries: int
    n_registers_used: int
    warnings: list[str] = field(default_factory=list)

    @property
    def n_instructions(self) -> int:
        """Static IU microcode length (the Table 7-1 "IU ucode" metric):
        register initialisation, emissions, composition adds, boundary
        updates, loop control, and the duplicated unrolled tails."""
        static = len(self.plan.registers) + self.plan.scratch_registers
        static += _count_static(self.items)
        return static

    def emission_times(self) -> np.ndarray:
        """Every dynamic emission's (emit cycle, deadline cycle, address)
        in FIFO order, as the rows of an ``(n, 3)`` int64 array, times
        absolute on the cell-0 timeline.  Each address is an affine
        evaluation once per static emission over its loop index grids; a
        property test checks the induction-register machine against it."""
        expressions = self.plan.expressions

        def rows(block: IUBlock, env: dict) -> list:
            emitted = block.emissions
            return [
                np.array([e.cycle for e in emitted], np.int64),
                np.array([e.deadline for e in emitted], np.int64),
                [expressions[e.expr_index].evaluate(env) for e in emitted],
            ]

        return walk_events(self.items, rows, (True, True, False)).T


def _count_static(items: list[IUItem]) -> int:
    total = 0
    for item in items:
        if isinstance(item, IUBlock):
            for emission in item.emissions:
                total += 1 + emission.composition_adds
        else:
            body = _count_static(item.body)
            total += body
            total += len(item.boundary_updates) + len(item.exit_updates)
            total += 2  # loop counter init + test
            total += item.unrolled_tail * body
    return total


class IUCodeGenerator:
    def __init__(self, code: CellCode, config: IUConfig):
        self._code = code
        self._config = config
        self._expressions: list[AffineIndex] = []
        self._expr_ids: dict[AffineIndex, int] = {}
        self._loops = list(_loop_infos(code.items))
        self._dynamic_counts: dict[int, int] = {}
        self._warnings: list[str] = []

    def generate(self) -> IUProgram:
        self._collect()
        plan, table_set = self._choose_plan()
        items = self._build_items(self._code.items, plan, table_set)
        table_entries = sum(self._dynamic_counts[i] for i in table_set)
        if table_entries > self._config.table_words:
            raise TableOverflowError(
                f"{table_entries} table addresses exceed the "
                f"{self._config.table_words}-word table memory"
            )
        return IUProgram(
            items=items,
            plan=plan,
            table_expressions=frozenset(table_set),
            table_entries=table_entries,
            n_registers_used=plan.n_registers,
            warnings=self._warnings,
        )

    # Demand collection -----------------------------------------------------

    def _collect(self) -> None:
        """Number the address expressions in program order and count
        each one's dynamic emissions."""
        for block, runs in block_runs(self._code.items):
            for demand in block.addr_demands:
                index = self._expr_ids.get(demand.expression)
                if index is None:
                    index = len(self._expressions)
                    self._expr_ids[demand.expression] = index
                    self._expressions.append(demand.expression)
                    self._dynamic_counts[index] = 0
                self._dynamic_counts[index] += runs

    # Strategy escalation -----------------------------------------------------

    def _choose_plan(self) -> tuple[AllocationPlan, set[int]]:
        budget = self._config.n_registers
        for strategy in (
            Strategy.FULL_ADDRESS,
            Strategy.SHARED_SIGNATURE,
            Strategy.PER_PRODUCT,
        ):
            plan = plan_allocation(self._expressions, self._loops, strategy)
            if plan.n_registers <= budget:
                return plan, set()
        # No strategy fits: demote expressions to table memory, preferring
        # the ones touched least often (deep-loop addresses would overflow
        # the table).
        order = sorted(
            range(len(self._expressions)),
            key=lambda i: self._dynamic_counts[i],
        )
        table: set[int] = set()
        for index in order:
            table.add(index)
            live = [
                e for i, e in enumerate(self._expressions) if i not in table
            ]
            plan = plan_allocation(live, self._loops, Strategy.PER_PRODUCT)
            if plan.n_registers <= budget:
                # Rebuild the plan over the full expression list so
                # indices stay stable; table expressions need no register.
                full = plan_allocation(
                    self._expressions, self._loops, Strategy.PER_PRODUCT
                )
                self._warnings.append(
                    f"{len(table)} address expressions moved to table memory"
                )
                return full, table
        raise IUDeadlineError(
            "address expressions exceed the IU's registers even with "
            "table-memory demotion"
        )

    # Program construction -----------------------------------------------------

    def _build_items(
        self,
        items: list[ScheduledItem],
        plan: AllocationPlan,
        table: set[int],
    ) -> list[IUItem]:
        result: list[IUItem] = []
        for item in items:
            if isinstance(item, ScheduledBlock):
                result.append(self._build_block(item, plan, table))
            else:
                body = self._build_items(item.body, plan, table)
                body_len = pass_cycles(body)
                unrolled = 0
                if body_len < self._config.loop_test_cycles:
                    unrolled = self._config.loop_test_cycles // max(body_len, 1) + 1
                    unrolled = min(unrolled, item.trip)
                result.append(
                    IULoop(
                        loop_id=item.loop_id,
                        var=item.var,
                        start=item.start,
                        step=item.step,
                        trip=item.trip,
                        body=body,
                        unrolled_tail=unrolled,
                        boundary_updates=plan.updates.get(item.var, []),
                        exit_updates=plan.exit_updates.get(item.var, []),
                    )
                )
        return result

    def _build_block(
        self,
        block: ScheduledBlock,
        plan: AllocationPlan,
        table: set[int],
    ) -> IUBlock:
        emissions: list[IUEmission] = []
        port_use: dict[int, int] = {}
        next_cycle = block.length  # ALAP bound from the right
        for demand in reversed(block.addr_demands):
            index = self._expr_ids[demand.expression]
            cycle = min(demand.cycle, next_cycle)
            while port_use.get(cycle, 0) >= 2:
                cycle -= 1
            if demand.cycle - cycle > MAX_LOOKBEHIND:
                raise IUDeadlineError(
                    f"block {block.block_id}: address for cycle "
                    f"{demand.cycle} cannot be emitted within the "
                    f"{MAX_LOOKBEHIND}-cycle window"
                )
            port_use[cycle] = port_use.get(cycle, 0) + 1
            next_cycle = cycle
            from_table = index in table
            emissions.append(
                IUEmission(
                    deadline=demand.cycle,
                    cycle=cycle,
                    expr_index=index,
                    from_table=from_table,
                    composition_adds=0
                    if from_table
                    else plan.emission_adds.get(index, 0),
                )
            )
        emissions.reverse()
        self._check_arithmetic_slack(block, emissions)
        return IUBlock(
            block_id=block.block_id, length=block.length, emissions=emissions
        )

    def _check_arithmetic_slack(
        self, block: ScheduledBlock, emissions: list[IUEmission]
    ) -> None:
        """One IU adder: composition adds must fit before their emission.
        Infeasibility is recorded as a warning (the simulator applies
        boundary semantics; see DESIGN.md)."""
        total_adds = sum(e.composition_adds for e in emissions)
        if not total_adds:
            return
        if emissions and total_adds > max(e.cycle for e in emissions) + MAX_LOOKBEHIND:
            self._warnings.append(
                f"block {block.block_id}: {total_adds} composition adds "
                "may exceed the IU adder's slack"
            )


def _loop_infos(items: list[ScheduledItem]):
    """The :class:`LoopInfo` of every loop in ``items``, each before the
    loops of its body."""
    for item in items:
        if isinstance(item, ScheduledLoop):
            yield LoopInfo(item.var, item.start, item.step, item.trip)
            yield from _loop_infos(item.body)


def generate_iu_code(code: CellCode, config: IUConfig) -> IUProgram:
    """Generate the IU program for scheduled cell code."""
    return IUCodeGenerator(code, config).generate()
