"""Operand/register allocation strategies for IU address generation.

This is the trade-off of Table 6-5: which sub-expressions of the address
computations live in registers determines how many registers are needed,
how many additions must run per emitted address, and how many update
operations run per loop iteration.

Three canonical strategies, escalating in register economy:

* ``FULL_ADDRESS`` — one induction register per distinct address
  expression: zero arithmetic per emission, one update per varying loop
  variable (Table 6-5's last row generalised);
* ``SHARED_SIGNATURE`` — expressions that differ only in their constant
  term share one register; emission needs one add when the constant
  differs from the representative's (the ``a[i], b[i], j, j*N`` row);
* ``PER_PRODUCT`` — one register per distinct ``coefficient * variable``
  product; every emission sums its products and constant (the minimum-
  register ``i*N, j*N, j`` row).

The compiler (:mod:`repro.iucodegen.codegen`) walks this list until the
plan fits the IU's 16 registers, falling back to table memory when none
does (the paper's step 3a escape)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..lang.semantic import AffineIndex


class Strategy(enum.Enum):
    FULL_ADDRESS = "full-address"
    SHARED_SIGNATURE = "shared-signature"
    PER_PRODUCT = "per-product"


@dataclass(frozen=True)
class LoopInfo:
    """Static facts about one loop the expressions range over."""

    var: str
    start: int
    step: int
    trip: int


@dataclass
class AllocationPlan:
    """The outcome of one strategy over a set of address expressions."""

    strategy: Strategy
    #: Expressions in first-seen order.
    expressions: list[AffineIndex]
    #: Register slots: name -> the affine sub-expression the register holds.
    registers: dict[str, AffineIndex]
    #: Per expression: the register names and constant to add at emission
    #: (expression index -> (register names, extra constant)).
    compositions: dict[int, tuple[tuple[str, ...], int]]
    #: Adds needed when emitting each expression (index -> count).
    emission_adds: dict[int, int]
    #: Updates per iteration of each loop var: var -> list of
    #: (register name, delta) applied at the end of each iteration.
    updates: dict[str, list[tuple[str, int]]]
    #: Wrap adjustments applied when a loop *exits* (register, delta);
    #: folded into the enclosing boundary by the code generator.
    exit_updates: dict[str, list[tuple[str, int]]]
    #: Scratch registers needed to compose addresses at emission time.
    scratch_registers: int

    @property
    def n_registers(self) -> int:
        return len(self.registers) + self.scratch_registers

    @property
    def total_emission_adds(self) -> int:
        return sum(self.emission_adds.values())

    @property
    def updates_per_innermost_iteration(self) -> int:
        """Update operations in the innermost loop (the Table 6-5
        "update operations" column, for a 2-deep ``i``/``j`` nest this is
        the ``j`` updates)."""
        if not self.updates:
            return 0
        # The innermost loop is the one declared last.
        last_var = list(self.updates)[-1]
        return len(self.updates[last_var])


def _build_updates(
    registers: dict[str, AffineIndex], loops: list[LoopInfo]
) -> tuple[dict[str, list[tuple[str, int]]], dict[str, list[tuple[str, int]]]]:
    updates: dict[str, list[tuple[str, int]]] = {}
    exit_updates: dict[str, list[tuple[str, int]]] = {}
    for loop in loops:
        iter_list: list[tuple[str, int]] = []
        exit_list: list[tuple[str, int]] = []
        for name, sub in registers.items():
            coeff = sub.coefficient(loop.var)
            if coeff:
                iter_list.append((name, coeff * loop.step))
                exit_list.append((name, -coeff * loop.step * loop.trip))
        if iter_list:
            updates[loop.var] = iter_list
            exit_updates[loop.var] = exit_list
    return updates, exit_updates


def plan_allocation(
    expressions: list[AffineIndex],
    loops: list[LoopInfo],
    strategy: Strategy,
) -> AllocationPlan:
    """Build the register/update/emission plan for ``strategy``."""
    if strategy is Strategy.FULL_ADDRESS:
        registers = {f"e{i}": expr for i, expr in enumerate(expressions)}
        compositions = {
            i: ((f"e{i}",), 0) for i in range(len(expressions))
        }
        emission_adds = {i: 0 for i in range(len(expressions))}
        scratch = 0
    elif strategy is Strategy.SHARED_SIGNATURE:
        groups: dict[tuple, tuple[str, AffineIndex]] = {}
        registers = {}
        compositions = {}
        emission_adds = {}
        for i, expr in enumerate(expressions):
            signature = expr.coefficients
            if signature not in groups:
                name = f"g{len(groups)}"
                groups[signature] = (name, expr)
                registers[name] = expr
            name, representative = groups[signature]
            delta = expr.constant - representative.constant
            compositions[i] = ((name,), delta)
            emission_adds[i] = 1 if delta else 0
        scratch = 1 if any(emission_adds.values()) else 0
    elif strategy is Strategy.PER_PRODUCT:
        products: dict[tuple[str, int], str] = {}
        registers = {}
        compositions = {}
        emission_adds = {}
        for i, expr in enumerate(expressions):
            names = []
            for var, coeff in expr.coefficients:
                key = (var, coeff)
                if key not in products:
                    name = f"p{len(products)}"
                    products[key] = name
                    registers[name] = AffineIndex(0, ((var, coeff),))
                names.append(products[key])
            compositions[i] = (tuple(names), expr.constant)
            # Summing k registers takes k-1 adds, plus one more to fold a
            # non-zero constant (zero-register sums are pure constants —
            # those never reach the IU).
            adds = max(0, len(names) - 1)
            if expr.constant:
                adds += 1
            emission_adds[i] = adds
        scratch = 1 if any(emission_adds.values()) else 0
    else:  # pragma: no cover
        raise ValueError(strategy)
    updates, exit_updates = _build_updates(registers, loops)
    return AllocationPlan(
        strategy=strategy,
        expressions=list(expressions),
        registers=registers,
        compositions=compositions,
        emission_adds=emission_adds,
        updates=updates,
        exit_updates=exit_updates,
        scratch_registers=scratch,
    )


def enumerate_allocation_options(
    expressions: list[AffineIndex], loops: list[LoopInfo]
) -> list[AllocationPlan]:
    """All strategies, cheapest-arithmetic first — the rows of a
    Table 6-5-style trade-off table for the given address expressions."""
    return [
        plan_allocation(expressions, loops, strategy)
        for strategy in (
            Strategy.FULL_ADDRESS,
            Strategy.SHARED_SIGNATURE,
            Strategy.PER_PRODUCT,
        )
    ]
