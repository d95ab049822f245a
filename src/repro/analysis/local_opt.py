"""Local DAG optimisations (Section 6.1).

"Many local optimizations have been implemented, including common
sub-expression elimination, constant folding, height reduction and
idempotent operation removal."

CSE happens structurally through DAG value numbering
(:class:`repro.ir.dag.Dag`); this module supplies the rest, applied at
node-construction time through :func:`fold`:

* constant folding — any pure operation over constants;
* algebraic simplification / idempotent-operation removal — ``x+0``,
  ``x*1``, ``x*0``, ``x/1``, ``--x``, ``x and x``, ``select(c,a,a)``, …;
* height reduction — associative chains of ``+``/``*`` are rebalanced
  incrementally so the critical path through the 5-stage pipelined FPUs
  shortens.

Booleans are represented as floats (0.0 / 1.0), matching how the cell
datapath materialises comparison results.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Optional, Sequence

import numpy as np

from ..ir.dag import Dag, Node, OpKind

#: Every pure op but FDIV as one Python expression over its operands
#: ``{0}``, ``{1}``, ``{2}``.  The untimed scalar driver writes these
#: inline (:mod:`repro.machine.plan`) and :func:`pure_evaluator`'s
#: functions are compiled from them, so each op is spelled once.
SCALAR_EXPRESSIONS: dict[OpKind, str] = {
    OpKind.FADD: "{0} + {1}",
    OpKind.FSUB: "{0} - {1}",
    OpKind.FMUL: "{0} * {1}",
    OpKind.FNEG: "-{0}",
    OpKind.CMP_EQ: "1.0 if {0} == {1} else 0.0",
    OpKind.CMP_NE: "1.0 if {0} != {1} else 0.0",
    OpKind.CMP_LT: "1.0 if {0} < {1} else 0.0",
    OpKind.CMP_LE: "1.0 if {0} <= {1} else 0.0",
    OpKind.CMP_GT: "1.0 if {0} > {1} else 0.0",
    OpKind.CMP_GE: "1.0 if {0} >= {1} else 0.0",
    OpKind.BAND: "1.0 if ({0} != 0.0 and {1} != 0.0) else 0.0",
    OpKind.BOR: "1.0 if ({0} != 0.0 or {1} != 0.0) else 0.0",
    OpKind.BNOT: "1.0 if {0} == 0.0 else 0.0",
    OpKind.SELECT: "{1} if {0} != 0.0 else {2}",
}


def _scalar_function(expression: str) -> Callable[..., float]:
    """``expression`` as a function of its operands, in order."""
    arity = len(set(re.findall(r"\{\d\}", expression)))
    names = [f"x{k}" for k in range(arity)]
    return eval(f"lambda {', '.join(names)}: {expression.format(*names)}")


_NEGATED_COMPARE = {
    OpKind.CMP_EQ: OpKind.CMP_NE,
    OpKind.CMP_NE: OpKind.CMP_EQ,
    OpKind.CMP_LT: OpKind.CMP_GE,
    OpKind.CMP_LE: OpKind.CMP_GT,
    OpKind.CMP_GT: OpKind.CMP_LE,
    OpKind.CMP_GE: OpKind.CMP_LT,
}

_ASSOCIATIVE = frozenset({OpKind.FADD, OpKind.FMUL})


def _const_value(node: Node) -> Optional[float]:
    if node.op is OpKind.CONST:
        return float(node.attr)  # type: ignore[arg-type]
    return None


def _fdiv(a: float, b: float) -> float:
    """IEEE-754 division, bit for bit as ``np.divide``: a zero divisor
    scales ``a`` by the signed infinity, so x/±0 is ±inf and 0/0 the
    hardware's default NaN (a NaN dividend passes through)."""
    try:
        return a / b
    except ZeroDivisionError:
        return a * math.copysign(math.inf, b)


_SCALAR_EVAL: dict[OpKind, Callable[..., float]] = {
    op: _scalar_function(expression)
    for op, expression in SCALAR_EXPRESSIONS.items()
}
_SCALAR_EVAL[OpKind.FDIV] = _fdiv


def pure_evaluator(op: OpKind) -> Optional[Callable[..., float]]:
    """The evaluation function of a pure op, or ``None`` for impure ops.

    Resolving the dispatch once (e.g. when the simulator pre-decodes a
    schedule) avoids a per-execution dictionary lookup."""
    return _SCALAR_EVAL.get(op)


def _flag(mask) -> np.ndarray:
    """Booleans as the cell datapath materialises them (0.0 / 1.0)."""
    return np.asarray(mask, dtype=np.float64)


#: The NumPy form of every pure evaluator: elementwise over float64
#: columns (scalars broadcast), and bit for bit the same per element.
_COLUMN_EVAL: dict[OpKind, Callable[..., np.ndarray]] = {
    OpKind.FADD: np.add,
    OpKind.FSUB: np.subtract,
    OpKind.FMUL: np.multiply,
    OpKind.FDIV: np.divide,
    OpKind.FNEG: np.negative,
    OpKind.CMP_EQ: lambda a, b: _flag(np.equal(a, b)),
    OpKind.CMP_NE: lambda a, b: _flag(np.not_equal(a, b)),
    OpKind.CMP_LT: lambda a, b: _flag(np.less(a, b)),
    OpKind.CMP_LE: lambda a, b: _flag(np.less_equal(a, b)),
    OpKind.CMP_GT: lambda a, b: _flag(np.greater(a, b)),
    OpKind.CMP_GE: lambda a, b: _flag(np.greater_equal(a, b)),
    OpKind.BAND: lambda a, b: _flag((a != 0.0) & (b != 0.0)),
    OpKind.BOR: lambda a, b: _flag((a != 0.0) | (b != 0.0)),
    OpKind.BNOT: lambda a: _flag(np.equal(a, 0.0)),
    OpKind.SELECT: lambda c, a, b: np.where(np.not_equal(c, 0.0), a, b),
}


def column_evaluator(op: OpKind) -> Optional[Callable[..., np.ndarray]]:
    """The NumPy form of :func:`pure_evaluator` (``None`` for impure
    ops); callers silence NumPy's floating-point warnings."""
    return _COLUMN_EVAL.get(op)


def evaluate_pure(op: OpKind, values: Sequence[float]) -> float:
    """Reference evaluation of a pure operation over float values.

    Shared by constant folding, the AST interpreter and the simulator so
    that all three agree on the boolean-as-float convention.
    """
    fn = _SCALAR_EVAL.get(op)
    if fn is None:
        raise ValueError(f"not a pure operation: {op}")
    return fn(*values)


def depth(dag: Dag, node: Node) -> int:
    """Operation height of a node (leaves are 0).  Memoised on the dag."""
    cache: dict[int, int] = getattr(dag, "_depth_cache", None) or {}
    if not hasattr(dag, "_depth_cache"):
        dag._depth_cache = cache  # type: ignore[attr-defined]
    return _depth(dag, node.node_id, cache)


def _depth(dag: Dag, node_id: int, cache: dict[int, int]) -> int:
    cached = cache.get(node_id)
    if cached is not None:
        return cached
    node = dag.nodes[node_id]
    if not node.operands:
        value = 0
    else:
        value = 1 + max(_depth(dag, op, cache) for op in node.operands)
    cache[node_id] = value
    return value


def fold(dag: Dag, op: OpKind, operands: Sequence[Node]) -> Optional[Node]:
    """Try to simplify ``op(operands)``; return a replacement node or None.

    Called by the IR builder before materialising each pure node.  The
    returned node already exists in the dag (or is a fresh constant).
    """
    values = [_const_value(n) for n in operands]

    # Constant folding.
    if all(v is not None for v in values):
        result = evaluate_pure(op, [v for v in values if v is not None])
        if math.isfinite(result):
            return dag.const(result)

    simplified = _algebraic(dag, op, list(operands), values)
    if simplified is not None:
        return simplified

    if op in _ASSOCIATIVE:
        rebalanced = _height_reduce(dag, op, list(operands))
        if rebalanced is not None:
            return rebalanced
    return None


def _algebraic(
    dag: Dag,
    op: OpKind,
    operands: list[Node],
    values: list[Optional[float]],
) -> Optional[Node]:
    if op is OpKind.FADD:
        if values[0] == 0.0:
            return operands[1]
        if values[1] == 0.0:
            return operands[0]
    elif op is OpKind.FSUB:
        if values[1] == 0.0:
            return operands[0]
        if operands[0].node_id == operands[1].node_id:
            return dag.const(0.0)
    elif op is OpKind.FMUL:
        if values[0] == 1.0:
            return operands[1]
        if values[1] == 1.0:
            return operands[0]
        if values[0] == 0.0 or values[1] == 0.0:
            return dag.const(0.0)
    elif op is OpKind.FDIV:
        if values[1] == 1.0:
            return operands[0]
    elif op is OpKind.FNEG:
        inner = operands[0]
        if inner.op is OpKind.FNEG:
            return dag.nodes[inner.operands[0]]
    elif op in (OpKind.BAND, OpKind.BOR):
        if operands[0].node_id == operands[1].node_id:
            return operands[0]  # idempotent operation removal
        if op is OpKind.BAND:
            if values[0] == 0.0 or values[1] == 0.0:
                return dag.const(0.0)
            if values[0] is not None and values[0] != 0.0:
                return operands[1]
            if values[1] is not None and values[1] != 0.0:
                return operands[0]
        else:
            if values[0] == 0.0:
                return operands[1]
            if values[1] == 0.0:
                return operands[0]
    elif op is OpKind.BNOT:
        inner = operands[0]
        if inner.op is OpKind.BNOT:
            return dag.nodes[inner.operands[0]]
        negated = _NEGATED_COMPARE.get(inner.op)
        if negated is not None:
            left, right = inner.operands
            return dag.pure(negated, dag.nodes[left], dag.nodes[right])
    elif op is OpKind.SELECT:
        cond, if_true, if_false = operands
        if if_true.node_id == if_false.node_id:
            return if_true
        if values[0] is not None:
            return if_true if values[0] != 0.0 else if_false
    return None


def _height_reduce(
    dag: Dag, op: OpKind, operands: list[Node]
) -> Optional[Node]:
    """Rebalance ``op(op(u, v), w)`` into ``op(u, op(v, w))`` when the left
    subtree is deeper, shrinking the critical path of long chains.

    Floating-point reassociation changes rounding; the paper's compiler
    applied it too, and our end-to-end tests compare with tolerance.
    """
    left, right = operands
    if left.op is op and depth(dag, left) > depth(dag, right) + 1:
        u = dag.nodes[left.operands[0]]
        v = dag.nodes[left.operands[1]]
        if depth(dag, v) <= depth(dag, u):
            inner = _build_pure(dag, op, v, right)
            return _build_pure(dag, op, u, inner)
    if right.op is op and depth(dag, right) > depth(dag, left) + 1:
        u = dag.nodes[right.operands[0]]
        v = dag.nodes[right.operands[1]]
        if depth(dag, u) <= depth(dag, v):
            inner = _build_pure(dag, op, left, u)
            return _build_pure(dag, op, inner, v)
    return None


def _build_pure(dag: Dag, op: OpKind, a: Node, b: Node) -> Node:
    """Create a pure node applying folding recursively (but without
    re-entering height reduction, to guarantee termination)."""
    values = [_const_value(a), _const_value(b)]
    if all(v is not None for v in values):
        return dag.const(evaluate_pure(op, values))  # type: ignore[arg-type]
    simplified = _algebraic(dag, op, [a, b], values)
    if simplified is not None:
        return simplified
    node = dag.pure(op, a, b)
    # New nodes invalidate the memoised depth cache entry lazily: depths
    # only ever grow from leaves, and _depth computes on demand, so no
    # action is required here.
    return node
