"""Reference interpreter for W2 programs.

Executes the *AST* directly under the programmer's model of Section 4:
asynchronous send/receive with unbounded buffers, true branching for
conditionals, no timing.  Because compilable programs flow left to
right, cells can be interpreted sequentially, each consuming the streams
its left neighbour produced.

This is a second, independent implementation of W2 semantics: end-to-end
tests require the compiled-and-simulated machine to reproduce the
interpreter's outputs bit-for-modulo-reassociation (the compiler's
height reduction may reassociate float arithmetic, so comparisons use
tolerances).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import HostDataError
from ..lang import ast
from ..lang.semantic import AnalyzedModule
from .host import HostMemory


def _flows_right_to_left(module: ast.Module) -> bool:
    """True when every receive comes from the right (and none from the
    left): the mirror image of a canonical program."""
    directions: list[ast.Direction] = []

    def scan(stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Compound):
            for inner in stmt.statements:
                scan(inner)
        elif isinstance(stmt, ast.Receive):
            directions.append(stmt.direction)
        elif isinstance(stmt, ast.If):
            scan(stmt.then_body)
            if stmt.else_body is not None:
                scan(stmt.else_body)
        elif isinstance(stmt, ast.For):
            scan(stmt.body)

    for function in module.cellprogram.functions:
        scan(function.body)
    for stmt in module.cellprogram.body:
        scan(stmt)
    return bool(directions) and all(
        d is ast.Direction.RIGHT for d in directions
    )


@dataclass
class _CellEnv:
    """One cell's state: scalar values and local arrays."""

    scalars: dict[str, float] = field(default_factory=dict)
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    loop_vars: dict[str, int] = field(default_factory=dict)


class _CellInterpreter:
    def __init__(
        self,
        analyzed: AnalyzedModule,
        cell_index: int,
        memory: HostMemory,
        in_streams: dict[ast.Channel, list[float]],
    ):
        self._analyzed = analyzed
        self._module = analyzed.module
        self._cp = self._module.cellprogram
        self._cell = cell_index
        self._is_first = cell_index == 0
        self._is_last = cell_index == self._cp.n_cells - 1
        self._memory = memory
        self._in = {ch: iter(stream) for ch, stream in in_streams.items()}
        self.out_streams: dict[ast.Channel, list[float]] = {
            ast.Channel.X: [],
            ast.Channel.Y: [],
        }
        self._env = _CellEnv()
        self._declare(self._cp.locals)
        self._scope_stack: list[tuple[set[str], set[str]]] = []

    # Declarations -----------------------------------------------------------

    def _declare(self, decls: tuple[ast.VarDecl, ...]) -> None:
        for decl in decls:
            if decl.scalar_type is ast.ScalarType.INT:
                self._env.loop_vars.setdefault(decl.name, 0)
            elif decl.is_array:
                self._env.arrays[decl.name] = np.zeros(decl.element_count)
            else:
                self._env.scalars[decl.name] = 0.0

    # Statements ---------------------------------------------------------------

    def run(self) -> None:
        for stmt in self._cp.body:
            self._exec(stmt)

    def _exec(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Compound):
            for inner in stmt.statements:
                self._exec(inner)
        elif isinstance(stmt, ast.Assign):
            self._assign(stmt.target, self._eval(stmt.value))
        elif isinstance(stmt, ast.If):
            if self._eval(stmt.condition) != 0.0:
                self._exec(stmt.then_body)
            elif stmt.else_body is not None:
                self._exec(stmt.else_body)
        elif isinstance(stmt, ast.For):
            start, _stop, trip = self._analyzed.bounds_for(stmt)
            step = -1 if stmt.downto else 1
            for i in range(trip):
                self._env.loop_vars[stmt.var] = start + i * step
                self._exec(stmt.body)
        elif isinstance(stmt, ast.Call):
            function = self._analyzed.functions[stmt.name]
            self._declare(function.locals)
            self._exec(function.body)
        elif isinstance(stmt, ast.Receive):
            self._receive(stmt)
        elif isinstance(stmt, ast.Send):
            self._send(stmt)
        else:  # pragma: no cover
            raise TypeError(stmt)

    def _receive(self, stmt: ast.Receive) -> None:
        if self._is_first:
            value = self._eval_external_in(stmt)
        else:
            try:
                value = next(self._in[stmt.channel])
            except StopIteration:
                raise HostDataError(
                    f"cell {self._cell}: receive on {stmt.channel} finds "
                    "an empty stream (send/receive counts do not match)"
                ) from None
        self._assign(stmt.target, value)

    def _send(self, stmt: ast.Send) -> None:
        value = self._eval(stmt.value)
        self.out_streams[stmt.channel].append(value)
        if self._is_last and stmt.external is not None:
            self._store_external(stmt.external, value)

    def _eval_external_in(self, stmt: ast.Receive) -> float:
        external = stmt.external
        if external is None:
            raise HostDataError(
                "first cell executes a receive with no external source"
            )
        if isinstance(external, (ast.FloatLiteral, ast.IntLiteral)):
            return float(external.value)
        assert isinstance(external, (ast.VarRef, ast.ArrayRef))
        name = external.name
        data = self._memory.arrays[name]
        index = self._flat_host_index(external)
        if not 0 <= index < data.size:
            raise HostDataError(f"{name}[{index}] out of bounds")
        return float(data[index])

    def _store_external(self, external: ast.Expr, value: float) -> None:
        assert isinstance(external, (ast.VarRef, ast.ArrayRef))
        data = self._memory.arrays[external.name]
        index = self._flat_host_index(external)
        if not 0 <= index < data.size:
            raise HostDataError(f"{external.name}[{index}] out of bounds")
        data[index] = value

    def _flat_host_index(self, ref: ast.Expr) -> int:
        if isinstance(ref, ast.VarRef):
            return 0
        assert isinstance(ref, ast.ArrayRef)
        dims = self._module.host_decl(ref.name).dimensions
        flat = 0
        for index_expr, dim in zip(ref.indices, dims):
            flat = flat * dim + self._eval_int(index_expr)
        return flat

    # Expressions ----------------------------------------------------------------

    def _assign(self, target: ast.Expr, value: float) -> None:
        if isinstance(target, ast.VarRef):
            self._env.scalars[target.name] = value
            return
        assert isinstance(target, ast.ArrayRef)
        data = self._env.arrays[target.name]
        data[self._flat_cell_index(target)] = value

    def _flat_cell_index(self, ref: ast.ArrayRef) -> int:
        symbol = self._analyzed.cell_scope.lookup(ref.name)
        if symbol is not None and symbol.is_array:
            dims = symbol.dimensions
        else:
            dims = self._function_array_dims(ref.name)
        flat = 0
        for index_expr, dim in zip(ref.indices, dims):
            flat = flat * dim + self._eval_int(index_expr)
        return flat

    def _function_array_dims(self, name: str) -> tuple[int, ...]:
        for function in self._analyzed.functions.values():
            for decl in function.locals:
                if decl.name == name:
                    return decl.dimensions
        raise KeyError(name)

    def _eval_int(self, expr: ast.Expr) -> int:
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.VarRef):
            return self._env.loop_vars[expr.name]
        if isinstance(expr, ast.UnaryExpr) and expr.op is ast.UnaryOp.NEG:
            return -self._eval_int(expr.operand)
        if isinstance(expr, ast.BinaryExpr):
            left = self._eval_int(expr.left)
            right = self._eval_int(expr.right)
            if expr.op is ast.BinaryOp.ADD:
                return left + right
            if expr.op is ast.BinaryOp.SUB:
                return left - right
            if expr.op is ast.BinaryOp.MUL:
                return left * right
            if expr.op is ast.BinaryOp.DIV:
                return left // right
        raise TypeError(f"not an index expression: {expr!r}")

    def _eval(self, expr: ast.Expr) -> float:
        if isinstance(expr, (ast.IntLiteral, ast.FloatLiteral)):
            return float(expr.value)
        if isinstance(expr, ast.VarRef):
            return self._env.scalars[expr.name]
        if isinstance(expr, ast.ArrayRef):
            return float(self._env.arrays[expr.name][self._flat_cell_index(expr)])
        if isinstance(expr, ast.UnaryExpr):
            value = self._eval(expr.operand)
            if expr.op is ast.UnaryOp.NEG:
                return -value
            return 1.0 if value == 0.0 else 0.0
        assert isinstance(expr, ast.BinaryExpr)
        op = expr.op
        if op is ast.BinaryOp.AND:
            return (
                1.0
                if self._eval(expr.left) != 0.0 and self._eval(expr.right) != 0.0
                else 0.0
            )
        if op is ast.BinaryOp.OR:
            return (
                1.0
                if self._eval(expr.left) != 0.0 or self._eval(expr.right) != 0.0
                else 0.0
            )
        left = self._eval(expr.left)
        right = self._eval(expr.right)
        if op is ast.BinaryOp.ADD:
            return left + right
        if op is ast.BinaryOp.SUB:
            return left - right
        if op is ast.BinaryOp.MUL:
            return left * right
        if op is ast.BinaryOp.DIV:
            try:
                return left / right
            except ZeroDivisionError:  # IEEE-754: x/±0 is ±inf, 0/0 NaN
                return left * math.copysign(math.inf, right)
        comparisons = {
            ast.BinaryOp.EQ: left == right,
            ast.BinaryOp.NE: left != right,
            ast.BinaryOp.LT: left < right,
            ast.BinaryOp.LE: left <= right,
            ast.BinaryOp.GT: left > right,
            ast.BinaryOp.GE: left >= right,
        }
        return 1.0 if comparisons[op] else 0.0


def interpret(
    analyzed: AnalyzedModule, inputs: dict[str, np.ndarray]
) -> dict[str, np.ndarray]:
    """Run a W2 module under the programmer's model; returns host arrays
    (inputs included) after execution, every NaN among them the quiet
    NaN every simulated run returns
    (:meth:`~repro.machine.host.HostMemory.outputs`).

    Right-to-left modules (receives from R, sends to L) are mirrored
    first, exactly as the compiler does — the array is symmetric.
    """
    if _flows_right_to_left(analyzed.module):
        from ..compiler.mirror import mirror_module
        from ..lang.semantic import analyze as _analyze

        analyzed = _analyze(mirror_module(analyzed.module))
    module = analyzed.module
    shapes = {
        param.name: module.host_decl(param.name).dimensions
        for param in module.params
    }
    memory = HostMemory.from_inputs(shapes, inputs)
    streams: dict[ast.Channel, list[float]] = {
        ast.Channel.X: [],
        ast.Channel.Y: [],
    }
    for cell in range(module.cellprogram.n_cells):
        interp = _CellInterpreter(analyzed, cell, memory, streams)
        interp.run()
        streams = interp.out_streams
    return memory.outputs(memory.arrays)
