"""Static semantics of W2.

The analyzer enforces the rules of Section 4.3 and the compilable-subset
restrictions of Section 5.1:

* every module parameter has a host declaration and vice versa;
* cell variables hold ``float`` data (scalars or arrays); ``int``
  declarations are only legal as loop indices, because Warp cells have no
  integer arithmetic (Section 2.2) — integer work belongs to the IU;
* ``for`` bounds must be compile-time constants (Section 5.1: the compiler
  "currently can only handle" constant bounds);
* array subscripts must be *affine* expressions in enclosing loop indices,
  so the IU can generate every address with additions only after strength
  reduction (Section 6.3.2); a function body may also use the indices of
  the loops around each of its calls, and no loop may reuse an index that
  is already open there;
* ``receive`` externals name host input data (or a literal, which the IU
  synthesises); ``send`` externals name host output locations;
* functions take no arguments, may not contain ``call`` (hence no
  recursion), and are invoked by ``call`` statements.

The result is an :class:`AnalyzedModule` bundling the AST with symbol
tables and the per-reference affine index forms that later phases
(decomposition, IU code generation) consume.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from . import ast
from .errors import SemanticError, SourceLocation, UnsupportedProgramError
from .symbols import Scope, Symbol, SymbolKind, host_kind


class ExprType(enum.Enum):
    """Types of W2 expressions during checking."""

    FLOAT = "float"
    INT = "int"
    BOOL = "bool"


@dataclass(frozen=True)
class AffineIndex:
    """An affine integer expression ``constant + sum(coeff[var] * var)``.

    Loop-index variables are referred to by name.  This is the canonical
    form the IU strength-reducer works from.
    """

    constant: int
    coefficients: tuple[tuple[str, int], ...]  # sorted by variable name

    def coefficient(self, var: str) -> int:
        for name, coeff in self.coefficients:
            if name == var:
                return coeff
        return 0

    @property
    def is_constant(self) -> bool:
        return not self.coefficients

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.coefficients)

    def evaluate(self, env: dict[str, int]) -> int:
        """Evaluate under a loop-index assignment.  The indices may be
        NumPy arrays that broadcast against each other; the result is
        then their broadcast shape."""
        value = self.constant
        for name, coeff in self.coefficients:
            value = value + coeff * env[name]
        return value

    def __str__(self) -> str:
        parts = [str(self.constant)] if self.constant or not self.coefficients else []
        for name, coeff in self.coefficients:
            if coeff == 1:
                parts.append(name)
            else:
                parts.append(f"{coeff}*{name}")
        return " + ".join(parts)


def affine_add(left: AffineIndex, right: AffineIndex, sign: int = 1) -> AffineIndex:
    """Return ``left + sign*right`` as an affine form."""
    coeffs = dict(left.coefficients)
    for name, coeff in right.coefficients:
        coeffs[name] = coeffs.get(name, 0) + sign * coeff
    pruned = tuple(sorted((n, c) for n, c in coeffs.items() if c != 0))
    return AffineIndex(left.constant + sign * right.constant, pruned)


def affine_scale(form: AffineIndex, factor: int) -> AffineIndex:
    if factor == 0:
        return AffineIndex(0, ())
    coeffs = tuple(sorted((n, c * factor) for n, c in form.coefficients))
    return AffineIndex(form.constant * factor, coeffs)


def affine_const(value: int) -> AffineIndex:
    return AffineIndex(value, ())


def affine_var(name: str) -> AffineIndex:
    return AffineIndex(0, ((name, 1),))


class _AffineBuilder:
    """Convert an integer expression over loop indices into affine form."""

    def __init__(
        self, scope: Scope, check_index: Callable[[str, SourceLocation], None]
    ):
        self._scope = scope
        self._check_index = check_index

    def build(self, expr: ast.Expr) -> AffineIndex:
        if isinstance(expr, ast.IntLiteral):
            return affine_const(expr.value)
        if isinstance(expr, ast.VarRef):
            symbol = self._scope.lookup_or_fail(expr.name, expr.location)
            if symbol.kind not in (SymbolKind.LOOP_INDEX, SymbolKind.CELL_ID):
                raise SemanticError(
                    f"{expr.name!r} is not a loop index; array subscripts may "
                    "only use loop indices and constants",
                    expr.location,
                )
            if symbol.kind is SymbolKind.LOOP_INDEX:
                self._check_index(expr.name, expr.location)
            return affine_var(expr.name)
        if isinstance(expr, ast.UnaryExpr) and expr.op is ast.UnaryOp.NEG:
            return affine_scale(self.build(expr.operand), -1)
        if isinstance(expr, ast.BinaryExpr):
            if expr.op is ast.BinaryOp.ADD:
                return affine_add(self.build(expr.left), self.build(expr.right))
            if expr.op is ast.BinaryOp.SUB:
                return affine_add(self.build(expr.left), self.build(expr.right), -1)
            if expr.op is ast.BinaryOp.MUL:
                left = self.build(expr.left)
                right = self.build(expr.right)
                if left.is_constant:
                    return affine_scale(right, left.constant)
                if right.is_constant:
                    return affine_scale(left, right.constant)
                raise UnsupportedProgramError(
                    "array subscript is not affine in the loop indices "
                    "(product of two indices); the IU generates addresses "
                    "with additions only",
                    expr.location,
                )
            if expr.op is ast.BinaryOp.DIV:
                left = self.build(expr.left)
                right = self.build(expr.right)
                if right.is_constant and right.constant != 0:
                    if left.is_constant and left.constant % right.constant == 0:
                        return affine_const(left.constant // right.constant)
                raise UnsupportedProgramError(
                    "division in array subscripts must fold to a constant",
                    expr.location,
                )
        raise SemanticError(
            "array subscripts must be affine integer expressions",
            expr.location,
        )


@dataclass
class IOStatementInfo:
    """Semantic facts about one send/receive statement."""

    stmt: ast.Stmt
    direction: ast.Direction
    channel: ast.Channel
    # For receive: the external source ('host array ref' affine indices or a
    # literal). For send: the external destination.  None when absent.
    external_name: str | None
    external_indices: tuple[AffineIndex, ...]
    external_literal: float | None


@dataclass
class AnalyzedModule:
    """A W2 module that passed semantic analysis, plus derived facts."""

    module: ast.Module
    host_scope: Scope
    cell_scope: Scope
    functions: dict[str, ast.FunctionDecl]
    #: Affine forms for every array subscript list, keyed by node identity.
    array_index_forms: dict[int, tuple[AffineIndex, ...]]
    #: Constant values of every for-loop (start, stop, trip count), keyed by
    #: node identity.
    loop_bounds: dict[int, tuple[int, int, int]]
    #: Per-I/O-statement facts, keyed by node identity.
    io_info: dict[int, IOStatementInfo]

    @property
    def n_cells(self) -> int:
        return self.module.cellprogram.n_cells

    def indices_for(self, ref: ast.ArrayRef) -> tuple[AffineIndex, ...]:
        return self.array_index_forms[id(ref)]

    def bounds_for(self, loop: ast.For) -> tuple[int, int, int]:
        return self.loop_bounds[id(loop)]


def _not_enclosing(name: str) -> str:
    return (
        f"{name!r} is not the index of an enclosing loop; array subscripts "
        "may only use the indices of the loops around them"
    )


def _reused_index(name: str) -> str:
    return (
        f"{name!r} is already the index of an enclosing loop; a loop may "
        "not reuse it"
    )


class SemanticAnalyzer:
    """Single-pass checker producing an :class:`AnalyzedModule`."""

    def __init__(self, module: ast.Module):
        self._module = module
        self._host_scope = Scope()
        self._cell_scope = Scope(self._host_scope)
        self._functions: dict[str, ast.FunctionDecl] = {}
        self._array_index_forms: dict[int, tuple[AffineIndex, ...]] = {}
        self._loop_bounds: dict[int, tuple[int, int, int]] = {}
        self._io_info: dict[int, IOStatementInfo] = {}
        #: The index variables of the loops around the statement being
        #: checked, outermost first (in a function body, the function's
        #: own loops only).
        self._loop_indices: list[str] = []
        #: The function whose body is being checked, if any.
        self._function: ast.FunctionDecl | None = None
        #: Per function: the caller's loop indices its subscripts name
        #: (each with its first use), and the indices its loops run over.
        #: Every call site must have the former open and none of the latter.
        self._caller_indices: dict[str, dict[str, SourceLocation]] = {}
        self._function_loops: dict[str, set[str]] = {}

    def analyze(self) -> AnalyzedModule:
        self._check_params()
        cellprogram = self._module.cellprogram
        self._cell_scope.define(
            Symbol(
                cellprogram.cell_var,
                SymbolKind.CELL_ID,
                ast.ScalarType.INT,
                (),
                cellprogram.location,
            )
        )
        for decl in cellprogram.locals:
            self._define_cell_var(self._cell_scope, decl)
        for function in cellprogram.functions:
            if function.name in self._functions:
                raise SemanticError(
                    f"duplicate function {function.name!r}", function.location
                )
            self._functions[function.name] = function
        for function in cellprogram.functions:
            scope = Scope(self._cell_scope)
            for decl in function.locals:
                self._define_cell_var(scope, decl)
            self._function = function
            self._caller_indices[function.name] = {}
            self._function_loops[function.name] = set()
            self._check_statements(function.body.statements, scope, in_function=True)
            self._function = None
        self._check_statements(
            cellprogram.body, self._cell_scope, in_function=False
        )
        return AnalyzedModule(
            module=self._module,
            host_scope=self._host_scope,
            cell_scope=self._cell_scope,
            functions=self._functions,
            array_index_forms=self._array_index_forms,
            loop_bounds=self._loop_bounds,
            io_info=self._io_info,
        )

    # Declarations ---------------------------------------------------------

    def _check_params(self) -> None:
        declared = {decl.name: decl for decl in self._module.host_decls}
        for param in self._module.params:
            decl = declared.pop(param.name, None)
            if decl is None:
                raise SemanticError(
                    f"parameter {param.name!r} has no host declaration",
                    param.location,
                )
            self._host_scope.define(
                Symbol(
                    param.name,
                    host_kind(param.direction),
                    decl.scalar_type,
                    decl.dimensions,
                    decl.location,
                )
            )
        if declared:
            leftover = next(iter(declared.values()))
            raise SemanticError(
                f"host declaration {leftover.name!r} does not match any "
                "module parameter",
                leftover.location,
            )

    def _define_cell_var(self, scope: Scope, decl: ast.VarDecl) -> None:
        if decl.scalar_type is ast.ScalarType.INT and decl.is_array:
            raise SemanticError(
                "int arrays are not supported on Warp cells (cells have no "
                "integer arithmetic)",
                decl.location,
            )
        kind = (
            SymbolKind.LOOP_INDEX
            if decl.scalar_type is ast.ScalarType.INT
            else SymbolKind.CELL_VAR
        )
        scope.define(
            Symbol(decl.name, kind, decl.scalar_type, decl.dimensions, decl.location)
        )

    # Statements -------------------------------------------------------------

    def _check_statements(
        self, statements: tuple[ast.Stmt, ...], scope: Scope, in_function: bool
    ) -> None:
        for stmt in statements:
            self._check_statement(stmt, scope, in_function)

    def _check_statement(self, stmt: ast.Stmt, scope: Scope, in_function: bool) -> None:
        if isinstance(stmt, ast.Assign):
            self._check_assign(stmt, scope)
        elif isinstance(stmt, ast.If):
            cond_type = self._check_expr(stmt.condition, scope)
            if cond_type is not ExprType.BOOL:
                raise SemanticError(
                    "if condition must be a boolean expression", stmt.location
                )
            self._check_statement(stmt.then_body, scope, in_function)
            if stmt.else_body is not None:
                self._check_statement(stmt.else_body, scope, in_function)
        elif isinstance(stmt, ast.For):
            self._check_for(stmt, scope, in_function)
        elif isinstance(stmt, ast.Call):
            if in_function:
                raise SemanticError(
                    "call statements are not allowed inside functions "
                    "(W2 functions do not nest)",
                    stmt.location,
                )
            if stmt.name not in self._functions:
                raise SemanticError(
                    f"call of undefined function {stmt.name!r}", stmt.location
                )
            self._check_call_loops(stmt)
        elif isinstance(stmt, ast.Receive):
            self._check_receive(stmt, scope)
        elif isinstance(stmt, ast.Send):
            self._check_send(stmt, scope)
        elif isinstance(stmt, ast.Compound):
            self._check_statements(stmt.statements, scope, in_function)
        else:  # pragma: no cover - parser produces no other nodes
            raise SemanticError("unknown statement", stmt.location)

    def _check_assign(self, stmt: ast.Assign, scope: Scope) -> None:
        target_type = self._check_lvalue(stmt.target, scope, cell_side=True)
        if target_type is not ExprType.FLOAT:
            raise SemanticError(
                "assignment targets must be float cell variables "
                "(integers live on the IU)",
                stmt.location,
            )
        value_type = self._check_expr(stmt.value, scope)
        if value_type is not ExprType.FLOAT:
            raise SemanticError(
                "assigned value must be a float expression", stmt.location
            )

    def _check_for(self, stmt: ast.For, scope: Scope, in_function: bool) -> None:
        symbol = scope.lookup_or_fail(stmt.var, stmt.location)
        if symbol.kind is not SymbolKind.LOOP_INDEX:
            raise SemanticError(
                f"for-loop variable {stmt.var!r} must be declared int",
                stmt.location,
            )
        start = self._constant_int(stmt.start, scope)
        stop = self._constant_int(stmt.stop, scope)
        if stmt.downto:
            trip = start - stop + 1
        else:
            trip = stop - start + 1
        if trip <= 0:
            raise UnsupportedProgramError(
                "for loop executes zero iterations; empty loops are not "
                "meaningful on the Warp array",
                stmt.location,
            )
        if stmt.var in self._loop_indices:
            raise SemanticError(_reused_index(stmt.var), stmt.location)
        if self._function is not None:
            self._function_loops[self._function.name].add(stmt.var)
        self._loop_bounds[id(stmt)] = (start, stop, trip)
        self._loop_indices.append(stmt.var)
        try:
            self._check_statement(stmt.body, scope, in_function)
        finally:
            self._loop_indices.pop()

    def _check_loop_index(self, name: str, location: SourceLocation) -> None:
        """A subscript may name the index of a loop around it.  In a
        function body it may also name a caller's index (not one of the
        function's locals); each call site is checked for it."""
        if name in self._loop_indices:
            return
        function = self._function
        if function is not None and all(
            decl.name != name for decl in function.locals
        ):
            self._caller_indices[function.name].setdefault(name, location)
            return
        raise SemanticError(_not_enclosing(name), location)

    def _check_call_loops(self, stmt: ast.Call) -> None:
        for name, use in self._caller_indices[stmt.name].items():
            if name not in self._loop_indices:
                raise SemanticError(
                    f"{_not_enclosing(name)} (function {stmt.name!r} "
                    f"subscripts with it at {use})",
                    stmt.location,
                )
        for name in self._loop_indices:
            if name in self._function_loops[stmt.name]:
                raise SemanticError(
                    f"{_reused_index(name)} (function {stmt.name!r} loops "
                    "over it)",
                    stmt.location,
                )

    def _check_receive(self, stmt: ast.Receive, scope: Scope) -> None:
        target_type = self._check_lvalue(stmt.target, scope, cell_side=True)
        if target_type is not ExprType.FLOAT:
            raise SemanticError(
                "receive target must be a float cell variable", stmt.location
            )
        external_name: str | None = None
        external_indices: tuple[AffineIndex, ...] = ()
        external_literal: float | None = None
        if stmt.external is not None:
            if isinstance(stmt.external, (ast.FloatLiteral, ast.IntLiteral)):
                external_literal = float(stmt.external.value)
            else:
                external_name, external_indices = self._check_host_ref(
                    stmt.external, scope, want_kind=SymbolKind.HOST_IN
                )
        self._io_info[id(stmt)] = IOStatementInfo(
            stmt=stmt,
            direction=stmt.direction,
            channel=stmt.channel,
            external_name=external_name,
            external_indices=external_indices,
            external_literal=external_literal,
        )

    def _check_send(self, stmt: ast.Send, scope: Scope) -> None:
        value_type = self._check_expr(stmt.value, scope)
        if value_type is not ExprType.FLOAT:
            raise SemanticError(
                "sent value must be a float expression", stmt.location
            )
        external_name: str | None = None
        external_indices: tuple[AffineIndex, ...] = ()
        if stmt.external is not None:
            external_name, external_indices = self._check_host_ref(
                stmt.external, scope, want_kind=SymbolKind.HOST_OUT
            )
        self._io_info[id(stmt)] = IOStatementInfo(
            stmt=stmt,
            direction=stmt.direction,
            channel=stmt.channel,
            external_name=external_name,
            external_indices=external_indices,
            external_literal=None,
        )

    def _check_host_ref(
        self, expr: ast.Expr, scope: Scope, want_kind: SymbolKind
    ) -> tuple[str, tuple[AffineIndex, ...]]:
        if isinstance(expr, ast.VarRef):
            name, indices = expr.name, ()
            location = expr.location
        elif isinstance(expr, ast.ArrayRef):
            name = expr.name
            location = expr.location
            indices = tuple(
                _AffineBuilder(scope, self._check_loop_index).build(index)
                for index in expr.indices
            )
            self._array_index_forms[id(expr)] = indices
        else:
            raise SemanticError(
                "external argument must name a host variable", expr.location
            )
        symbol = self._host_scope.lookup(name)
        if symbol is None or symbol.kind not in (
            SymbolKind.HOST_IN,
            SymbolKind.HOST_OUT,
        ):
            raise SemanticError(
                f"external argument {name!r} must be a module parameter",
                location,
            )
        if symbol.kind is not want_kind:
            raise SemanticError(
                f"external argument {name!r} has the wrong direction "
                f"({symbol.kind.value}; expected {want_kind.value})",
                location,
            )
        if len(indices) != len(symbol.dimensions):
            raise SemanticError(
                f"{name!r} expects {len(symbol.dimensions)} subscripts, "
                f"got {len(indices)}",
                location,
            )
        return name, indices

    # Expressions --------------------------------------------------------------

    def _check_lvalue(
        self, expr: ast.Expr, scope: Scope, cell_side: bool
    ) -> ExprType:
        if isinstance(expr, ast.VarRef):
            symbol = scope.lookup_or_fail(expr.name, expr.location)
            if cell_side and symbol.kind in (SymbolKind.HOST_IN, SymbolKind.HOST_OUT):
                raise SemanticError(
                    f"host variable {expr.name!r} cannot be accessed directly "
                    "by cell code; use send/receive externals",
                    expr.location,
                )
            if symbol.kind in (SymbolKind.LOOP_INDEX, SymbolKind.CELL_ID):
                raise SemanticError(
                    f"{expr.name!r} is a loop index and cannot be assigned",
                    expr.location,
                )
            if symbol.is_array:
                raise SemanticError(
                    f"array {expr.name!r} used without subscripts", expr.location
                )
            return ExprType.FLOAT
        if isinstance(expr, ast.ArrayRef):
            symbol = scope.lookup_or_fail(expr.name, expr.location)
            if cell_side and symbol.kind in (SymbolKind.HOST_IN, SymbolKind.HOST_OUT):
                raise SemanticError(
                    f"host array {expr.name!r} cannot be accessed directly "
                    "by cell code; use send/receive externals",
                    expr.location,
                )
            if not symbol.is_array:
                raise SemanticError(
                    f"{expr.name!r} is not an array", expr.location
                )
            if len(expr.indices) != len(symbol.dimensions):
                raise SemanticError(
                    f"{expr.name!r} expects {len(symbol.dimensions)} "
                    f"subscripts, got {len(expr.indices)}",
                    expr.location,
                )
            forms = tuple(
                _AffineBuilder(scope, self._check_loop_index).build(index)
                for index in expr.indices
            )
            self._array_index_forms[id(expr)] = forms
            return ExprType.FLOAT
        raise SemanticError("invalid assignment target", expr.location)

    def _check_expr(self, expr: ast.Expr, scope: Scope) -> ExprType:
        if isinstance(expr, ast.IntLiteral):
            # Integer literals are promoted to float in value contexts; the
            # distinction only matters inside subscripts, which use the
            # affine builder instead.
            return ExprType.FLOAT
        if isinstance(expr, ast.FloatLiteral):
            return ExprType.FLOAT
        if isinstance(expr, (ast.VarRef, ast.ArrayRef)):
            return self._check_value_ref(expr, scope)
        if isinstance(expr, ast.UnaryExpr):
            operand = self._check_expr(expr.operand, scope)
            if expr.op is ast.UnaryOp.NEG:
                if operand is not ExprType.FLOAT:
                    raise SemanticError("negation needs a float", expr.location)
                return ExprType.FLOAT
            if operand is not ExprType.BOOL:
                raise SemanticError("'not' needs a boolean", expr.location)
            return ExprType.BOOL
        if isinstance(expr, ast.BinaryExpr):
            return self._check_binary(expr, scope)
        raise SemanticError("invalid expression", expr.location)

    def _check_value_ref(self, expr: ast.Expr, scope: Scope) -> ExprType:
        if isinstance(expr, ast.VarRef):
            symbol = scope.lookup_or_fail(expr.name, expr.location)
            if symbol.kind in (SymbolKind.HOST_IN, SymbolKind.HOST_OUT):
                raise SemanticError(
                    f"host variable {expr.name!r} cannot be read by cell code",
                    expr.location,
                )
            if symbol.kind is SymbolKind.FUNCTION:
                raise SemanticError(
                    f"function {expr.name!r} used as a value", expr.location
                )
            if symbol.kind in (SymbolKind.LOOP_INDEX, SymbolKind.CELL_ID):
                raise SemanticError(
                    f"loop index {expr.name!r} cannot be used as a float "
                    "value (cells have no integer datapath); use it only in "
                    "array subscripts",
                    expr.location,
                )
            if symbol.is_array:
                raise SemanticError(
                    f"array {expr.name!r} used without subscripts",
                    expr.location,
                )
            return ExprType.FLOAT
        assert isinstance(expr, ast.ArrayRef)
        return self._check_lvalue(expr, scope, cell_side=True)

    def _check_binary(self, expr: ast.BinaryExpr, scope: Scope) -> ExprType:
        left = self._check_expr(expr.left, scope)
        right = self._check_expr(expr.right, scope)
        if expr.op in (ast.BinaryOp.AND, ast.BinaryOp.OR):
            if left is not ExprType.BOOL or right is not ExprType.BOOL:
                raise SemanticError(
                    f"'{expr.op.value}' needs boolean operands", expr.location
                )
            return ExprType.BOOL
        if expr.op in (
            ast.BinaryOp.EQ,
            ast.BinaryOp.NE,
            ast.BinaryOp.LT,
            ast.BinaryOp.LE,
            ast.BinaryOp.GT,
            ast.BinaryOp.GE,
        ):
            if left is not ExprType.FLOAT or right is not ExprType.FLOAT:
                raise SemanticError(
                    "comparisons need float operands", expr.location
                )
            return ExprType.BOOL
        if left is not ExprType.FLOAT or right is not ExprType.FLOAT:
            raise SemanticError(
                f"'{expr.op.value}' needs float operands", expr.location
            )
        return ExprType.FLOAT

    # Constants ---------------------------------------------------------------

    def _constant_int(self, expr: ast.Expr, scope: Scope) -> int:
        """Evaluate a compile-time constant integer expression.

        Loop bounds must be compile-time constants (Section 5.1); anything
        else raises :class:`UnsupportedProgramError`.
        """
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.UnaryExpr) and expr.op is ast.UnaryOp.NEG:
            return -self._constant_int(expr.operand, scope)
        if isinstance(expr, ast.BinaryExpr):
            left = self._constant_int(expr.left, scope)
            right = self._constant_int(expr.right, scope)
            if expr.op is ast.BinaryOp.ADD:
                return left + right
            if expr.op is ast.BinaryOp.SUB:
                return left - right
            if expr.op is ast.BinaryOp.MUL:
                return left * right
            if expr.op is ast.BinaryOp.DIV and right != 0:
                return left // right
        raise UnsupportedProgramError(
            "loop bounds must be compile-time constants (while statements "
            "and dynamic bounds are not supported; Section 5.1)",
            expr.location,
        )


def analyze(module: ast.Module) -> AnalyzedModule:
    """Run semantic analysis on a parsed module."""
    return SemanticAnalyzer(module).analyze()
