"""Lowering W2 ASTs to the program tree IR.

This is the "local analysis" half of the paper's flow analyzer
(Section 6.1): it builds the basic-block DAGs, performing on the fly

* function inlining (W2 functions are parameterless and non-recursive,
  so ``call`` is macro expansion with renaming);
* if-conversion — Warp cells run in lock step with the IU's address and
  loop-signal streams, so data-dependent control flow becomes ``SELECT``
  operations over both evaluated arms;
* scalar value propagation (copy propagation within a block);
* constant folding and algebraic simplification (delegated to
  :mod:`repro.analysis.local_opt`);
* common-subexpression elimination (via DAG value numbering);
* store-to-load forwarding within a block;
* flattening of multi-dimensional array subscripts into a single affine
  index (row-major).

The result is a :class:`CellProgramIR`: the program tree plus the symbol
inventory (arrays, scalars) and the I/O statement table that the host and
IU code generators consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis import local_opt
from ..analysis.dependence import IndexRange, may_alias_same_iteration
from ..lang import ast
from ..lang.errors import UnsupportedProgramError
from ..lang.semantic import (
    AffineIndex,
    AnalyzedModule,
    affine_add,
    affine_const,
    affine_scale,
)
from ..lang.symbols import Symbol, SymbolKind
from .dag import Dag, MemRef, Node, OpKind, QueueRef
from .tree import BasicBlock, Loop, ProgramTree

_BINOP_TO_OPKIND = {
    ast.BinaryOp.ADD: OpKind.FADD,
    ast.BinaryOp.SUB: OpKind.FSUB,
    ast.BinaryOp.MUL: OpKind.FMUL,
    ast.BinaryOp.DIV: OpKind.FDIV,
    ast.BinaryOp.EQ: OpKind.CMP_EQ,
    ast.BinaryOp.NE: OpKind.CMP_NE,
    ast.BinaryOp.LT: OpKind.CMP_LT,
    ast.BinaryOp.LE: OpKind.CMP_LE,
    ast.BinaryOp.GT: OpKind.CMP_GT,
    ast.BinaryOp.GE: OpKind.CMP_GE,
    ast.BinaryOp.AND: OpKind.BAND,
    ast.BinaryOp.OR: OpKind.BOR,
}


@dataclass(frozen=True)
class IOStatement:
    """Static description of one send/receive statement after lowering.

    ``external_array``/``external_index`` describe the host-side binding
    (flattened row-major); ``external_literal`` is set when the external
    argument was a literal the IU synthesises.  Exactly one of the three
    groups is populated, or none when the statement had no external.
    """

    io_index: int
    kind: OpKind  # RECV or SEND
    direction: ast.Direction
    channel: ast.Channel
    external_array: str | None = None
    external_index: AffineIndex | None = None
    external_literal: float | None = None


@dataclass
class CellProgramIR:
    """The lowered cell program plus the tables later phases consume."""

    tree: ProgramTree
    #: Cell-memory arrays: name -> element count.
    arrays: dict[str, int]
    #: Scalar float cell variables (pinned to registers by the allocator).
    scalars: list[str]
    #: Static I/O statements indexed by io_index.
    io_statements: list[IOStatement]
    #: Host array shapes (row-major), name -> dimensions.
    host_arrays: dict[str, tuple[int, ...]]
    n_cells: int
    module_name: str
    #: Scalars that must not be demoted to memory (assigned in if-arms).
    branch_assigned: frozenset[str] = frozenset()


class _Renamer:
    """Per-call-site renaming of function locals (and affine variables).

    ``substitutions`` additionally maps a loop variable onto an affine
    function of itself, ``var -> scale*var + offset`` — the mechanism
    behind loop unrolling, where copy ``j`` of the body sees the
    original index as ``(step*U)*q + (start + step*j)``.
    """

    def __init__(
        self,
        mapping: dict[str, str],
        substitutions: dict[str, tuple[int, int]] | None = None,
        parent: "_Renamer | None" = None,
    ):
        self._mapping = mapping
        self._substitutions = substitutions or {}
        self._parent = parent

    def name(self, name: str) -> str:
        renamed = self._mapping.get(name, name)
        if self._parent is not None and renamed == name:
            return self._parent.name(name)
        return renamed

    def affine(self, form: AffineIndex) -> AffineIndex:
        if not form.coefficients:
            return form
        constant = form.constant
        coeffs: dict[str, int] = {}
        for var, coeff in form.coefficients:
            renamed = self.name(var)
            scale, offset = self._all_substitutions().get(renamed, (1, 0))
            constant += coeff * offset
            scaled = coeff * scale
            if scaled:
                coeffs[renamed] = coeffs.get(renamed, 0) + scaled
        pruned = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
        return AffineIndex(constant, pruned)

    def _all_substitutions(self) -> dict[str, tuple[int, int]]:
        if self._parent is None:
            return self._substitutions
        merged = dict(self._parent._all_substitutions())
        merged.update(self._substitutions)
        return merged

    def with_substitution(
        self, var: str, scale: int, offset: int
    ) -> "_Renamer":
        return _Renamer({}, {var: (scale, offset)}, parent=self)


class IRBuilder:
    """Build a :class:`CellProgramIR` from an analyzed module."""

    def __init__(
        self,
        analyzed: AnalyzedModule,
        memory_scalars: frozenset[str] = frozenset(),
        unroll_factor: int = 1,
        enable_local_opt: bool = True,
    ):
        """``memory_scalars`` names scalar variables to keep in cell
        memory instead of pinning to registers — the driver's escape
        hatch when register pressure is too high.  ``unroll_factor``
        unrolls innermost loops up to that factor (the largest divisor
        of the trip count is used), amortising the block-drain cycles
        over several iterations."""
        self._analyzed = analyzed
        self._memory_scalars = memory_scalars
        self._unroll_factor = unroll_factor
        self._enable_local_opt = enable_local_opt
        self._module = analyzed.module
        #: Scalars assigned inside if-arms; these must stay in registers
        #: (their SELECT merge cannot be expressed as a predicated store).
        self.branch_assigned: set[str] = set()
        self._tree = ProgramTree()
        self._next_block_id = 0
        self._next_loop_id = 0
        self._next_io_index = 0
        self._io_statements: list[IOStatement] = []
        self._arrays: dict[str, int] = {}
        self._scalars: list[str] = []
        self._scalar_set: set[str] = set()
        self._inline_counter = 0
        # Per-open-block state.
        self._dag: Dag | None = None
        self._values: dict[str, Node] = {}
        self._reads: dict[str, Node] = {}
        self._last_io: dict[tuple[OpKind, QueueRef], Node] = {}
        self._block_stores: dict[str, list] = {}
        self._block_loads: dict[str, list] = {}
        self._forward: dict[str, dict[AffineIndex, Node]] = {}
        self._container: list = self._tree.items
        self._container_stack: list[list] = []
        #: Ranges of the currently-open loop indices (for dependence
        #: tests on memory references).
        self._loop_ranges: dict[str, IndexRange] = {}

    # Public entry ---------------------------------------------------------

    def build(self) -> CellProgramIR:
        cellprogram = self._module.cellprogram
        renamer = _Renamer({})
        self._declare_locals(cellprogram.locals, renamer)
        self._open_block()
        for stmt in cellprogram.body:
            self._build_stmt(stmt, renamer)
        self._close_block()
        host_arrays = {
            param.name: self._module.host_decl(param.name).dimensions
            for param in self._module.params
        }
        return CellProgramIR(
            tree=self._tree,
            arrays=self._arrays,
            scalars=self._scalars,
            io_statements=self._io_statements,
            host_arrays=host_arrays,
            n_cells=cellprogram.n_cells,
            module_name=self._module.name,
            branch_assigned=frozenset(self.branch_assigned),
        )

    # Declarations ----------------------------------------------------------

    def _declare_locals(self, decls: tuple[ast.VarDecl, ...], renamer: _Renamer) -> None:
        for decl in decls:
            name = renamer.name(decl.name)
            if decl.scalar_type is ast.ScalarType.INT:
                continue  # loop indices live on the IU
            if decl.is_array:
                self._arrays[name] = decl.element_count
            elif name in self._memory_scalars:
                self._arrays[name] = 1
            elif name not in self._scalar_set:
                self._scalar_set.add(name)
                self._scalars.append(name)

    # Block management --------------------------------------------------------

    def _open_block(self) -> None:
        self._dag = Dag()
        self._values = {}
        self._reads = {}
        self._last_io = {}
        self._block_stores = {}
        self._block_loads = {}
        self._forward = {}

    def _close_block(self) -> None:
        """Finalise the open block and append it if non-empty."""
        dag = self._dag
        assert dag is not None
        for var, value in sorted(self._values.items()):
            read = self._reads.get(var)
            if read is not None and read.node_id == value.node_id:
                continue  # unchanged
            write = dag.write(var, value)
            if read is not None:
                dag.add_order_edge(read, write)
        if dag.effects:
            block = BasicBlock(self._next_block_id, dag)
            self._next_block_id += 1
            self._container.append(block)
        self._dag = None

    def _enter_loop(self, loop: Loop) -> None:
        self._close_block()
        self._container.append(loop)
        self._container_stack.append(self._container)
        self._container = loop.body
        self._open_block()

    def _exit_loop(self) -> None:
        self._close_block()
        body = self._container
        self._container = self._container_stack.pop()
        if not body:
            # A loop with no effects compiles to nothing.
            self._container.pop()
        self._open_block()

    # Statements ---------------------------------------------------------------

    def _build_stmt(self, stmt: ast.Stmt, renamer: _Renamer) -> None:
        if isinstance(stmt, ast.Compound):
            for inner in stmt.statements:
                self._build_stmt(inner, renamer)
        elif isinstance(stmt, ast.Assign):
            self._build_assign(stmt, renamer)
        elif isinstance(stmt, ast.If):
            self._build_if(stmt, renamer)
        elif isinstance(stmt, ast.For):
            self._build_for(stmt, renamer)
        elif isinstance(stmt, ast.Call):
            self._build_call(stmt, renamer)
        elif isinstance(stmt, ast.Receive):
            self._build_receive(stmt, renamer)
        elif isinstance(stmt, ast.Send):
            self._build_send(stmt, renamer)
        else:  # pragma: no cover
            raise UnsupportedProgramError("unknown statement", stmt.location)

    def _build_call(self, stmt: ast.Call, caller: _Renamer) -> None:
        function = self._analyzed.functions[stmt.name]
        self._inline_counter += 1
        prefix = f"{stmt.name}${self._inline_counter}."
        mapping = {decl.name: prefix + decl.name for decl in function.locals}
        # Other names resolve as at the call site: the body may subscript
        # with the caller's (renamed, possibly unrolled) loop indices.
        renamer = _Renamer(mapping, parent=caller)
        self._declare_locals(function.locals, renamer)
        for inner in function.body.statements:
            self._build_stmt(inner, renamer)

    def _build_assign(self, stmt: ast.Assign, renamer: _Renamer) -> None:
        value = self._build_expr(stmt.value, renamer)
        self._assign_target(stmt.target, value, renamer)

    def _assign_target(self, target: ast.Expr, value: Node, renamer: _Renamer) -> None:
        if isinstance(target, ast.VarRef):
            name = renamer.name(target.name)
            if name in self._memory_scalars:
                self._store_ref(MemRef(name, affine_const(0)), value)
            else:
                self._values[name] = value
            return
        assert isinstance(target, ast.ArrayRef)
        ref = self._mem_ref(target, renamer)
        self._store_ref(ref, value)

    def _store_ref(self, ref: MemRef, value: Node) -> None:
        dag = self._dag
        assert dag is not None
        store = dag.store(ref, value)
        self._order_memory(store, ref, is_store=True)
        # Store-to-load forwarding: entries whose address provably
        # differs from the stored one (dependence test) survive.
        table = self._forward.setdefault(ref.array, {})
        survivors = {
            index: node
            for index, node in table.items()
            if not may_alias_same_iteration(index, ref.index, self._loop_ranges)
        }
        survivors[ref.index] = value
        self._forward[ref.array] = survivors

    def _build_for(self, stmt: ast.For, renamer: _Renamer) -> None:
        start, _stop, trip = self._analyzed.bounds_for(stmt)
        step = -1 if stmt.downto else 1
        factor = self._choose_unroll(stmt, trip)
        # W2 lets one declared index drive several loops; IR loop
        # variables must be unique (the IU keys induction updates by
        # loop variable), so each loop gets a fresh name.
        unique = f"{renamer.name(stmt.var)}#{self._next_loop_id}"
        body_renamer = _Renamer({stmt.var: unique}, parent=renamer)
        if factor > 1:
            loop = Loop(
                loop_id=self._next_loop_id,
                var=unique,
                start=0,
                step=1,
                trip=trip // factor,
            )
            self._next_loop_id += 1
            self._loop_ranges[unique] = IndexRange(0, trip // factor - 1)
            self._enter_loop(loop)
            for j in range(factor):
                copy_renamer = body_renamer.with_substitution(
                    unique, scale=step * factor, offset=start + step * j
                )
                self._build_stmt(stmt.body, copy_renamer)
            self._exit_loop()
            del self._loop_ranges[unique]
            return
        loop = Loop(
            loop_id=self._next_loop_id,
            var=unique,
            start=start,
            step=step,
            trip=trip,
        )
        self._next_loop_id += 1
        self._loop_ranges[unique] = IndexRange.of_loop(start, step, trip)
        self._enter_loop(loop)
        self._build_stmt(stmt.body, body_renamer)
        self._exit_loop()
        del self._loop_ranges[unique]

    def _choose_unroll(self, stmt: ast.For, trip: int) -> int:
        """The largest divisor of ``trip`` not exceeding the requested
        unroll factor, for innermost loops only."""
        if self._unroll_factor <= 1 or _contains_loop(stmt.body):
            return 1
        for factor in range(min(self._unroll_factor, trip), 1, -1):
            if trip % factor == 0:
                return factor
        return 1

    def _build_if(self, stmt: ast.If, renamer: _Renamer) -> None:
        condition = self._build_expr(stmt.condition, renamer)
        base = dict(self._values)

        self._values = dict(base)
        self._build_branch(stmt.then_body, renamer)
        then_values = self._values

        self._values = dict(base)
        if stmt.else_body is not None:
            self._build_branch(stmt.else_body, renamer)
        else_values = self._values

        merged = dict(base)
        for var in set(then_values) | set(else_values):
            then_val = then_values.get(var)
            else_val = else_values.get(var)
            if then_val is None or else_val is None:
                # Assigned in only one arm: on the other path the
                # variable keeps its current value — the block-entry
                # register contents if this block has not touched it yet.
                other = base.get(var)
                if other is None:
                    other = self._read_scalar(var)
                then_val = then_val if then_val is not None else other
                else_val = else_val if else_val is not None else other
            if then_val.node_id == else_val.node_id:
                merged[var] = then_val
            else:
                merged[var] = self._pure(
                    OpKind.SELECT, condition, then_val, else_val
                )
        self._values = merged

    def _read_scalar(self, name: str) -> Node:
        """The block-entry value of a (register-pinned) scalar."""
        dag = self._dag
        assert dag is not None
        read = self._reads.get(name)
        if read is None:
            read = dag.read(name)
            self._reads[name] = read
        return read

    def _build_branch(self, stmt: ast.Stmt, renamer: _Renamer) -> None:
        """Build an if-arm; only scalar assignments and nested ifs are
        permitted (I/O, loops and array stores cannot be predicated on the
        lock-step Warp array)."""
        if isinstance(stmt, ast.Compound):
            for inner in stmt.statements:
                self._build_branch(inner, renamer)
        elif isinstance(stmt, ast.Assign):
            if isinstance(stmt.target, ast.ArrayRef):
                raise UnsupportedProgramError(
                    "array stores inside 'if' are not supported: cells "
                    "cannot predicate memory writes against the IU's "
                    "address stream",
                    stmt.location,
                )
            name = renamer.name(stmt.target.name)
            if name in self._memory_scalars:
                raise ValueError(
                    f"internal: scalar {name!r} is assigned inside an "
                    "'if' and cannot be demoted to memory"
                )
            self.branch_assigned.add(name)
            self._build_assign(stmt, renamer)
        elif isinstance(stmt, ast.If):
            self._build_if(stmt, renamer)
        elif isinstance(stmt, (ast.Send, ast.Receive)):
            raise UnsupportedProgramError(
                "send/receive inside 'if' is not supported: conditional "
                "I/O has no compile-time timing (Section 5.1)",
                stmt.location,
            )
        elif isinstance(stmt, ast.For):
            raise UnsupportedProgramError(
                "loops inside 'if' are not supported: the IU's loop "
                "signals are unconditional",
                stmt.location,
            )
        else:
            raise UnsupportedProgramError(
                "unsupported statement inside 'if'", stmt.location
            )

    def _build_receive(self, stmt: ast.Receive, renamer: _Renamer) -> None:
        dag = self._dag
        assert dag is not None
        queue = QueueRef(stmt.direction, stmt.channel)
        node = dag.recv(queue)
        node.io_index = self._register_io(stmt, OpKind.RECV, renamer)
        self._order_io(node, OpKind.RECV, queue)
        self._assign_target(stmt.target, node, renamer)

    def _build_send(self, stmt: ast.Send, renamer: _Renamer) -> None:
        dag = self._dag
        assert dag is not None
        value = self._build_expr(stmt.value, renamer)
        queue = QueueRef(stmt.direction, stmt.channel)
        node = dag.send(queue, value)
        node.io_index = self._register_io(stmt, OpKind.SEND, renamer)
        self._order_io(node, OpKind.SEND, queue)

    def _register_io(
        self, stmt: ast.Stmt, kind: OpKind, renamer: _Renamer
    ) -> int:
        info = self._analyzed.io_info[id(stmt)]
        external_array = info.external_name
        external_index: AffineIndex | None = None
        if external_array is not None:
            dims = self._host_dims(external_array)
            renamed = tuple(renamer.affine(form) for form in info.external_indices)
            external_index = _flatten_index(renamed, dims)
        io_stmt = IOStatement(
            io_index=self._next_io_index,
            kind=kind,
            direction=info.direction,
            channel=info.channel,
            external_array=external_array,
            external_index=external_index,
            external_literal=info.external_literal,
        )
        self._next_io_index += 1
        self._io_statements.append(io_stmt)
        return io_stmt.io_index

    def _host_dims(self, name: str) -> tuple[int, ...]:
        return self._module.host_decl(name).dimensions

    # Ordering helpers -----------------------------------------------------

    def _order_io(self, node: Node, kind: OpKind, queue: QueueRef) -> None:
        dag = self._dag
        assert dag is not None
        key = (kind, queue)
        previous = self._last_io.get(key)
        if previous is not None:
            dag.add_order_edge(previous, node)
        self._last_io[key] = node

    def _order_memory(self, node: Node, ref: MemRef, is_store: bool) -> None:
        """Order edges between memory references of one array, pruned by
        the dependence tests: provably-disjoint references (e.g. ``w[i]``
        vs ``w[i+1]`` in the same iteration) may be reordered freely."""
        dag = self._dag
        assert dag is not None
        stores = self._block_stores.setdefault(ref.array, [])
        loads = self._block_loads.setdefault(ref.array, [])
        if is_store:
            for prior, index in stores:
                if may_alias_same_iteration(index, ref.index, self._loop_ranges):
                    dag.add_order_edge(prior, node)
            for prior, index in loads:
                if may_alias_same_iteration(index, ref.index, self._loop_ranges):
                    dag.add_order_edge(prior, node)
            stores.append((node, ref.index))
        else:
            for prior, index in stores:
                if may_alias_same_iteration(index, ref.index, self._loop_ranges):
                    dag.add_order_edge(prior, node)
            loads.append((node, ref.index))

    # Expressions ---------------------------------------------------------

    def _pure(self, op: OpKind, *operands: Node) -> Node:
        dag = self._dag
        assert dag is not None
        if self._enable_local_opt:
            folded = local_opt.fold(dag, op, operands)
            if folded is not None:
                return folded
        return dag.pure(op, *operands)

    def _build_expr(self, expr: ast.Expr, renamer: _Renamer) -> Node:
        dag = self._dag
        assert dag is not None
        if isinstance(expr, (ast.IntLiteral, ast.FloatLiteral)):
            return dag.const(float(expr.value))
        if isinstance(expr, ast.VarRef):
            name = renamer.name(expr.name)
            if name in self._memory_scalars:
                ref = MemRef(name, affine_const(0))
                forwarded = self._forward.get(name, {}).get(ref.index)
                if forwarded is not None:
                    return forwarded
                node = dag.load(ref)
                self._order_memory(node, ref, is_store=False)
                return node
            value = self._values.get(name)
            if value is not None:
                return value
            read = self._reads.get(name)
            if read is None:
                read = dag.read(name)
                self._reads[name] = read
            self._values[name] = read
            return read
        if isinstance(expr, ast.ArrayRef):
            ref = self._mem_ref(expr, renamer)
            forwarded = self._forward.get(ref.array, {}).get(ref.index)
            if forwarded is not None:
                return forwarded
            node = dag.load(ref)
            self._order_memory(node, ref, is_store=False)
            return node
        if isinstance(expr, ast.UnaryExpr):
            operand = self._build_expr(expr.operand, renamer)
            op = OpKind.FNEG if expr.op is ast.UnaryOp.NEG else OpKind.BNOT
            return self._pure(op, operand)
        if isinstance(expr, ast.BinaryExpr):
            left = self._build_expr(expr.left, renamer)
            right = self._build_expr(expr.right, renamer)
            return self._pure(_BINOP_TO_OPKIND[expr.op], left, right)
        raise UnsupportedProgramError(  # pragma: no cover
            "unsupported expression", expr.location
        )

    def _mem_ref(self, expr: ast.ArrayRef, renamer: _Renamer) -> MemRef:
        name = renamer.name(expr.name)
        symbol = self._cell_symbol(expr.name)
        forms = tuple(
            renamer.affine(form) for form in self._analyzed.indices_for(expr)
        )
        flat = _flatten_index(forms, symbol.dimensions)
        return MemRef(name, flat)

    def _cell_symbol(self, original_name: str) -> Symbol:
        symbol = self._analyzed.cell_scope.lookup(original_name)
        if symbol is not None and symbol.kind is SymbolKind.CELL_VAR:
            return symbol
        # Function locals are not in the cell scope; find the declaring
        # function (names are unique per function by semantic analysis).
        for function in self._analyzed.functions.values():
            for decl in function.locals:
                if decl.name == original_name:
                    return Symbol(
                        decl.name,
                        SymbolKind.CELL_VAR,
                        decl.scalar_type,
                        decl.dimensions,
                        decl.location,
                    )
        raise KeyError(original_name)


def _flatten_index(
    forms: tuple[AffineIndex, ...], dims: tuple[int, ...]
) -> AffineIndex:
    """Row-major flattening of a multi-dimensional affine subscript."""
    flat = affine_const(0)
    stride = 1
    for form, dim in zip(reversed(forms), reversed(dims)):
        flat = affine_add(flat, affine_scale(form, stride))
        stride *= dim
    return flat


def _contains_loop(stmt: ast.Stmt) -> bool:
    if isinstance(stmt, ast.For):
        return True
    if isinstance(stmt, ast.Compound):
        return any(_contains_loop(s) for s in stmt.statements)
    if isinstance(stmt, ast.If):
        if _contains_loop(stmt.then_body):
            return True
        return stmt.else_body is not None and _contains_loop(stmt.else_body)
    return False


def build_ir(
    analyzed: AnalyzedModule,
    memory_scalars: frozenset[str] = frozenset(),
    unroll_factor: int = 1,
    enable_local_opt: bool = True,
) -> CellProgramIR:
    """Lower an analyzed module to the cell-program IR.

    ``enable_local_opt=False`` disables constant folding, algebraic
    simplification and height reduction (CSE via value numbering stays)
    — for ablation studies only."""
    return IRBuilder(
        analyzed, memory_scalars, unroll_factor, enable_local_opt
    ).build()
