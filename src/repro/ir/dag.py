"""Directed acyclic graphs for basic-block computation.

"The computation of each basic block is represented as a directed acyclic
graph (dag).  Each node in a dag corresponds to an abstract operation of
the Warp cell.  This level models the Warp cell as a simple processor
with memory to memory operations and no registers." (Section 6.1)

Node kinds:

* pure value operations (arithmetic, comparisons, boolean ops, ``SELECT``)
  — value-numbered at construction time, which gives common-subexpression
  elimination for free;
* ``CONST`` — floating literals;
* ``READ``/``WRITE`` — the value of a scalar cell variable at block entry
  and the final value it must hold at block exit;
* ``LOAD``/``STORE`` — array accesses in cell memory, carrying the flat
  affine index expression (the part the IU will compute);
* ``RECV``/``SEND`` — the channel primitives, which are strictly ordered
  per queue.

Ordering (non-value) dependencies are kept as explicit *order edges*:
per-queue chains for I/O operations, load/store chains per array, and
write-after-read edges for scalar variables.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..lang.ast import Channel, Direction
from ..lang.semantic import AffineIndex


class OpKind(enum.Enum):
    CONST = "const"
    READ = "read"     # scalar variable value at block entry
    WRITE = "write"   # scalar variable value at block exit
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FNEG = "fneg"
    CMP_EQ = "cmp_eq"
    CMP_NE = "cmp_ne"
    CMP_LT = "cmp_lt"
    CMP_LE = "cmp_le"
    CMP_GT = "cmp_gt"
    CMP_GE = "cmp_ge"
    BAND = "band"
    BOR = "bor"
    BNOT = "bnot"
    SELECT = "select"  # select(cond, if_true, if_false)
    LOAD = "load"
    STORE = "store"    # store(value)
    RECV = "recv"
    SEND = "send"      # send(value)


#: Operations with no side effects; eligible for value numbering/CSE.
PURE_OPS = frozenset(
    {
        OpKind.CONST,
        OpKind.READ,
        OpKind.FADD,
        OpKind.FSUB,
        OpKind.FMUL,
        OpKind.FDIV,
        OpKind.FNEG,
        OpKind.CMP_EQ,
        OpKind.CMP_NE,
        OpKind.CMP_LT,
        OpKind.CMP_LE,
        OpKind.CMP_GT,
        OpKind.CMP_GE,
        OpKind.BAND,
        OpKind.BOR,
        OpKind.BNOT,
        OpKind.SELECT,
    }
)

#: Commutative binary operations (operand order normalised for CSE).
COMMUTATIVE_OPS = frozenset(
    {OpKind.FADD, OpKind.FMUL, OpKind.CMP_EQ, OpKind.CMP_NE, OpKind.BAND, OpKind.BOR}
)


@dataclass(frozen=True)
class MemRef:
    """An array access: resolved array name plus flat affine index."""

    array: str
    index: AffineIndex

    def __str__(self) -> str:
        return f"{self.array}[{self.index}]"


@dataclass(frozen=True)
class QueueRef:
    """One of the four queues a cell touches: (direction, channel)."""

    direction: Direction
    channel: Channel

    def __str__(self) -> str:
        return f"{self.direction}.{self.channel}"


@dataclass
class Node:
    """One DAG node.  ``operands`` are node ids within the same DAG."""

    node_id: int
    op: OpKind
    operands: tuple[int, ...] = ()
    #: CONST: float value.  READ/WRITE: variable name.  LOAD/STORE: MemRef.
    #: RECV/SEND: QueueRef.
    attr: object = None
    #: Stable global ordinal for I/O statements (RECV/SEND), assigned by
    #: the builder in program order; used to join with host/IU metadata.
    io_index: int | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"n{self.node_id}", self.op.value]
        if self.operands:
            parts.append("(" + ", ".join(f"n{o}" for o in self.operands) + ")")
        if self.attr is not None:
            parts.append(str(self.attr))
        return " ".join(parts)


class Dag:
    """A basic block's computation DAG with value numbering.

    Pure nodes are hash-consed: constructing the same pure operation on
    the same operands returns the existing node (local CSE, Section 6.1).
    Loads participate in value numbering within a "memory epoch" per
    array: a store to an array starts a new epoch, preventing unsound
    merging of loads across it.
    """

    def __init__(self) -> None:
        self.nodes: dict[int, Node] = {}
        self._next_id = 0
        self._value_numbers: dict[tuple, int] = {}
        self._mem_epoch: dict[str, int] = {}
        #: Explicit ordering (non-value) edges: (earlier id, later id).
        self.order_edges: list[tuple[int, int]] = []
        #: I/O, store and write nodes in program order (the block's
        #: observable effects).
        self.effects: list[int] = []
        #: Value-numbering hits: requests answered by an existing node.
        self.cse_hits = 0

    # Construction -------------------------------------------------------

    def _new_node(
        self,
        op: OpKind,
        operands: tuple[int, ...] = (),
        attr: object = None,
    ) -> Node:
        node = Node(self._next_id, op, operands, attr)
        self.nodes[node.node_id] = node
        self._next_id += 1
        return node

    def const(self, value: float) -> Node:
        return self._pure(OpKind.CONST, (), float(value))

    def read(self, var: str) -> Node:
        return self._pure(OpKind.READ, (), var)

    def _pure(self, op: OpKind, operands: tuple[int, ...], attr: object) -> Node:
        if op in COMMUTATIVE_OPS and len(operands) == 2:
            operands = tuple(sorted(operands))
        key = (op, operands, attr)
        existing = self._value_numbers.get(key)
        if existing is not None:
            self.cse_hits += 1
            return self.nodes[existing]
        node = self._new_node(op, operands, attr)
        self._value_numbers[key] = node.node_id
        return node

    def pure(self, op: OpKind, *operands: Node, attr: object = None) -> Node:
        """Create (or reuse) a pure operation node."""
        if op not in PURE_OPS:
            raise ValueError(f"{op} is not a pure operation")
        return self._pure(op, tuple(n.node_id for n in operands), attr)

    def load(self, ref: MemRef) -> Node:
        epoch = self._mem_epoch.get(ref.array, 0)
        key = (OpKind.LOAD, (), (ref, epoch))
        existing = self._value_numbers.get(key)
        if existing is not None:
            self.cse_hits += 1
            return self.nodes[existing]
        node = self._new_node(OpKind.LOAD, (), ref)
        self._value_numbers[key] = node.node_id
        self.effects.append(node.node_id)
        return node

    def store(self, ref: MemRef, value: Node) -> Node:
        node = self._new_node(OpKind.STORE, (value.node_id,), ref)
        self._mem_epoch[ref.array] = self._mem_epoch.get(ref.array, 0) + 1
        self.effects.append(node.node_id)
        return node

    def recv(self, queue: QueueRef) -> Node:
        node = self._new_node(OpKind.RECV, (), queue)
        self.effects.append(node.node_id)
        return node

    def send(self, queue: QueueRef, value: Node) -> Node:
        node = self._new_node(OpKind.SEND, (value.node_id,), queue)
        self.effects.append(node.node_id)
        return node

    def write(self, var: str, value: Node) -> Node:
        node = self._new_node(OpKind.WRITE, (value.node_id,), var)
        self.effects.append(node.node_id)
        return node

    def add_order_edge(self, earlier: Node, later: Node) -> None:
        self.order_edges.append((earlier.node_id, later.node_id))

    # Queries --------------------------------------------------------------

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def io_nodes(self) -> list[Node]:
        """RECV/SEND nodes in program (effect) order."""
        return [
            self.nodes[node_id]
            for node_id in self.effects
            if self.nodes[node_id].op in (OpKind.RECV, OpKind.SEND)
        ]

    def live_nodes(self) -> list[Node]:
        """Nodes reachable from the block's effects, in id order.

        Dead pure nodes (created then superseded by folding) are excluded;
        this is what the scheduler consumes.
        """
        alive: set[int] = set()
        stack = list(self.effects)
        while stack:
            node_id = stack.pop()
            if node_id in alive:
                continue
            alive.add(node_id)
            stack.extend(self.nodes[node_id].operands)
        # Order edges can reference only effect-reachable nodes by
        # construction, so no extra roots are needed.
        return [self.nodes[node_id] for node_id in sorted(alive)]
