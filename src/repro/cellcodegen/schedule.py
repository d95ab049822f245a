"""List scheduling of basic blocks onto the Warp cell datapath.

"The techniques used in the scheduling of the cell computation is based
on those designed originally for increasing the throughput of hardware
pipelines" (Section 6.2) — classic resource-constrained list scheduling
with critical-path priorities over the block DAG, honouring

* one ALU and one multiplier issue per cycle (both 5-stage pipelined, so
  results are available ``latency`` cycles after issue);
* two data-memory references per cycle;
* one enqueue/dequeue per queue per cycle;
* one register-move and one literal field per instruction;
* program order per queue and per array (order edges);
* write-after-read for scalar registers: the operation producing a
  variable's new value may not issue before consumers of the old value
  (the 5-stage writeback then guarantees the old value is long gone
  before anyone could see it).

Inter-cell timing is deliberately ignored here — "Ignoring inter-cell
timing constraints in the code generation phase simplifies the problem
without compromising efficiency" (Section 6.2.1); the skew analysis runs
afterwards on the finished schedule.

The block's schedule *drains*: its length covers every writeback and
memory/queue effect, so values in pinned registers and memory are stable
at the block boundary (this is what makes per-block scheduling composable
with the loop tree and keeps one loop iteration a fixed number of
cycles).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..ir.dag import Dag, Node, OpKind
from ..config import CellConfig
from .isa import ALU_OPS, MPY_OPS

#: Synthetic node kind for register moves materialising WRITEs that could
#: not be folded into their producer.
MOVE = "move"


@dataclass
class SchedItem:
    """One schedulable operation (a DAG node or a synthetic move)."""

    item_id: int
    #: The underlying dag node, or None for synthetic moves.
    node: Node | None
    kind: str  # 'alu' | 'mpy' | 'mem' | 'deq' | 'enq' | 'move'
    latency: int
    #: Operand node ids (dag ids; includes CONST/READ leaves).
    operands: tuple[int, ...]
    #: For moves: the variable written.  For folded producers the
    #: pinned destination variable (else None).
    pinned_var: str | None = None
    cycle: int = -1


@dataclass
class BlockSchedule:
    """The result of scheduling one basic block."""

    items: dict[int, SchedItem]            # item_id -> item
    node_to_item: dict[int, int]           # dag node id -> item_id
    length: int                            # cycles, including drain
    #: item ids in issue order (ties broken by item id).
    order: list[int]


def _item_kind(node: Node) -> str:
    if node.op in ALU_OPS:
        return "alu"
    if node.op in MPY_OPS:
        return "mpy"
    if node.op in (OpKind.LOAD, OpKind.STORE):
        return "mem"
    if node.op is OpKind.RECV:
        return "deq"
    if node.op is OpKind.SEND:
        return "enq"
    raise ValueError(f"unschedulable node {node!r}")


def _latency(node: Node | None, kind: str, config: CellConfig) -> int:
    if kind == "move":
        return config.move_latency
    assert node is not None
    if kind == "alu":
        return config.alu_latency
    if kind == "mpy":
        return config.div_latency if node.op is OpKind.FDIV else config.mpy_latency
    if kind == "mem":
        return config.mem_read_latency if node.op is OpKind.LOAD else 1
    if kind == "deq":
        return config.queue_latency
    return 1  # enq: effect at issue


class BlockScheduler:
    """Schedule one basic-block DAG.  Use :func:`schedule_block`."""

    def __init__(self, dag: Dag, config: CellConfig):
        self._dag = dag
        self._config = config
        self._alive = {node.node_id for node in dag.live_nodes()}
        self._items: dict[int, SchedItem] = {}
        self._node_to_item: dict[int, int] = {}
        self._next_item_id = 0
        #: (pred item, succ item, latency)
        self._edges: list[tuple[int, int, int]] = []
        #: (consumer of old value, writer item, READ node id)
        self._anti_edges: list[tuple[int, int, int]] = []

    # Graph construction ---------------------------------------------------

    def _add_item(
        self,
        node: Node | None,
        kind: str,
        operands: tuple[int, ...],
        pinned_var: str | None = None,
    ) -> SchedItem:
        item = SchedItem(
            item_id=self._next_item_id,
            node=node,
            kind=kind,
            latency=_latency(node, kind, self._config),
            operands=operands,
            pinned_var=pinned_var,
        )
        self._next_item_id += 1
        self._items[item.item_id] = item
        if node is not None:
            self._node_to_item[node.node_id] = item.item_id
        return item

    def _build_items(self) -> None:
        dag = self._dag
        folded_writes: dict[int, str] = {}  # producer node id -> var
        writes: list[Node] = []
        for node_id in sorted(self._alive):
            node = dag.nodes[node_id]
            if node.op in (OpKind.CONST, OpKind.READ):
                continue
            if node.op is OpKind.WRITE:
                writes.append(node)
                continue
            self._add_item(node, _item_kind(node), node.operands)
        # Fold WRITEs into their producers where possible; otherwise emit
        # a register move.  Folding redirects the producer's destination
        # to the pinned register, which is only sound when the producer
        # cannot (transitively) feed a consumer of the *old* register
        # value: such a consumer carries a write-after-read edge back to
        # the producer, and folding would close a cycle — the consumer
        # would need both the old and the new value in one register.
        old_value_readers = self._old_value_readers(writes)
        successors = self._value_successors()
        for write in writes:
            value_id = write.operands[0]
            value = dag.nodes[value_id]
            can_fold = (
                value_id in self._node_to_item
                and value.op not in (OpKind.STORE, OpKind.SEND)
                and value_id not in folded_writes
                and not self._reaches_any(
                    value_id, old_value_readers.get(write.attr, set()), successors
                )
            )
            if can_fold:
                folded_writes[value_id] = write.attr  # type: ignore[assignment]
                item = self._items[self._node_to_item[value_id]]
                item.pinned_var = write.attr  # type: ignore[assignment]
                self._node_to_item[write.node_id] = item.item_id
            else:
                move = self._add_item(None, MOVE, (value_id,), write.attr)
                self._node_to_item[write.node_id] = move.item_id
        # Populate operand tuples for real nodes now that moves exist.
        for item in self._items.values():
            if item.node is not None:
                item.operands = item.node.operands

    def _old_value_readers(self, writes: list[Node]) -> dict[str, set[int]]:
        """For each written variable: the alive nodes that consume its
        block-entry READ value (excluding the WRITE nodes themselves)."""
        dag = self._dag
        read_ids = {
            node.attr: node.node_id
            for node in dag.nodes.values()
            if node.op is OpKind.READ and node.node_id in self._alive
        }
        write_ids = {w.node_id for w in writes}
        readers: dict[str, set[int]] = {}
        for write in writes:
            read_id = read_ids.get(write.attr)
            if read_id is None:
                continue
            consumers = {
                node_id
                for node_id in self._alive
                if node_id not in write_ids
                and read_id in dag.nodes[node_id].operands
            }
            if consumers:
                readers[write.attr] = consumers
        return readers

    def _value_successors(self) -> dict[int, set[int]]:
        """node id -> alive nodes consuming it (value + order edges)."""
        successors: dict[int, set[int]] = {}
        for node_id in self._alive:
            for operand in self._dag.nodes[node_id].operands:
                if operand in self._alive:
                    successors.setdefault(operand, set()).add(node_id)
        for earlier, later in self._dag.order_edges:
            if earlier in self._alive and later in self._alive:
                successors.setdefault(earlier, set()).add(later)
        return successors

    @staticmethod
    def _reaches_any(
        start: int, targets: set[int], successors: dict[int, set[int]]
    ) -> bool:
        if not targets:
            return False
        # The producer may itself read the old value (x := x + 1): it
        # reads its operands at issue, before its own writeback, so only
        # *proper* descendants matter.
        seen = {start}
        stack = list(successors.get(start, ()))
        while stack:
            node = stack.pop()
            if node in targets:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(successors.get(node, ()))
        return False

    def _build_edges(self) -> None:
        dag = self._dag
        # Value edges.
        for item in list(self._items.values()):
            for operand_id in item.operands:
                pred_item_id = self._node_to_item.get(operand_id)
                if pred_item_id is None or pred_item_id == item.item_id:
                    continue
                pred = self._items[pred_item_id]
                self._edges.append((pred.item_id, item.item_id, pred.latency))
        # Order edges from the dag.
        for earlier_id, later_id in dag.order_edges:
            if earlier_id not in self._alive or later_id not in self._alive:
                continue
            earlier = dag.nodes[earlier_id]
            later = dag.nodes[later_id]
            if earlier.op is OpKind.READ and later.op is OpKind.WRITE:
                self._add_anti_edges(earlier, later)
                continue
            pred_item = self._node_to_item.get(earlier_id)
            succ_item = self._node_to_item.get(later_id)
            if pred_item is None or succ_item is None or pred_item == succ_item:
                continue
            self._edges.append((pred_item, succ_item, 1))

    def _add_anti_edges(self, read: Node, write: Node) -> None:
        """Write-after-read: the new value's producer must not issue
        before any consumer of the block-entry value.  Anti edges are
        tracked separately so cross-variable cycles (register swaps) can
        be broken with a compiler temporary."""
        writer_item = self._node_to_item.get(write.node_id)
        if writer_item is None:
            return
        for item in self._items.values():
            if item.item_id == writer_item:
                continue
            if read.node_id in item.operands:
                self._anti_edges.append(
                    (item.item_id, writer_item, read.node_id)
                )

    def _break_anti_cycles(self) -> None:
        """Resolve register-swap cycles (``a := b; b := a`` through
        pinned registers) by copying one old value to a temporary.

        An anti edge ``consumer -> writer`` closes a cycle when the
        writer (transitively) feeds the consumer.  The fix mirrors what
        any register allocator does for parallel copies: a fresh move
        saves the old value early; the consumer reads the temporary, and
        only the move itself must precede the overwrite.
        """
        for _ in range(len(self._anti_edges) + 1):
            successors: dict[int, set[int]] = {}
            for pred, succ, _lat in self._edges:
                successors.setdefault(pred, set()).add(succ)
            for consumer, writer, _read in self._anti_edges:
                successors.setdefault(consumer, set()).add(writer)
            broken = False
            for index, (consumer, writer, read_id) in enumerate(
                self._anti_edges
            ):
                if not self._item_reaches(writer, consumer, successors):
                    continue
                # Insert the saving move and rewire the consumer.
                move = self._add_item(None, MOVE, (read_id,))
                item = self._items[consumer]
                item.operands = tuple(
                    -move.item_id - 1 if op == read_id else op
                    for op in item.operands
                )
                self._edges.append(
                    (move.item_id, consumer, move.latency)
                )
                self._anti_edges[index] = (move.item_id, writer, read_id)
                broken = True
                break
            if not broken:
                self._edges.extend(
                    (consumer, writer, 0)
                    for consumer, writer, _read in self._anti_edges
                )
                return
        raise RuntimeError(  # pragma: no cover - bounded by edge count
            "failed to break anti-dependence cycles"
        )

    @staticmethod
    def _item_reaches(
        start: int, target: int, successors: dict[int, set[int]]
    ) -> bool:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            if node == target:
                return True
            for succ in successors.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return False

    # Literal bookkeeping -----------------------------------------------------

    def _literal_values(self, item: SchedItem) -> list[float]:
        values = []
        for operand_id in item.operands:
            node = self._dag.nodes.get(operand_id)
            if node is not None and node.op is OpKind.CONST:
                values.append(float(node.attr))  # type: ignore[arg-type]
        return sorted(set(values))

    def _split_excess_literals(self) -> None:
        """An instruction has one literal field; operations needing two or
        more distinct literals get all but one materialised via moves."""
        for item in list(self._items.values()):
            literals = self._literal_values(item)
            if len(literals) <= 1:
                continue
            keep = literals[0]
            for value in literals[1:]:
                const_ids = [
                    oid
                    for oid in item.operands
                    if (
                        (n := self._dag.nodes.get(oid)) is not None
                        and n.op is OpKind.CONST
                        and float(n.attr) == value  # type: ignore[arg-type]
                    )
                ]
                move = self._add_item(None, MOVE, (const_ids[0],))
                # Redirect the operand reference at emit time: record the
                # move as the new producer of that const *for this item*.
                item.operands = tuple(
                    oid if oid not in const_ids else -move.item_id - 1
                    for oid in item.operands
                )
                self._edges.append((move.item_id, item.item_id, move.latency))
            del keep

    # Scheduling -------------------------------------------------------------

    def schedule(self) -> BlockSchedule:
        self._build_items()
        self._build_edges()
        self._break_anti_cycles()
        self._split_excess_literals()

        succs: dict[int, list[tuple[int, int]]] = {i: [] for i in self._items}
        preds_count: dict[int, int] = {i: 0 for i in self._items}
        for pred, succ, lat in self._edges:
            succs[pred].append((succ, lat))
            preds_count[succ] += 1

        priority = self._critical_paths(succs)

        earliest: dict[int, int] = {i: 0 for i in self._items}
        ready: list[tuple[int, int, int]] = []  # (-priority, item_id) when released
        for item_id, count in preds_count.items():
            if count == 0:
                heapq.heappush(ready, (-priority[item_id], item_id, 0))

        resource_use: dict[tuple[int, str], int] = {}
        literal_at: dict[int, float] = {}
        capacities = {
            "alu": 1,
            "mpy": 1,
            "mem": self._config.mem_ports,
            "move": self._config.move_ports,
        }
        remaining = dict(preds_count)
        scheduled_order: list[int] = []
        cycle = 0
        unscheduled = set(self._items)

        while unscheduled:
            # Drain the ready heap, try to place everything eligible this
            # cycle in priority order, and push back what did not fit.
            attempt: list[tuple[int, int, int]] = []
            while ready:
                neg_prio, item_id, _ = heapq.heappop(ready)
                attempt.append((neg_prio, item_id, 0))
            deferred: list[tuple[int, int, int]] = []
            for neg_prio, item_id, _ in sorted(attempt):
                if earliest[item_id] > cycle:
                    deferred.append((neg_prio, item_id, 0))
                    continue
                if self._try_place(
                    item_id, cycle, resource_use, literal_at, capacities
                ):
                    item = self._items[item_id]
                    item.cycle = cycle
                    scheduled_order.append(item_id)
                    unscheduled.discard(item_id)
                    for succ, lat in succs[item_id]:
                        earliest[succ] = max(earliest[succ], cycle + lat)
                        remaining[succ] -= 1
                        if remaining[succ] == 0:
                            deferred.append((-priority[succ], succ, 0))
                else:
                    deferred.append((neg_prio, item_id, 0))
            for entry in deferred:
                heapq.heappush(ready, entry)
            cycle += 1
            if cycle > 10_000_000:  # pragma: no cover - defensive
                raise RuntimeError("scheduler failed to converge")

        # Drain: the block ends only after every writeback and effect has
        # landed, so pinned registers and memory are stable at the edge.
        length = 1
        for item in self._items.values():
            length = max(length, item.cycle + max(item.latency, 1))
        return BlockSchedule(
            items=self._items,
            node_to_item=self._node_to_item,
            length=length,
            order=scheduled_order,
        )

    def _critical_paths(
        self, succs: dict[int, list[tuple[int, int]]]
    ) -> dict[int, int]:
        """Longest path (by latency) from each item to any sink."""
        memo: dict[int, int] = {}

        order = self._topological(succs)
        for item_id in reversed(order):
            best = self._items[item_id].latency
            for succ, lat in succs[item_id]:
                best = max(best, lat + memo[succ])
            memo[item_id] = best
        return memo

    def _topological(self, succs: dict[int, list[tuple[int, int]]]) -> list[int]:
        indegree = {i: 0 for i in self._items}
        for pred, edges in succs.items():
            for succ, _ in edges:
                indegree[succ] += 1
        stack = sorted(i for i, d in indegree.items() if d == 0)
        order: list[int] = []
        while stack:
            item_id = stack.pop()
            order.append(item_id)
            for succ, _ in succs[item_id]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    stack.append(succ)
        if len(order) != len(self._items):
            raise RuntimeError("cycle in schedule graph (compiler bug)")
        return order

    def _try_place(
        self,
        item_id: int,
        cycle: int,
        resource_use: dict[tuple[int, str], int],
        literal_at: dict[int, float],
        capacities: dict[str, int],
    ) -> bool:
        item = self._items[item_id]
        if item.kind in ("deq", "enq"):
            assert item.node is not None
            resource = f"{item.kind}:{item.node.attr}"
            capacity = 1
        else:
            resource = item.kind
            capacity = capacities[item.kind]
        if resource_use.get((cycle, resource), 0) >= capacity:
            return False
        literals = self._literal_values(item)
        if literals:
            current = literal_at.get(cycle)
            if current is not None and any(v != current for v in literals):
                return False
            if len(literals) > 1:  # split beforehand; defensive
                return False
        resource_use[(cycle, resource)] = resource_use.get((cycle, resource), 0) + 1
        if literals:
            literal_at[cycle] = literals[0]
        return True


def schedule_block(dag: Dag, config: CellConfig) -> BlockSchedule:
    """Schedule a basic block's DAG; see :class:`BlockScheduler`."""
    return BlockScheduler(dag, config).schedule()
