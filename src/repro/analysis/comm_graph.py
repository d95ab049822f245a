"""Communication-cycle analysis (Section 5.1.1, Figure 5-1).

The array's computation is represented as a graph over one cell's
operations (all cells run the same code).  Two edge families:

* *computation edges* — intra-cell data dependencies (DAG operand edges,
  store→load flow through memory, write→read flow through scalars);
* *communication edges* — a "right" edge connects each send-to-right to
  the receive-from-left statements of the same channel (the data arrives
  at the right neighbour's input queue), and symmetrically for "left".

A cycle through a "right" communication edge forces cells to be delayed
left-to-right; a "left" cycle forces the opposite.  A program with both
kinds of cycles cannot be mapped onto the skewed computation model.

The analysis is conservative: scalar and memory flow is tracked per
name/array (not per element), and sends are matched to every receive of
the same queue rather than by ordinal.  This can only create extra
cycles, never miss one, so "mappable" verdicts are sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..ir.dag import OpKind, QueueRef
from ..ir.tree import ProgramTree
from ..lang.ast import Channel, Direction


@dataclass(frozen=True)
class CommReport:
    """Result of the communication-cycle analysis."""

    has_right_cycles: bool
    has_left_cycles: bool
    sends_right: bool
    sends_left: bool
    receives_from_left: bool
    receives_from_right: bool

    @property
    def is_mappable(self) -> bool:
        """Mappable onto the skewed computation model: not both cycle
        kinds at once (Section 5.1.1)."""
        return not (self.has_right_cycles and self.has_left_cycles)

    @property
    def is_unidirectional_lr(self) -> bool:
        """Pure left-to-right flow (the subset the compiler accepts)."""
        return not (self.sends_left or self.receives_from_right)

    @property
    def is_bidirectional(self) -> bool:
        """Flow both ways: neither left-to-right nor its mirror image."""
        return not self.is_unidirectional_lr and (
            self.sends_right or self.receives_from_left
        )


def _receive_queue_for_send(queue: QueueRef) -> QueueRef:
    """The receive queue that observes data sent on ``queue``.

    A send-to-right on X is received from-the-left on X by the next cell;
    in the folded single-cell graph the matching receive statement keeps
    the same (direction-of-origin, channel) labelling as the send's
    destination side.
    """
    if queue.direction is Direction.RIGHT:
        return QueueRef(Direction.LEFT, queue.channel)
    return QueueRef(Direction.RIGHT, queue.channel)


def analyze_communication(tree: ProgramTree) -> CommReport:
    """Build the communication graph of a lowered cell program and
    classify its cycles."""
    # Successors by node.
    graph: dict[str, set[str]] = {}

    def add_edge(source: str, target: str) -> None:
        graph.setdefault(source, set()).add(target)
        graph.setdefault(target, set())

    sends: list[tuple[str, QueueRef]] = []
    receives: dict[QueueRef, list[str]] = {}
    # Global (conservative) scalar/array flow endpoints.
    scalar_writes: dict[str, list[str]] = {}
    scalar_reads: dict[str, list[str]] = {}
    array_stores: dict[str, list[str]] = {}
    array_loads: dict[str, list[str]] = {}

    for block in tree.blocks():
        dag = block.dag
        alive = {node.node_id for node in dag.live_nodes()}
        for node_id in alive:
            node = dag.nodes[node_id]
            name = f"b{block.block_id}.n{node_id}"
            graph.setdefault(name, set())
            for operand in node.operands:
                if operand in alive:
                    add_edge(f"b{block.block_id}.n{operand}", name)
            if node.op is OpKind.SEND:
                sends.append((name, node.attr))
            elif node.op is OpKind.RECV:
                receives.setdefault(node.attr, []).append(name)
            elif node.op is OpKind.WRITE:
                scalar_writes.setdefault(node.attr, []).append(name)
            elif node.op is OpKind.READ:
                scalar_reads.setdefault(node.attr, []).append(name)
            elif node.op is OpKind.STORE:
                array_stores.setdefault(node.attr.array, []).append(name)
            elif node.op is OpKind.LOAD:
                array_loads.setdefault(node.attr.array, []).append(name)
        for earlier, later in dag.order_edges:
            if earlier in alive and later in alive:
                add_edge(
                    f"b{block.block_id}.n{earlier}", f"b{block.block_id}.n{later}"
                )

    # Cross-block value flow (conservative: any write reaches any read).
    for var, writers in scalar_writes.items():
        for writer in writers:
            for reader in scalar_reads.get(var, []):
                add_edge(writer, reader)
    for array, stores in array_stores.items():
        for store in stores:
            for load in array_loads.get(array, []):
                add_edge(store, load)

    # Communication edges, labelled by the direction the data travels.
    comm_label: dict[tuple[str, str], str] = {}
    for send_name, queue in sends:
        label = "right" if queue.direction is Direction.RIGHT else "left"
        for recv_name in receives.get(_receive_queue_for_send(queue), []):
            add_edge(send_name, recv_name)
            comm_label[(send_name, recv_name)] = label

    # A communication edge lies on a cycle exactly when both its ends
    # are in one strongly connected component.
    component = {
        node: k
        for k, members in enumerate(strongly_connected_components(graph))
        for node in members
    }
    on_cycles = {
        label
        for (send_name, recv_name), label in comm_label.items()
        if component[send_name] == component[recv_name]
    }
    has_right, has_left = "right" in on_cycles, "left" in on_cycles

    queues_sent = {queue for _, queue in sends}
    queues_received = set(receives)
    return CommReport(
        has_right_cycles=has_right,
        has_left_cycles=has_left,
        sends_right=any(q.direction is Direction.RIGHT for q in queues_sent),
        sends_left=any(q.direction is Direction.LEFT for q in queues_sent),
        receives_from_left=any(
            q.direction is Direction.LEFT for q in queues_received
        ),
        receives_from_right=any(
            q.direction is Direction.RIGHT for q in queues_received
        ),
    )


def strongly_connected_components(graph: dict[str, set[str]]) -> list[set[str]]:
    """The strongly connected components of ``graph`` (each node's
    successors; every successor is a node), by Tarjan's algorithm with
    an explicit stack, so deep graphs do not recurse."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    on_stack: set[str] = set()
    components: list[set[str]] = []
    # The nodes being visited, each with its successors not yet seen.
    work: list[tuple[str, Iterator[str]]] = []

    def visit(node: str) -> None:
        index[node] = low[node] = len(index)
        stack.append(node)
        on_stack.add(node)
        work.append((node, iter(graph[node])))

    for root in graph:
        if root in index:
            continue
        visit(root)
        while work:
            node, successors = work[-1]
            for successor in successors:
                if successor not in index:
                    visit(successor)
                    break
                if successor in on_stack:
                    low[node] = min(low[node], index[successor])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    members, member = set(), None
                    while member != node:
                        member = stack.pop()
                        on_stack.discard(member)
                        members.add(member)
                    components.append(members)
    return components
