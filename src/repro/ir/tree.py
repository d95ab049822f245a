"""The structured flowgraph (program tree) of a cell program.

W2 control flow is fully structured — conditionals are if-converted and
loop bounds are compile-time constants — so the flowgraph of Section 6.1
takes the shape of a tree: sequences of basic blocks and constant-trip
loops.  This structure is exactly what makes the five-vector timing
characterisation of Section 6.2.1 extractable after scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from .dag import Dag, Node, OpKind


@dataclass
class BasicBlock:
    """A leaf of the program tree: straight-line code as a DAG."""

    block_id: int
    dag: Dag
    label: str = ""

    def io_nodes(self) -> list[Node]:
        return self.dag.io_nodes()


@dataclass
class Loop:
    """A counted loop.  ``trip`` iterations; the index runs from ``start``
    by ``step`` (+1 or -1).  The index variable is symbolic — it exists
    only on the IU at run time."""

    loop_id: int
    var: str
    start: int
    step: int
    trip: int
    body: list["TreeNode"] = field(default_factory=list)


TreeNode = Union[BasicBlock, Loop]


@dataclass
class ProgramTree:
    """A whole cell program: a sequence of blocks and loops."""

    items: list[TreeNode] = field(default_factory=list)

    def blocks(self) -> Iterator[BasicBlock]:
        """All basic blocks in program order."""
        yield from _walk_blocks(self.items)

    def loops(self) -> Iterator[Loop]:
        yield from _walk_loops(self.items)

    def io_statements(self) -> Iterator[tuple[BasicBlock, Node]]:
        """All RECV/SEND dag nodes with their blocks, in program order."""
        for block in self.blocks():
            for node in block.io_nodes():
                yield block, node


def _walk_blocks(items: list[TreeNode]) -> Iterator[BasicBlock]:
    for item in items:
        if isinstance(item, BasicBlock):
            yield item
        else:
            yield from _walk_blocks(item.body)


def _walk_loops(items: list[TreeNode]) -> Iterator[Loop]:
    for item in items:
        if isinstance(item, Loop):
            yield item
            yield from _walk_loops(item.body)

