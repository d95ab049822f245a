"""Intermediate representation: basic-block DAGs and the program tree."""

from .builder import CellProgramIR, IOStatement, IRBuilder, build_ir
from .dag import Dag, MemRef, Node, OpKind, QueueRef
from .tree import BasicBlock, Loop, ProgramTree, TreeNode

__all__ = [
    "BasicBlock",
    "CellProgramIR",
    "Dag",
    "IOStatement",
    "IRBuilder",
    "Loop",
    "MemRef",
    "Node",
    "OpKind",
    "ProgramTree",
    "QueueRef",
    "TreeNode",
    "build_ir",
]
