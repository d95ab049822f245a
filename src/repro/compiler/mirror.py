"""Mirroring right-to-left programs onto the canonical array direction.

The Warp array is symmetric: a program whose data flows right-to-left
(receives from ``R``, sends to ``L``; :func:`flows_right_to_left`) is
the mirror image of a canonical left-to-right program running on the
reversed array.  The compiler decides this once, right after parsing,
and compiles such a program with every channel direction in the AST
flipped, recording the fact; results are identical because externals
(host bindings) are untouched — only which physical end of the array
plays "first cell" changes.
"""

from __future__ import annotations

import dataclasses

from ..lang import ast

_FLIPPED = {
    ast.Direction.LEFT: ast.Direction.RIGHT,
    ast.Direction.RIGHT: ast.Direction.LEFT,
}


def flows_right_to_left(module: ast.Module) -> bool:
    """True when the cell program makes at least one transfer and every
    transfer it can reach receives from ``R`` or sends to ``L``.  Calls
    are followed, so a function nothing calls does not count."""
    functions = {f.name: f.body for f in module.cellprogram.functions}
    # None (an absent else, an unknown function) matches no case below.
    pending: list[ast.Stmt | None] = list(module.cellprogram.body)
    upstream: set[ast.Direction] = set()  # where each transfer's data is from
    while pending:
        stmt = pending.pop()
        if isinstance(stmt, ast.Receive):
            upstream.add(stmt.direction)
        elif isinstance(stmt, ast.Send):
            upstream.add(_FLIPPED[stmt.direction])
        elif isinstance(stmt, ast.Compound):
            pending.extend(stmt.statements)
        elif isinstance(stmt, ast.If):
            pending += (stmt.then_body, stmt.else_body)
        elif isinstance(stmt, ast.For):
            pending.append(stmt.body)
        elif isinstance(stmt, ast.Call):  # each function scanned once
            pending.append(functions.pop(stmt.name, None))
    return upstream == {ast.Direction.RIGHT}


def mirror_module(module: ast.Module) -> ast.Module:
    """Swap L and R in every send/receive of the module."""
    cellprogram = module.cellprogram
    mirrored = dataclasses.replace(
        cellprogram,
        functions=tuple(
            dataclasses.replace(
                function, body=_mirror_stmt(function.body)
            )
            for function in cellprogram.functions
        ),
        body=tuple(_mirror_stmt(stmt) for stmt in cellprogram.body),
    )
    return dataclasses.replace(module, cellprogram=mirrored)


def _mirror_stmt(stmt: ast.Stmt) -> ast.Stmt:
    if isinstance(stmt, ast.Compound):
        return dataclasses.replace(
            stmt, statements=tuple(_mirror_stmt(s) for s in stmt.statements)
        )
    if isinstance(stmt, (ast.Receive, ast.Send)):
        return dataclasses.replace(stmt, direction=_FLIPPED[stmt.direction])
    if isinstance(stmt, ast.If):
        return dataclasses.replace(
            stmt,
            then_body=_mirror_stmt(stmt.then_body),
            else_body=stmt.else_body and _mirror_stmt(stmt.else_body),
        )
    if isinstance(stmt, ast.For):
        return dataclasses.replace(stmt, body=_mirror_stmt(stmt.body))
    return stmt
