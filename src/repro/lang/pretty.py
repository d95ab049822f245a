"""Pretty printer (unparser) for W2 ASTs.

``format_module(parse_module(src))`` produces source that parses back to an
equivalent AST; the round trip is exercised by property-based tests.
"""

from __future__ import annotations

from . import ast

_PRECEDENCE: dict[ast.BinaryOp, int] = {
    ast.BinaryOp.OR: 1,
    ast.BinaryOp.AND: 2,
    ast.BinaryOp.EQ: 3,
    ast.BinaryOp.NE: 3,
    ast.BinaryOp.LT: 3,
    ast.BinaryOp.LE: 3,
    ast.BinaryOp.GT: 3,
    ast.BinaryOp.GE: 3,
    ast.BinaryOp.ADD: 4,
    ast.BinaryOp.SUB: 4,
    ast.BinaryOp.MUL: 5,
    ast.BinaryOp.DIV: 5,
}


def format_expr(expr: ast.Expr, parent_precedence: int = 0) -> str:
    """Render an expression with minimal parentheses."""
    if isinstance(expr, ast.IntLiteral):
        return str(expr.value)
    if isinstance(expr, ast.FloatLiteral):
        return repr(expr.value)
    if isinstance(expr, ast.VarRef):
        return expr.name
    if isinstance(expr, ast.ArrayRef):
        indices = ", ".join(format_expr(i) for i in expr.indices)
        return f"{expr.name}[{indices}]"
    if isinstance(expr, ast.UnaryExpr):
        inner = format_expr(expr.operand, 6)
        if expr.op is ast.UnaryOp.NEG:
            text = f"-{inner}"
        else:
            text = f"not {inner}"
        if parent_precedence >= 6:
            return f"({text})"
        return text
    if isinstance(expr, ast.BinaryExpr):
        precedence = _PRECEDENCE[expr.op]
        left = format_expr(expr.left, precedence - 1)
        right = format_expr(expr.right, precedence)
        text = f"{left} {expr.op.value} {right}"
        if precedence <= parent_precedence:
            return f"({text})"
        return text
    raise TypeError(f"unknown expression node: {expr!r}")


def _format_decl(decl: ast.VarDecl) -> str:
    if decl.is_array:
        dims = ", ".join(str(d) for d in decl.dimensions)
        return f"{decl.name}[{dims}]"
    return decl.name


def _format_decl_group(decls: tuple[ast.VarDecl, ...], indent: str) -> list[str]:
    """Group consecutive declarations of the same scalar type on one line."""
    lines: list[str] = []
    i = 0
    while i < len(decls):
        scalar_type = decls[i].scalar_type
        j = i
        while j < len(decls) and decls[j].scalar_type is scalar_type:
            j += 1
        names = ", ".join(_format_decl(d) for d in decls[i:j])
        lines.append(f"{indent}{scalar_type.value} {names};")
        i = j
    return lines


class _StatementPrinter:
    def __init__(self) -> None:
        self.lines: list[str] = []

    def emit(self, stmt: ast.Stmt, indent: str) -> None:
        if isinstance(stmt, ast.Assign):
            self.lines.append(
                f"{indent}{format_expr(stmt.target)} := "
                f"{format_expr(stmt.value)};"
            )
        elif isinstance(stmt, ast.If):
            self.lines.append(f"{indent}if {format_expr(stmt.condition)} then")
            self.emit(stmt.then_body, indent + "    ")
            if stmt.else_body is not None:
                self.lines.append(f"{indent}else")
                self.emit(stmt.else_body, indent + "    ")
        elif isinstance(stmt, ast.For):
            keyword = "downto" if stmt.downto else "to"
            self.lines.append(
                f"{indent}for {stmt.var} := {format_expr(stmt.start)} "
                f"{keyword} {format_expr(stmt.stop)} do"
            )
            self.emit(stmt.body, indent + "    ")
        elif isinstance(stmt, ast.Call):
            self.lines.append(f"{indent}call {stmt.name};")
        elif isinstance(stmt, ast.Receive):
            args = [
                str(stmt.direction),
                str(stmt.channel),
                format_expr(stmt.target),
            ]
            if stmt.external is not None:
                args.append(format_expr(stmt.external))
            self.lines.append(f"{indent}receive ({', '.join(args)});")
        elif isinstance(stmt, ast.Send):
            args = [
                str(stmt.direction),
                str(stmt.channel),
                format_expr(stmt.value),
            ]
            if stmt.external is not None:
                args.append(format_expr(stmt.external))
            self.lines.append(f"{indent}send ({', '.join(args)});")
        elif isinstance(stmt, ast.Compound):
            self.lines.append(f"{indent}begin")
            for inner in stmt.statements:
                self.emit(inner, indent + "    ")
            self.lines.append(f"{indent}end;")
        else:  # pragma: no cover
            raise TypeError(f"unknown statement node: {stmt!r}")


def format_module(module: ast.Module) -> str:
    """Render a module back to canonical W2 source."""
    params = ", ".join(f"{p.name} {p.direction.value}" for p in module.params)
    lines = [f"module {module.name} ({params})"]
    lines.extend(_format_decl_group(module.host_decls, ""))
    cp = module.cellprogram
    lines.append(
        f"cellprogram ({cp.cell_var} : {cp.first_cell} : {cp.last_cell})"
    )
    lines.append("begin")
    lines.extend(_format_decl_group(cp.locals, "    "))
    printer = _StatementPrinter()
    for function in cp.functions:
        printer.lines.append(f"    function {function.name}")
        printer.lines.append("    begin")
        printer.lines.extend(_format_decl_group(function.locals, "        "))
        for stmt in function.body.statements:
            printer.emit(stmt, "        ")
        printer.lines.append("    end")
    for stmt in cp.body:
        printer.emit(stmt, "    ")
    lines.extend(printer.lines)
    lines.append("end")
    return "\n".join(lines) + "\n"
