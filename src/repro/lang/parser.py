"""Recursive-descent parser for W2.

Grammar (EBNF; ``{}`` = repetition, ``[]`` = option)::

    module      = "module" IDENT "(" param {"," param} ")"
                  {decl ";"} cellprogram
    param       = IDENT ("in" | "out")
    decl        = ("float" | "int") declarator {"," declarator}
    declarator  = IDENT ["[" INT {"," INT} "]"]
    cellprogram = "cellprogram" "(" IDENT ":" INT ":" INT ")"
                  "begin" {decl ";"} {function} {statement} "end"
    function    = "function" IDENT "begin" {decl ";"} {statement} "end"
    statement   = assign | if | for | call | send | receive | compound
    assign      = lvalue ":=" expr ";"
    if          = "if" expr "then" statement ["else" statement]
    for         = "for" IDENT ":=" expr ("to" | "downto") expr "do" statement
    call        = "call" IDENT ";"
    receive     = "receive" "(" dir "," chan "," lvalue ["," expr] ")" ";"
    send        = "send" "(" dir "," chan "," expr ["," lvalue] ")" ";"
    compound    = "begin" {statement} "end" [";"]
    lvalue      = IDENT ["[" expr {"," expr} "]"]

Expressions use the usual precedence: ``or`` < ``and`` < ``not`` <
comparison < additive < multiplicative < unary minus < primary, parsed
by precedence climbing over one table of binary operators.
"""

from __future__ import annotations

from . import ast
from .errors import ParseError
from .lexer import tokenize
from .tokens import Token, TokenKind

#: Binary operators by token: (binding level, operator).  A higher level
#: binds tighter; ``not`` binds between ``and`` and the comparisons,
#: which do not chain.
_BINARY_OPS = {
    TokenKind.OR: (1, ast.BinaryOp.OR),
    TokenKind.AND: (2, ast.BinaryOp.AND),
    TokenKind.EQ: (4, ast.BinaryOp.EQ),
    TokenKind.NE: (4, ast.BinaryOp.NE),
    TokenKind.LT: (4, ast.BinaryOp.LT),
    TokenKind.LE: (4, ast.BinaryOp.LE),
    TokenKind.GT: (4, ast.BinaryOp.GT),
    TokenKind.GE: (4, ast.BinaryOp.GE),
    TokenKind.PLUS: (5, ast.BinaryOp.ADD),
    TokenKind.MINUS: (5, ast.BinaryOp.SUB),
    TokenKind.STAR: (6, ast.BinaryOp.MUL),
    TokenKind.SLASH: (6, ast.BinaryOp.DIV),
}
_NOT_LEVEL = 3
_COMPARISON_LEVEL = 4
_TIGHTEST_LEVEL = 6

_STATEMENT_STARTERS = (
    TokenKind.IDENT,
    TokenKind.IF,
    TokenKind.FOR,
    TokenKind.CALL,
    TokenKind.SEND,
    TokenKind.RECEIVE,
    TokenKind.BEGIN,
)


class Parser:
    """Parse a token stream into a :class:`repro.lang.ast.Module`."""

    def __init__(self, tokens: list[Token]):
        # One EOF past the end, so that reading the current token needs
        # no bounds check even once the final EOF has been consumed.
        self._tokens = [*tokens, tokens[-1]]
        self._kinds = [token.kind for token in self._tokens]
        self._pos = 0

    # Token-stream helpers -----------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _at(self, kind: TokenKind) -> bool:
        return self._kinds[self._pos] is kind

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect(self, kind: TokenKind) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not kind:
            raise ParseError(
                f"expected {kind.value!r} but found {token.text or token.kind.value!r}",
                token.location,
            )
        self._pos += 1
        return token

    def _accept(self, kind: TokenKind) -> Token | None:
        if self._kinds[self._pos] is kind:
            return self._advance()
        return None

    # Top level ------------------------------------------------------------

    def parse_module(self) -> ast.Module:
        """Parse a complete W2 module; input must be fully consumed."""
        start = self._expect(TokenKind.MODULE).location
        name = self._expect(TokenKind.IDENT).text
        params = self._parse_params()
        host_decls: list[ast.VarDecl] = []
        while self._at(TokenKind.FLOAT) or self._at(TokenKind.INT):
            host_decls.extend(self._parse_decl())
            self._expect(TokenKind.SEMICOLON)
        cellprogram = self._parse_cellprogram()
        self._expect(TokenKind.EOF)
        return ast.Module(
            name=name,
            params=tuple(params),
            host_decls=tuple(host_decls),
            cellprogram=cellprogram,
            location=start,
        )

    def _parse_params(self) -> list[ast.Param]:
        self._expect(TokenKind.LPAREN)
        params = [self._parse_param()]
        while self._accept(TokenKind.COMMA):
            params.append(self._parse_param())
        self._expect(TokenKind.RPAREN)
        return params

    def _parse_param(self) -> ast.Param:
        name_token = self._expect(TokenKind.IDENT)
        if self._accept(TokenKind.IN):
            direction = ast.ParamDirection.IN
        elif self._accept(TokenKind.OUT):
            direction = ast.ParamDirection.OUT
        else:
            raise ParseError(
                "expected 'in' or 'out' after parameter name",
                self._peek().location,
            )
        return ast.Param(name_token.text, direction, name_token.location)

    def _parse_decl(self) -> list[ast.VarDecl]:
        if self._accept(TokenKind.FLOAT):
            scalar_type = ast.ScalarType.FLOAT
        else:
            self._expect(TokenKind.INT)
            scalar_type = ast.ScalarType.INT
        decls = [self._parse_declarator(scalar_type)]
        while self._accept(TokenKind.COMMA):
            decls.append(self._parse_declarator(scalar_type))
        return decls

    def _parse_declarator(self, scalar_type: ast.ScalarType) -> ast.VarDecl:
        name_token = self._expect(TokenKind.IDENT)
        dimensions: list[int] = []
        if self._accept(TokenKind.LBRACKET):
            dimensions.append(self._parse_dimension())
            while self._accept(TokenKind.COMMA):
                dimensions.append(self._parse_dimension())
            self._expect(TokenKind.RBRACKET)
        return ast.VarDecl(
            name=name_token.text,
            scalar_type=scalar_type,
            dimensions=tuple(dimensions),
            location=name_token.location,
        )

    def _parse_dimension(self) -> int:
        token = self._expect(TokenKind.INT_LITERAL)
        value = int(token.text)
        if value <= 0:
            raise ParseError("array dimension must be positive", token.location)
        return value

    def _parse_cellprogram(self) -> ast.CellProgram:
        start = self._expect(TokenKind.CELLPROGRAM).location
        self._expect(TokenKind.LPAREN)
        cell_var = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.COLON)
        first_cell = int(self._expect(TokenKind.INT_LITERAL).text)
        self._expect(TokenKind.COLON)
        last_cell = int(self._expect(TokenKind.INT_LITERAL).text)
        self._expect(TokenKind.RPAREN)
        if last_cell < first_cell:
            raise ParseError("cellprogram range is empty", start)
        self._expect(TokenKind.BEGIN)
        locals_, functions, body = self._parse_block_items(allow_functions=True)
        self._expect(TokenKind.END)
        return ast.CellProgram(
            cell_var=cell_var,
            first_cell=first_cell,
            last_cell=last_cell,
            functions=tuple(functions),
            locals=tuple(locals_),
            body=tuple(body),
            location=start,
        )

    def _parse_block_items(
        self, allow_functions: bool
    ) -> tuple[list[ast.VarDecl], list[ast.FunctionDecl], list[ast.Stmt]]:
        locals_: list[ast.VarDecl] = []
        while self._at(TokenKind.FLOAT) or self._at(TokenKind.INT):
            locals_.extend(self._parse_decl())
            self._expect(TokenKind.SEMICOLON)
        functions: list[ast.FunctionDecl] = []
        while allow_functions and self._at(TokenKind.FUNCTION):
            functions.append(self._parse_function())
        body: list[ast.Stmt] = []
        while self._kinds[self._pos] in _STATEMENT_STARTERS:
            body.append(self._parse_statement())
        return locals_, functions, body

    def _parse_function(self) -> ast.FunctionDecl:
        start = self._expect(TokenKind.FUNCTION).location
        name = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.BEGIN)
        locals_, _, body = self._parse_block_items(allow_functions=False)
        end = self._expect(TokenKind.END).location
        self._accept(TokenKind.SEMICOLON)
        return ast.FunctionDecl(
            name=name,
            locals=tuple(locals_),
            body=ast.Compound(location=end, statements=tuple(body)),
            location=start,
        )

    # Statements -----------------------------------------------------------

    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        if token.kind is TokenKind.IDENT:
            return self._parse_assign()
        if token.kind is TokenKind.IF:
            return self._parse_if()
        if token.kind is TokenKind.FOR:
            return self._parse_for()
        if token.kind is TokenKind.CALL:
            return self._parse_call()
        if token.kind is TokenKind.SEND:
            return self._parse_send()
        if token.kind is TokenKind.RECEIVE:
            return self._parse_receive()
        if token.kind is TokenKind.BEGIN:
            return self._parse_compound()
        raise ParseError(
            f"expected a statement but found {token.text or token.kind.value!r}",
            token.location,
        )

    def _parse_assign(self) -> ast.Assign:
        target = self._parse_lvalue()
        self._expect(TokenKind.ASSIGN)
        value = self._parse_expr()
        self._expect(TokenKind.SEMICOLON)
        return ast.Assign(location=target.location, target=target, value=value)

    def _parse_if(self) -> ast.If:
        start = self._expect(TokenKind.IF).location
        condition = self._parse_expr()
        self._expect(TokenKind.THEN)
        then_body = self._parse_statement()
        else_body: ast.Stmt | None = None
        if self._accept(TokenKind.ELSE):
            else_body = self._parse_statement()
        return ast.If(
            location=start,
            condition=condition,
            then_body=then_body,
            else_body=else_body,
        )

    def _parse_for(self) -> ast.For:
        start = self._expect(TokenKind.FOR).location
        var = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.ASSIGN)
        start_expr = self._parse_expr()
        if self._accept(TokenKind.TO):
            downto = False
        else:
            self._expect(TokenKind.DOWNTO)
            downto = True
        stop_expr = self._parse_expr()
        self._expect(TokenKind.DO)
        body = self._parse_statement()
        return ast.For(
            location=start,
            var=var,
            start=start_expr,
            stop=stop_expr,
            downto=downto,
            body=body,
        )

    def _parse_call(self) -> ast.Call:
        start = self._expect(TokenKind.CALL).location
        name = self._expect(TokenKind.IDENT).text
        self._expect(TokenKind.SEMICOLON)
        return ast.Call(location=start, name=name)

    def _parse_direction(self) -> ast.Direction:
        token = self._expect(TokenKind.IDENT)
        if token.text == "L":
            return ast.Direction.LEFT
        if token.text == "R":
            return ast.Direction.RIGHT
        raise ParseError("channel direction must be 'L' or 'R'", token.location)

    def _parse_channel(self) -> ast.Channel:
        token = self._expect(TokenKind.IDENT)
        if token.text == "X":
            return ast.Channel.X
        if token.text == "Y":
            return ast.Channel.Y
        raise ParseError("channel name must be 'X' or 'Y'", token.location)

    def _parse_receive(self) -> ast.Receive:
        start = self._expect(TokenKind.RECEIVE).location
        self._expect(TokenKind.LPAREN)
        direction = self._parse_direction()
        self._expect(TokenKind.COMMA)
        channel = self._parse_channel()
        self._expect(TokenKind.COMMA)
        target = self._parse_lvalue()
        external: ast.Expr | None = None
        if self._accept(TokenKind.COMMA):
            external = self._parse_expr()
        self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.SEMICOLON)
        return ast.Receive(
            location=start,
            direction=direction,
            channel=channel,
            target=target,
            external=external,
        )

    def _parse_send(self) -> ast.Send:
        start = self._expect(TokenKind.SEND).location
        self._expect(TokenKind.LPAREN)
        direction = self._parse_direction()
        self._expect(TokenKind.COMMA)
        channel = self._parse_channel()
        self._expect(TokenKind.COMMA)
        value = self._parse_expr()
        external: ast.Expr | None = None
        if self._accept(TokenKind.COMMA):
            external = self._parse_lvalue()
        self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.SEMICOLON)
        return ast.Send(
            location=start,
            direction=direction,
            channel=channel,
            value=value,
            external=external,
        )

    def _parse_compound(self) -> ast.Compound:
        start = self._expect(TokenKind.BEGIN).location
        statements: list[ast.Stmt] = []
        while self._kinds[self._pos] in _STATEMENT_STARTERS:
            statements.append(self._parse_statement())
        self._expect(TokenKind.END)
        self._accept(TokenKind.SEMICOLON)
        return ast.Compound(location=start, statements=tuple(statements))

    # Expressions ------------------------------------------------------------

    def _parse_lvalue(self) -> ast.Expr:
        name_token = self._expect(TokenKind.IDENT)
        if self._accept(TokenKind.LBRACKET):
            indices = [self._parse_expr()]
            while self._accept(TokenKind.COMMA):
                indices.append(self._parse_expr())
            self._expect(TokenKind.RBRACKET)
            return ast.ArrayRef(
                location=name_token.location,
                name=name_token.text,
                indices=tuple(indices),
            )
        return ast.VarRef(location=name_token.location, name=name_token.text)

    def _parse_expr(self, min_level: int = 1) -> ast.Expr:
        """An expression of binary operators binding at ``min_level`` or
        tighter (precedence climbing): ``or`` and ``and`` associate to
        the left, as do the additive and multiplicative operators; a
        comparison takes one on each side; ``not`` is a prefix below the
        comparisons."""
        if self._at(TokenKind.NOT) and min_level <= _NOT_LEVEL:
            location = self._advance().location
            operand = self._parse_expr(_NOT_LEVEL)
            expr = ast.UnaryExpr(location, ast.UnaryOp.NOT, operand)
            limit = _NOT_LEVEL - 1
        else:
            expr = self._parse_unary()
            limit = _TIGHTEST_LEVEL
        while True:
            entry = _BINARY_OPS.get(self._kinds[self._pos])
            if entry is None or not min_level <= entry[0] <= limit:
                return expr
            level, op = entry
            location = self._advance().location
            right = self._parse_expr(level + 1)
            expr = ast.BinaryExpr(location, op, expr, right)
            limit = level - 1 if level == _COMPARISON_LEVEL else level

    def _parse_unary(self) -> ast.Expr:
        if self._at(TokenKind.MINUS):
            location = self._advance().location
            operand = self._parse_unary()
            return ast.UnaryExpr(location, ast.UnaryOp.NEG, operand)
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.INT_LITERAL:
            self._advance()
            return ast.IntLiteral(token.location, int(token.text))
        if token.kind is TokenKind.FLOAT_LITERAL:
            self._advance()
            return ast.FloatLiteral(token.location, float(token.text))
        if token.kind is TokenKind.IDENT:
            return self._parse_lvalue()
        if token.kind is TokenKind.LPAREN:
            self._advance()
            expr = self._parse_expr()
            self._expect(TokenKind.RPAREN)
            return expr
        raise ParseError(
            f"expected an expression but found {token.text or token.kind.value!r}",
            token.location,
        )


def parse_module(source: str) -> ast.Module:
    """Parse W2 source text into a module AST."""
    return Parser(tokenize(source)).parse_module()


def parse_expression(source: str) -> ast.Expr:
    """Parse a standalone W2 expression (useful in tests and tools)."""
    parser = Parser(tokenize(source))
    expr = parser._parse_expr()
    parser._expect(TokenKind.EOF)
    return expr
