"""Token definitions for the W2 language.

The token set follows the surface syntax visible in Figure 4-1 of the
paper: a small block-structured language with ``module``, ``cellprogram``,
``function``, declarations, ``for``/``if`` statements and the channel
primitives ``send`` and ``receive``.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import SourceLocation


class TokenKind(enum.Enum):
    """Lexical categories of W2 tokens."""

    # Literals and identifiers.
    IDENT = "identifier"
    INT_LITERAL = "integer literal"
    FLOAT_LITERAL = "float literal"

    # Keywords.
    MODULE = "module"
    CELLPROGRAM = "cellprogram"
    FUNCTION = "function"
    CALL = "call"
    BEGIN = "begin"
    END = "end"
    IF = "if"
    THEN = "then"
    ELSE = "else"
    FOR = "for"
    TO = "to"
    DOWNTO = "downto"
    DO = "do"
    SEND = "send"
    RECEIVE = "receive"
    FLOAT = "float"
    INT = "int"
    IN = "in"
    OUT = "out"

    # Punctuation and operators.
    LPAREN = "("
    RPAREN = ")"
    LBRACKET = "["
    RBRACKET = "]"
    COMMA = ","
    SEMICOLON = ";"
    COLON = ":"
    ASSIGN = ":="
    PLUS = "+"
    MINUS = "-"
    STAR = "*"
    SLASH = "/"
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    AND = "and"
    OR = "or"
    NOT = "not"

    EOF = "end of input"


#: Kinds whose value names a category of token instead of spelling one.
_CATEGORIES = frozenset({
    TokenKind.IDENT,
    TokenKind.INT_LITERAL,
    TokenKind.FLOAT_LITERAL,
    TokenKind.EOF,
})

#: Map from keyword spelling to its token kind.  W2 keywords are reserved
#: words; the lexer consults this table after scanning a word.
KEYWORDS: dict[str, TokenKind] = {
    kind.value: kind
    for kind in TokenKind
    if kind not in _CATEGORIES and kind.value.isalpha()
}

#: Map from operator and punctuation spelling to its token kind.
PUNCTUATION: dict[str, TokenKind] = {
    kind.value: kind
    for kind in TokenKind
    if kind not in _CATEGORIES and not kind.value.isalpha()
}


class Token(NamedTuple):
    """A single lexical token with its spelling and source location: an
    immutable record, so a tuple for cheap creation."""

    kind: TokenKind
    text: str
    location: SourceLocation

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})"
