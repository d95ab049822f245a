"""The W2 lexer: one regular expression and a loop over its matches.

W2 uses C-style ``/* ... */`` comments (see Figure 4-1 of the paper).
Comments do not nest.  Keyword and punctuation spellings come from
:class:`~repro.lang.tokens.TokenKind`, so the token set is written down
once.  The lexer also decides what a W2 line is: a line that holds a
token (:func:`count_w2_lines`).
"""

from __future__ import annotations

import re

from .errors import LexError, SourceLocation
from .tokens import KEYWORDS, PUNCTUATION, Token, TokenKind

_EXPONENT = r"[eE][+-]?[0-9]+"
_OPERATORS = "|".join(
    re.escape(spelling)
    for spelling in sorted(PUNCTUATION, key=len, reverse=True)
)

#: One alternative per token class, tried in order.  A word starts with
#: any word character but a decimal digit; :func:`tokenize` refuses one
#: that starts with a non-letter such as ``²``.  Numbers take ASCII
#: digits only.  Operators are tried longest first, so ``:=`` wins over
#: ``:``.  Any other character is ``other``, which :func:`tokenize`
#: refuses, so the matches cover the source without a gap.
_TOKEN = re.compile(
    rf"""
    (?P<space>[ \t\r\n]+)
  | (?P<comment>/\*.*?\*/)
  | (?P<unclosed>/\*)
  | (?P<word>[^\W\d]\w*)
  | (?P<float>(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:{_EXPONENT})?|[0-9]+{_EXPONENT})
  | (?P<int>[0-9]+)
  | (?P<op>{_OPERATORS})
  | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _unexpected(char: str, location: SourceLocation) -> LexError:
    if char == ".":
        return LexError("unexpected '.'", location)
    return LexError(f"unexpected character {char!r}", location)


def tokenize(source: str) -> list[Token]:
    """Tokenise ``source`` and return its tokens (final token is EOF).

    Raises :class:`LexError` at the first character no token starts
    with, or at a ``/*`` that no ``*/`` closes.
    """
    tokens: list[Token] = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        group, text = match.lastgroup, match.group()
        if group == "space" or group == "comment":
            if "\n" in text:
                line += text.count("\n")
                line_start = source.rindex("\n", *match.span()) + 1
            continue
        location = SourceLocation(line, match.start() - line_start + 1)
        if group == "word":
            if not (text[0].isalpha() or text[0] == "_"):
                raise _unexpected(text[0], location)
            kind = KEYWORDS.get(text, TokenKind.IDENT)
        elif group == "op":
            kind = PUNCTUATION[text]
        elif group == "int":
            kind = TokenKind.INT_LITERAL
        elif group == "float":
            kind = TokenKind.FLOAT_LITERAL
        elif group == "unclosed":
            raise LexError("unterminated comment", location)
        else:
            raise _unexpected(text, location)
        tokens.append(Token(kind, text, location))
    location = SourceLocation(line, len(source) - line_start + 1)
    tokens.append(Token(TokenKind.EOF, "", location))
    return tokens


def count_token_lines(tokens: list[Token]) -> int:
    """The number of distinct lines that hold a token of ``tokens``, a
    :func:`tokenize` result: the "W2 Lines" metric of Table 7-1.  Blank
    lines and lines that only a comment covers hold none."""
    return len({token.location.line for token in tokens[:-1]})


def count_w2_lines(source: str) -> int:
    """Count the lines of W2 ``source`` that hold a token (see
    :func:`count_token_lines`); raises :class:`LexError` as
    :func:`tokenize` does."""
    return count_token_lines(tokenize(source))
