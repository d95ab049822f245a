"""Diagnostics for the W2 front end.

All front-end failures are reported through :class:`W2Error` subclasses so
that callers (the compiler driver, tests, examples) can distinguish the
phase that rejected a program.  Every error carries a source location when
one is available.
"""

from __future__ import annotations

from typing import NamedTuple


class SourceLocation(NamedTuple):
    """A position in a W2 source text (1-based line and column): an
    immutable record, one per token, so a tuple for cheap creation."""

    line: int
    column: int

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}"


class W2Error(Exception):
    """Base class for all errors raised while processing a W2 program."""

    def __init__(self, message: str, location: SourceLocation | None = None):
        self.message = message
        self.location = location
        if location is not None:
            super().__init__(f"{message} (at {location})")
        else:
            super().__init__(message)


class LexError(W2Error):
    """An invalid character sequence was found while tokenising."""


class ParseError(W2Error):
    """The token stream does not form a syntactically valid W2 program."""


class SemanticError(W2Error):
    """The program is syntactically valid but violates W2 static semantics."""


class UnsupportedProgramError(W2Error):
    """The program is valid W2 but outside the compilable subset.

    Section 5.1 of the paper: programs must have compile-time-analysable
    I/O timing (constant loop bounds) and unidirectional communication.
    """
