"""The W2 language front end: lexer, parser, AST and semantic analysis.

W2 is the "machine language" of the Warp array (Section 4.3 of Gross &
Lam, PLDI 1986): a block-structured language with assignment, conditional
and constant-bound loop statements, and explicit asynchronous ``send`` /
``receive`` communication between neighbouring cells.

The main entry points are::

    from repro.lang import parse_module, analyze

    module = parse_module(source_text)
    analyzed = analyze(module)
"""

from .ast import (
    ArrayRef,
    Assign,
    BinaryExpr,
    BinaryOp,
    Call,
    CellProgram,
    Channel,
    Compound,
    Direction,
    Expr,
    FloatLiteral,
    For,
    FunctionDecl,
    If,
    IntLiteral,
    Module,
    Param,
    ParamDirection,
    Receive,
    ScalarType,
    Send,
    Stmt,
    UnaryExpr,
    UnaryOp,
    VarDecl,
    VarRef,
)
from .errors import (
    LexError,
    ParseError,
    SemanticError,
    SourceLocation,
    UnsupportedProgramError,
    W2Error,
)
from .lexer import count_w2_lines, tokenize
from .parser import parse_expression, parse_module
from .pretty import format_expr, format_module
from .semantic import (
    AffineIndex,
    AnalyzedModule,
    analyze,
    affine_add,
    affine_const,
    affine_scale,
    affine_var,
)
from .symbols import Scope, Symbol, SymbolKind
from .tokens import Token, TokenKind

__all__ = [
    "AffineIndex",
    "AnalyzedModule",
    "ArrayRef",
    "Assign",
    "BinaryExpr",
    "BinaryOp",
    "Call",
    "CellProgram",
    "Channel",
    "Compound",
    "Direction",
    "Expr",
    "FloatLiteral",
    "For",
    "FunctionDecl",
    "If",
    "IntLiteral",
    "LexError",
    "Module",
    "Param",
    "ParamDirection",
    "ParseError",
    "Receive",
    "ScalarType",
    "Scope",
    "SemanticError",
    "Send",
    "SourceLocation",
    "Stmt",
    "Symbol",
    "SymbolKind",
    "Token",
    "TokenKind",
    "UnaryExpr",
    "UnaryOp",
    "UnsupportedProgramError",
    "VarDecl",
    "VarRef",
    "W2Error",
    "affine_add",
    "affine_const",
    "affine_scale",
    "affine_var",
    "analyze",
    "count_w2_lines",
    "format_expr",
    "format_module",
    "parse_expression",
    "parse_module",
    "tokenize",
]
