"""Unit tests for the W2 lexer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import LexError, SourceLocation, TokenKind, tokenize

#: Kinds whose value names a class of token instead of spelling one.
CLASSES = {
    TokenKind.IDENT,
    TokenKind.INT_LITERAL,
    TokenKind.FLOAT_LITERAL,
    TokenKind.EOF,
}
SPELLED = [kind for kind in TokenKind if kind not in CLASSES]


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def texts(source):
    return [t.text for t in tokenize(source)][:-1]


def places(source):
    """Each token's text with its ``(line, column)``, EOF aside."""
    return [
        (t.text, (t.location.line, t.location.column))
        for t in tokenize(source)
    ][:-1]


def lex_error(source):
    with pytest.raises(LexError) as caught:
        tokenize(source)
    return caught.value.message, caught.value.location


class TestBasicTokens:
    def test_empty_input_yields_only_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_identifier(self):
        assert kinds("hello") == [TokenKind.IDENT]

    def test_identifier_with_underscore_and_digits(self):
        assert texts("a_b2 _x") == ["a_b2", "_x"]

    def test_keywords_are_reserved(self):
        assert kinds("module begin end if then else") == [
            TokenKind.MODULE,
            TokenKind.BEGIN,
            TokenKind.END,
            TokenKind.IF,
            TokenKind.THEN,
            TokenKind.ELSE,
        ]

    def test_keyword_prefix_is_identifier(self):
        assert kinds("iff formod") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_int_literal(self):
        assert kinds("42") == [TokenKind.INT_LITERAL]

    def test_float_literal(self):
        assert kinds("4.25") == [TokenKind.FLOAT_LITERAL]

    def test_float_exponent(self):
        assert kinds("1e5 2.5E-3 7e+2") == [TokenKind.FLOAT_LITERAL] * 3

    def test_leading_dot_float(self):
        assert kinds(".5") == [TokenKind.FLOAT_LITERAL]

    def test_integer_followed_by_e_identifier(self):
        # '12e' without digits is an int then an identifier.
        assert kinds("12e") == [TokenKind.INT_LITERAL, TokenKind.IDENT]

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("1e+", [("1", TokenKind.INT_LITERAL), ("e", TokenKind.IDENT),
                     ("+", TokenKind.PLUS)]),
            ("1.e", [("1.", TokenKind.FLOAT_LITERAL),
                     ("e", TokenKind.IDENT)]),
            ("1.", [("1.", TokenKind.FLOAT_LITERAL)]),
            ("1.e5", [("1.e5", TokenKind.FLOAT_LITERAL)]),
            ("1.5.3", [("1.5", TokenKind.FLOAT_LITERAL),
                       (".3", TokenKind.FLOAT_LITERAL)]),
            ("2e-x", [("2", TokenKind.INT_LITERAL), ("e", TokenKind.IDENT),
                      ("-", TokenKind.MINUS), ("x", TokenKind.IDENT)]),
        ],
    )
    def test_number_ends_where_its_digits_do(self, source, expected):
        """An exponent needs a digit; without one the number ends and
        ``e`` starts an identifier."""
        assert [(t.text, t.kind) for t in tokenize(source)][:-1] == expected

    @pytest.mark.parametrize("source", ["\u00e91", "x\u00b2", "_\u0663"])
    def test_identifier_continues_over_unicode_alphanumerics(self, source):
        """An identifier starts with a letter or ``_`` and continues over
        every character ``str.isalnum`` accepts."""
        assert places(source) == [(source, (1, 1))]
        assert kinds(source) == [TokenKind.IDENT]

    @pytest.mark.parametrize("kind", SPELLED, ids=lambda kind: kind.name)
    def test_each_spelling_lexes_to_its_kind(self, kind):
        """Keyword and punctuation tables come from ``TokenKind``: each
        member's spelling lexes to that member alone."""
        assert [(t.kind, t.text) for t in tokenize(kind.value)] == [
            (kind, kind.value),
            (TokenKind.EOF, ""),
        ]


class TestOperators:
    def test_assign_vs_colon(self):
        assert kinds(": :=") == [TokenKind.COLON, TokenKind.ASSIGN]

    def test_longest_operator_wins_without_spaces(self):
        assert texts("a:=b<=c<>d>=e:f<g>h=i") == [
            "a", ":=", "b", "<=", "c", "<>", "d", ">=", "e", ":", "f",
            "<", "g", ">", "h", "=", "i",
        ]

    def test_comparisons(self):
        assert kinds("< <= > >= = <>") == [
            TokenKind.LT,
            TokenKind.LE,
            TokenKind.GT,
            TokenKind.GE,
            TokenKind.EQ,
            TokenKind.NE,
        ]

    def test_arithmetic(self):
        assert kinds("+ - * /") == [
            TokenKind.PLUS,
            TokenKind.MINUS,
            TokenKind.STAR,
            TokenKind.SLASH,
        ]

    def test_punctuation(self):
        assert kinds("( ) [ ] , ;") == [
            TokenKind.LPAREN,
            TokenKind.RPAREN,
            TokenKind.LBRACKET,
            TokenKind.RBRACKET,
            TokenKind.COMMA,
            TokenKind.SEMICOLON,
        ]


class TestComments:
    def test_comment_is_skipped(self):
        assert kinds("a /* comment */ b") == [TokenKind.IDENT, TokenKind.IDENT]

    def test_multiline_comment(self):
        assert kinds("a /* line1\nline2 */ b") == [
            TokenKind.IDENT,
            TokenKind.IDENT,
        ]

    def test_comment_containing_stars(self):
        assert kinds("/* ** * **/x") == [TokenKind.IDENT]

    def test_unterminated_comment_raises(self):
        assert lex_error("a /* never */ b\n /* closed */ /*") == (
            "unterminated comment", SourceLocation(2, 15)
        )

    def test_slash_alone_is_divide(self):
        assert kinds("a / b") == [
            TokenKind.IDENT,
            TokenKind.SLASH,
            TokenKind.IDENT,
        ]


class TestLocations:
    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].location.line == 1
        assert tokens[0].location.column == 1
        assert tokens[1].location.line == 2
        assert tokens[1].location.column == 3

    def test_location_after_comment(self):
        tokens = tokenize("/* x\ny */ z")
        assert tokens[0].location.line == 2

    def test_comment_ending_mid_line_keeps_columns(self):
        assert places("a /* c */ b /**/ c\n/* x\ny */ z w") == [
            ("a", (1, 1)), ("b", (1, 11)), ("c", (1, 18)), ("z", (3, 6)),
            ("w", (3, 8)),
        ]

    def test_crlf_keeps_lines_and_columns(self):
        assert places("a\r\n  b\r\n\r\nc := 1") == [
            ("a", (1, 1)), ("b", (2, 3)), ("c", (4, 1)), (":=", (4, 3)),
            ("1", (4, 6)),
        ]

    def test_lone_carriage_return_is_not_a_line_break(self):
        assert places("a\rb\r\rc") == [
            ("a", (1, 1)), ("b", (1, 3)), ("c", (1, 6)),
        ]

    def test_eof_location(self):
        assert tokenize("a\n /* */ ")[-1].location == SourceLocation(2, 8)


class TestErrors:
    def test_unexpected_character(self):
        with pytest.raises(LexError):
            tokenize("a # b")

    def test_lone_dot(self):
        with pytest.raises(LexError):
            tokenize("a . b")

    @pytest.mark.parametrize("source", ["1\u00b2", "\u0663", "x := 1.\u0663"])
    def test_non_ascii_digit(self, source):
        """``str.isdigit`` accepts ``²`` and ``٣``; numbers take ASCII
        digits only, so any other digit is an unexpected character."""
        with pytest.raises(LexError, match="unexpected character"):
            tokenize(source)

    def test_non_ascii_digit_after_a_number_is_its_own_error(self):
        with pytest.raises(LexError) as caught:
            tokenize("for i := 0 to 1\u00b2")
        assert caught.value.location.column == 16

    @pytest.mark.parametrize(
        "source, message, column",
        [
            ("a \u00b2x", "unexpected character '\u00b2'", 3),
            ("1\u0663", "unexpected character '\u0663'", 2),
            ("x :=\t.\u0663", "unexpected '.'", 6),
            ("a\u00a0b", "unexpected character '\\xa0'", 2),
            ("a\x0bb", "unexpected character '\\x0b'", 2),
        ],
    )
    def test_error_message_and_location(self, source, message, column):
        assert lex_error(source) == (message, SourceLocation(1, column))


#: Text that is mostly W2 punctuation, digits, letters, comment marks
#: and line breaks, with any other character (Unicode digits among them)
#: mixed in.
W2_TEXT = st.lists(
    st.one_of(
        st.sampled_from(
            [*"0123456789.eE+-*/:=<>()[],; \n\r\tab_\u00e9\u00b2", "/*", "*/"]
        ),
        st.characters(),
    ),
    max_size=40,
).map("".join)


def _blank(gap):
    """Whether ``gap`` holds only whitespace and closed comments."""
    rest = gap.lstrip(" \t\r\n")
    while rest:
        end = rest.find("*/", 2)
        if not rest.startswith("/*") or end < 0:
            return False
        rest = rest[end + 2:].lstrip(" \t\r\n")
    return True


def check_text(source):
    """Any text either lexes or raises :class:`LexError`.  On success
    each token's text is the source slice at its location, only
    whitespace and closed comments lie between tokens, and every
    numeric literal converts with ``int()``/``float()``."""
    try:
        tokens = tokenize(source)
    except LexError:
        return
    line_starts = [0] + [i + 1 for i, c in enumerate(source) if c == "\n"]
    end = 0
    for token in tokens:
        start = line_starts[token.location.line - 1]
        start += token.location.column - 1
        assert end <= start
        assert source[start:start + len(token.text)] == token.text
        assert _blank(source[end:start])
        end = start + len(token.text)
        if token.kind is TokenKind.INT_LITERAL:
            int(token.text)
        elif token.kind is TokenKind.FLOAT_LITERAL:
            float(token.text)
    assert end == len(source)


class TestArbitraryText:
    @settings(max_examples=400, deadline=None)
    @given(W2_TEXT)
    def test_only_lex_errors_and_convertible_literals(self, source):
        check_text(source)
