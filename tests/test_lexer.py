"""Unit tests for the W2 lexer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import LexError, TokenKind, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source)][:-1]  # drop EOF


def texts(source):
    return [t.text for t in tokenize(source)][:-1]


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


class TestOperators:
    def test_assign_vs_colon(self):
        assert kinds(": :=") == [TokenKind.COLON, TokenKind.ASSIGN]

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
        with pytest.raises(LexError):
            tokenize("a /* never closed")

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


#: Text that is mostly W2 punctuation, digits and letters, with any
#: other character (Unicode digits among them) mixed in.
_W2_TEXT = st.text(
    st.one_of(
        st.sampled_from(list("0123456789.eE+-*/:=<>()[],; \nab_")),
        st.characters(),
    ),
    max_size=40,
)


class TestArbitraryText:
    @settings(max_examples=400, deadline=None)
    @given(_W2_TEXT)
    def test_only_lex_errors_and_convertible_literals(self, source):
        """Any text either lexes or raises :class:`LexError`, and every
        numeric literal converts with ``int()``/``float()``."""
        try:
            tokens = tokenize(source)
        except LexError:
            return
        for token in tokens:
            if token.kind is TokenKind.INT_LITERAL:
                int(token.text)
            elif token.kind is TokenKind.FLOAT_LITERAL:
                float(token.text)
