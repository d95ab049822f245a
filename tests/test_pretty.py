"""Pretty-printer round trips, including property-based expression tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import (
    count_w2_lines,
    format_expr,
    format_module,
    parse_expression,
    parse_module,
)
from repro.programs import (
    TABLE_7_1_PROGRAMS,
    bidirectional_cycle,
    matmul,
    passthrough,
)

ALL_SOURCES = [factory() for factory in TABLE_7_1_PROGRAMS.values()] + [
    matmul(8, 4),
    passthrough(),
    bidirectional_cycle(),
]


class TestModuleRoundTrip:
    @pytest.mark.parametrize("source", ALL_SOURCES, ids=lambda s: s.split()[1])
    def test_format_parse_fixpoint(self, source):
        """format(parse(format(parse(src)))) == format(parse(src))."""
        once = format_module(parse_module(source))
        twice = format_module(parse_module(once))
        assert once == twice

    def test_formatted_output_has_no_comments(self):
        formatted = format_module(parse_module(ALL_SOURCES[0]))
        assert "/*" not in formatted


# --- Property-based expression round trip ---------------------------------

_identifiers = st.sampled_from(["a", "b", "xval", "tmp1", "z9"])


def _exprs():
    leaves = st.one_of(
        st.integers(min_value=0, max_value=999).map(str),
        st.floats(
            min_value=0.001, max_value=1e6, allow_nan=False, allow_infinity=False
        ).map(lambda v: repr(float(v))),
        _identifiers,
        st.tuples(_identifiers, st.integers(0, 9)).map(
            lambda t: f"{t[0]}[{t[1]}]"
        ),
    )

    def extend(children):
        binary = st.tuples(
            children,
            st.sampled_from(["+", "-", "*", "/"]),
            children,
        ).map(lambda t: f"({t[0]} {t[1]} {t[2]})")
        unary = children.map(lambda e: f"(-{e})")
        return st.one_of(binary, unary)

    return st.recursive(leaves, extend, max_leaves=12)


class TestExpressionProperties:
    @given(_exprs())
    @settings(max_examples=200, deadline=None)
    def test_expression_roundtrip(self, source):
        """Formatting a parsed expression and reparsing gives an equal AST
        modulo locations, verified by comparing formatted forms."""
        first = parse_expression(source)
        formatted = format_expr(first)
        second = parse_expression(formatted)
        assert format_expr(second) == formatted

    @given(_exprs())
    @settings(max_examples=100, deadline=None)
    def test_minimal_parentheses_preserve_structure(self, source):
        """The printer drops parentheses only where precedence already
        enforces the same grouping."""
        expr = parse_expression(source)
        fully = parse_expression(format_expr(expr))
        assert format_expr(fully) == format_expr(expr)


class TestLineCounting:
    def test_blank_and_comment_lines_ignored(self):
        source = "a := 1;\n\n/* only a comment */\nb := 2;\n"
        assert count_w2_lines(source) == 2

    def test_multiline_comment_spanning(self):
        source = "x /* spans\nseveral\nlines */ y\n"
        assert count_w2_lines(source) == 2  # the x line and the y line

    def test_code_and_comment_same_line_counts(self):
        assert count_w2_lines("a := 1; /* note */\n") == 1

    def test_code_after_a_multiline_comment_closes_counts(self):
        source = "/* one\ntwo */ a := 1;\n/* three\n*/\nb := 2;\n"
        assert count_w2_lines(source) == 2  # the a line and the b line

    def test_lone_carriage_return_is_not_a_line_break(self):
        """A line is what the lexer counts as one: ``\\n`` ends it and a
        lone ``\\r`` is whitespace, as in token locations."""
        assert count_w2_lines("a := 1;\rb := 2;\r\nc := 3;\n") == 2

    def test_paper_program_counts_are_stable(self):
        counts = {
            name: count_w2_lines(factory())
            for name, factory in TABLE_7_1_PROGRAMS.items()
        }
        # ColorSeg is the biggest program, as in Table 7-1.
        assert max(counts, key=counts.get) == "ColorSeg"
