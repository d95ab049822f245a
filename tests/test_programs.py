"""Tests for the bundled W2 program generators."""

import pytest

from repro.compiler import compile_w2
from repro.lang import analyze, parse_module
from repro.programs import (
    TABLE_7_1_PROGRAMS,
    binop,
    colorseg,
    conv1d,
    conv2d,
    mandelbrot,
    matmul,
    passthrough,
    polynomial,
)


class TestParameterisation:
    def test_polynomial_sizes(self):
        module = parse_module(polynomial(50, 5))
        assert module.cellprogram.n_cells == 5
        assert module.host_decl("z").dimensions == (50,)
        assert module.host_decl("c").dimensions == (5,)

    def test_conv1d_output_size(self):
        module = parse_module(conv1d(100, 7))
        assert module.cellprogram.n_cells == 7
        assert module.host_decl("y").dimensions == (100,)

    def test_binop_pads_to_cell_multiple(self):
        module = parse_module(binop(7, 3, 5))  # 21 pixels, 5 cells
        padded = module.host_decl("a").dimensions[0]
        assert padded == 25  # ceil(21/5)*5
        assert padded % 5 == 0

    def test_binop_operator_validation(self):
        with pytest.raises(ValueError, match="operator"):
            binop(4, 4, 2, op="^")

    @pytest.mark.parametrize("op", ["+", "-", "*"])
    def test_binop_operators_parse(self, op):
        analyze(parse_module(binop(4, 4, 2, op=op)))

    @pytest.mark.parametrize("n_cells", [1, 0])
    def test_polynomial_needs_two_cells(self, n_cells):
        """One coefficient left the coefficient loop ``for i := 1 to 0``
        with no trip, which the compiler refuses; the factory refuses
        such a size first, naming the minimum."""
        with pytest.raises(ValueError, match="at least 2 cells"):
            polynomial(40, n_cells)
        compile_w2(polynomial(40, 2))

    def test_matmul_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            matmul(10, 4)

    def test_matmul_local_memory_use(self):
        analyzed = analyze(parse_module(matmul(16, 4)))
        from repro.ir import build_ir

        ir = build_ir(analyzed)
        bcol = next(name for name in ir.arrays if name.endswith("bcol"))
        assert ir.arrays[bcol] == 16 * 4  # columns-per-cell * n

    def test_conv2d_rowbuf_width(self):
        analyzed = analyze(parse_module(conv2d(20, 8)))
        from repro.ir import build_ir

        ir = build_ir(analyzed)
        rowbuf = next(name for name in ir.arrays if name.endswith("rowbuf"))
        assert ir.arrays[rowbuf] == 20

    def test_mandelbrot_single_cell(self):
        module = parse_module(mandelbrot(8, 8, 4))
        assert module.cellprogram.n_cells == 1

    def test_colorseg_parameter_arrays(self):
        module = parse_module(colorseg(16, 16, 6))
        assert module.host_decl("refu").dimensions == (6,)
        assert module.host_decl("class").dimensions == (6,)


class TestPaperDefaults:
    def test_paper_sizes(self):
        assert parse_module(polynomial()).cellprogram.n_cells == 10
        assert parse_module(conv1d()).cellprogram.n_cells == 9
        assert parse_module(binop()).cellprogram.n_cells == 10
        assert parse_module(colorseg()).host_decl("u").dimensions == (512 * 512,)
        assert parse_module(mandelbrot()).host_decl("cx").dimensions == (1024,)

    def test_table_lists_exactly_the_five(self):
        assert sorted(TABLE_7_1_PROGRAMS) == [
            "1d-Conv",
            "Binop",
            "ColorSeg",
            "Mandelbrot",
            "Polynomial",
        ]

    def test_all_paper_programs_analyze(self):
        for factory in TABLE_7_1_PROGRAMS.values():
            analyze(parse_module(factory()))

    def test_passthrough_is_minimal(self):
        module = parse_module(passthrough(4, 2))
        assert len(module.cellprogram.body) == 1  # just the loop
