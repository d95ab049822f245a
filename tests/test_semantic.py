"""Unit tests for W2 semantic analysis and the affine index machinery."""

import numpy as np
import pytest

from repro.lang import (
    SemanticError,
    UnsupportedProgramError,
    analyze,
    parse_module,
)
from repro.lang.semantic import (
    AffineIndex,
    affine_add,
    affine_const,
    affine_scale,
    affine_var,
)


def wrap(body, decls="float t;\n    int i;", params="a in, b out",
         host="float a[16];\nfloat b[16];", cells="0 : 1"):
    return f"""
module m ({params})
{host}
cellprogram (cid : {cells})
begin
    {decls}
{body}
end
"""


def check(body, **kwargs):
    return analyze(parse_module(wrap(body, **kwargs)))


class TestDeclarations:
    def test_param_without_host_decl(self):
        src = """
module m (a in)
cellprogram (c : 0 : 0)
begin
    float t;
    receive (L, X, t, 0.0);
end
"""
        with pytest.raises(SemanticError, match="host declaration"):
            analyze(parse_module(src))

    def test_host_decl_without_param(self):
        src = wrap("    t := 1.0;", host="float a[16];\nfloat b[16];\nfloat c[4];")
        with pytest.raises(SemanticError, match="does not match any"):
            analyze(parse_module(src))

    def test_duplicate_cell_decl(self):
        with pytest.raises(SemanticError, match="duplicate"):
            check("    t := 1.0;", decls="float t, t;")

    def test_int_array_rejected(self):
        with pytest.raises(SemanticError, match="int arrays"):
            check("    t := 1.0;", decls="float t;\n    int q[4];")


class TestTypeRules:
    def test_undefined_variable(self):
        with pytest.raises(SemanticError, match="undefined"):
            check("    t := nosuch;")

    def test_host_var_not_readable_by_cell(self):
        with pytest.raises(SemanticError, match="cannot be (read|accessed)"):
            check("    t := a[0];")

    def test_host_var_not_assignable_by_cell(self):
        with pytest.raises(SemanticError):
            check("    b[0] := 1.0;")

    def test_loop_index_not_a_float_value(self):
        with pytest.raises(SemanticError, match="loop index"):
            check("    for i := 0 to 3 do t := i;")

    def test_loop_index_not_assignable(self):
        with pytest.raises(SemanticError):
            check("    i := 1.0;")

    def test_if_condition_must_be_boolean(self):
        with pytest.raises(SemanticError, match="boolean"):
            check("    if t then t := 1.0;")

    def test_boolean_not_storable(self):
        with pytest.raises(SemanticError):
            check("    t := t < 1.0;")

    def test_and_needs_booleans(self):
        with pytest.raises(SemanticError):
            check("    if t and t < 1.0 then t := 1.0;")

    def test_array_used_without_subscript(self):
        with pytest.raises(SemanticError, match="without subscripts"):
            check("    t := w;", decls="float t, w[4];\n    int i;")

    def test_wrong_subscript_count(self):
        with pytest.raises(SemanticError, match="subscripts"):
            check("    t := w[1, 2];", decls="float t, w[4];\n    int i;")

    def test_valid_conditional(self):
        check("    if t <= 1.0 and not (t = 0.0) then t := 2.0; else t := 3.0;")


class TestLoops:
    def test_loop_var_must_be_int(self):
        with pytest.raises(SemanticError, match="declared int"):
            check("    for t := 0 to 3 do begin end;")

    def test_dynamic_bound_rejected(self):
        with pytest.raises(UnsupportedProgramError, match="compile-time"):
            check("    for i := 0 to j do t := 1.0;", decls="float t;\n    int i, j;")

    def test_constant_expression_bound(self):
        analyzed = check("    for i := 0 to 2*4 - 1 do t := 1.0;")
        loop = analyzed.module.cellprogram.body[0]
        assert analyzed.bounds_for(loop) == (0, 7, 8)

    def test_downto_trip_count(self):
        analyzed = check("    for i := 7 downto 3 do t := 1.0;")
        loop = analyzed.module.cellprogram.body[0]
        assert analyzed.bounds_for(loop) == (7, 3, 5)

    def test_empty_loop_rejected(self):
        with pytest.raises(UnsupportedProgramError, match="zero iterations"):
            check("    for i := 3 to 1 do t := 1.0;")


class TestIOStatements:
    def test_receive_external_must_be_input(self):
        with pytest.raises(SemanticError, match="direction"):
            check("    receive (L, X, t, b[0]);")

    def test_send_external_must_be_output(self):
        with pytest.raises(SemanticError, match="direction"):
            check("    send (R, X, t, a[0]);")

    def test_literal_external_allowed(self):
        analyzed = check("    receive (L, Y, t, 0.0);")
        stmt = analyzed.module.cellprogram.body[0]
        assert analyzed.io_info[id(stmt)].external_literal == 0.0

    def test_send_int_value_promoted(self):
        check("    send (R, X, 0);")

    def test_receive_target_must_be_float(self):
        with pytest.raises(SemanticError):
            check("    receive (L, X, i, a[0]);")


class TestSubscriptAffinity:
    def test_affine_subscript_accepted(self):
        analyzed = check(
            "    for i := 0 to 3 do t := w[2*i + 1];",
            decls="float t, w[16];\n    int i;",
        )
        ref = analyzed.module.cellprogram.body[0].body.value
        form = analyzed.indices_for(ref)[0]
        assert form.constant == 1
        assert form.coefficient("i") == 2

    def test_nonaffine_subscript_rejected(self):
        with pytest.raises(UnsupportedProgramError, match="affine"):
            check(
                "    for i := 0 to 3 do t := w[i*i];",
                decls="float t, w[16];\n    int i;",
            )

    def test_float_subscript_rejected(self):
        with pytest.raises(SemanticError):
            check("    t := w[t];", decls="float t, w[4];\n    int i;")


class TestFunctions:
    def test_call_undefined_function(self):
        src = wrap("    call nothing;")
        with pytest.raises(SemanticError, match="undefined function"):
            analyze(parse_module(src))

    def test_call_inside_function_rejected(self):
        src = """
module m (a in)
float a[4];
cellprogram (c : 0 : 0)
begin
    function f
    begin
        float t;
        call f;
    end
    call f;
end
"""
        with pytest.raises(SemanticError, match="not allowed inside"):
            analyze(parse_module(src))


class TestAffineAlgebra:
    def test_add(self):
        form = affine_add(affine_var("i"), affine_const(3))
        assert form.constant == 3
        assert form.coefficient("i") == 1

    def test_subtract_cancels(self):
        form = affine_add(affine_var("i"), affine_var("i"), sign=-1)
        assert form.is_constant
        assert form.constant == 0

    def test_scale(self):
        form = affine_scale(affine_add(affine_var("i"), affine_const(2)), 5)
        assert form.constant == 10
        assert form.coefficient("i") == 5

    def test_scale_by_zero(self):
        assert affine_scale(affine_var("i"), 0) == affine_const(0)

    def test_evaluate(self):
        form = AffineIndex(4, (("i", 2), ("j", -1)))
        assert form.evaluate({"i": 3, "j": 5}) == 4 + 6 - 5

    def test_evaluate_over_broadcast_grids_equals_scalar_evaluation(self):
        """The closed-form host streams evaluate an index once over
        broadcast loop-index grids (outer axis first)."""
        form = AffineIndex(4, (("i", 2), ("j", -1), ("k", 3)))
        i = np.arange(2)[:, None, None]
        j = 5 + 2 * np.arange(8)[:, None]
        k = np.arange(3)
        grid = form.evaluate({"i": i, "j": j, "k": k})
        assert grid.shape == (2, 8, 3)
        for a, b, c in np.ndindex(grid.shape):
            env = {"i": int(i[a, 0, 0]), "j": int(j[b, 0]), "k": int(k[c])}
            assert grid[a, b, c] == form.evaluate(env)

    def test_str_roundtrip_is_readable(self):
        form = AffineIndex(1, (("i", 2),))
        assert str(form) == "1 + 2*i"
