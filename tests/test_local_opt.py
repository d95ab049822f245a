"""Tests for local optimisations: folding, algebra, height reduction."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import local_opt
from repro.ir.dag import Dag, OpKind


def fold2(dag, op, a, b):
    result = local_opt.fold(dag, op, (a, b))
    if result is None:
        result = dag.pure(op, a, b)
    return result


class TestConstantFolding:
    @pytest.mark.parametrize(
        "op,a,b,expected",
        [
            (OpKind.FADD, 2.0, 3.0, 5.0),
            (OpKind.FSUB, 2.0, 3.0, -1.0),
            (OpKind.FMUL, 2.0, 3.0, 6.0),
            (OpKind.FDIV, 3.0, 2.0, 1.5),
            (OpKind.CMP_LT, 1.0, 2.0, 1.0),
            (OpKind.CMP_GE, 1.0, 2.0, 0.0),
            (OpKind.BAND, 1.0, 0.0, 0.0),
            (OpKind.BOR, 1.0, 0.0, 1.0),
        ],
    )
    def test_binary_folds(self, op, a, b, expected):
        dag = Dag()
        node = fold2(dag, op, dag.const(a), dag.const(b))
        assert node.op is OpKind.CONST
        assert node.attr == expected

    def test_division_by_zero_not_folded(self):
        dag = Dag()
        node = fold2(dag, OpKind.FDIV, dag.const(1.0), dag.const(0.0))
        assert node.op is OpKind.FDIV

    def test_unary_fold(self):
        dag = Dag()
        node = local_opt.fold(dag, OpKind.FNEG, (dag.const(4.0),))
        assert node.attr == -4.0

    def test_select_on_constant_condition(self):
        dag = Dag()
        a, b = dag.read("a"), dag.read("b")
        chosen = local_opt.fold(dag, OpKind.SELECT, (dag.const(1.0), a, b))
        assert chosen is a


class TestAlgebraicIdentities:
    def test_add_zero(self):
        """``-0.0 + 0.0`` is ``+0.0``, so ``x + 0`` is not ``x``."""
        dag = Dag()
        a, zero = dag.read("a"), dag.const(0.0)
        for node in (
            fold2(dag, OpKind.FADD, a, zero),
            fold2(dag, OpKind.FADD, zero, a),
        ):
            assert node.op is OpKind.FADD
            assert set(node.operands) == {a.node_id, zero.node_id}

    def test_sub_zero(self):
        """``x - (+0.0)`` is ``x`` for every float; ``x - (-0.0)`` is
        ``x + 0.0``, which is not."""
        dag = Dag()
        a = dag.read("a")
        assert fold2(dag, OpKind.FSUB, a, dag.const(0.0)) is a
        other = Dag()
        b = other.read("b")
        node = fold2(other, OpKind.FSUB, b, other.const(-0.0))
        assert node.op is OpKind.FSUB

    def test_mul_one(self):
        dag = Dag()
        a = dag.read("a")
        assert fold2(dag, OpKind.FMUL, a, dag.const(1.0)) is a

    def test_mul_zero(self):
        """``inf * 0`` and ``nan * 0`` are NaN, so ``x * 0`` is not 0."""
        dag = Dag()
        a, zero = dag.read("a"), dag.const(0.0)
        for node in (
            fold2(dag, OpKind.FMUL, a, zero),
            fold2(dag, OpKind.FMUL, zero, a),
        ):
            assert node.op is OpKind.FMUL

    def test_sub_self_is_not_folded(self):
        """``inf - inf`` is NaN, so ``x - x`` is not 0."""
        dag = Dag()
        a = dag.read("a")
        node = fold2(dag, OpKind.FSUB, a, a)
        assert node.op is OpKind.FSUB
        assert node.operands == (a.node_id, a.node_id)

    def test_div_one(self):
        dag = Dag()
        a = dag.read("a")
        assert fold2(dag, OpKind.FDIV, a, dag.const(1.0)) is a

    def test_double_negation(self):
        dag = Dag()
        a = dag.read("a")
        neg = dag.pure(OpKind.FNEG, a)
        assert local_opt.fold(dag, OpKind.FNEG, (neg,)) is a

    def test_idempotent_and(self):
        dag = Dag()
        a = dag.read("a")
        assert fold2(dag, OpKind.BAND, a, a) is a

    def test_idempotent_or(self):
        dag = Dag()
        a = dag.read("a")
        assert fold2(dag, OpKind.BOR, a, a) is a

    def test_not_of_compare_inverts(self):
        dag = Dag()
        a, b = dag.read("a"), dag.read("b")
        le = dag.pure(OpKind.CMP_LE, a, b)
        inverted = local_opt.fold(dag, OpKind.BNOT, (le,))
        assert inverted.op is OpKind.CMP_GT

    def test_select_same_arms(self):
        dag = Dag()
        c, a = dag.read("c"), dag.read("a")
        assert local_opt.fold(dag, OpKind.SELECT, (c, a, a)) is a


class TestHeightReduction:
    def _chain(self, dag, op, n):
        node = dag.read("x0")
        for i in range(1, n):
            node = fold2(dag, op, node, dag.read(f"x{i}"))
        return node

    @pytest.mark.parametrize("op", [OpKind.FADD, OpKind.FMUL])
    def test_chain_depth_is_logarithmic(self, op):
        dag = Dag()
        node = self._chain(dag, op, 16)
        depth = local_opt.depth(dag, node)
        assert depth <= 6  # a linear chain would be depth 15

    def test_subtraction_chain_not_reassociated(self):
        dag = Dag()
        node = dag.read("x0")
        for i in range(1, 8):
            node = fold2(dag, OpKind.FSUB, node, dag.read(f"x{i}"))
        assert local_opt.depth(dag, node) == 7


class TestEvaluatePure:
    @given(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_python_semantics(self, a, b):
        assert local_opt.evaluate_pure(OpKind.FADD, [a, b]) == a + b
        assert local_opt.evaluate_pure(OpKind.FSUB, [a, b]) == a - b
        assert local_opt.evaluate_pure(OpKind.CMP_LE, [a, b]) == (
            1.0 if a <= b else 0.0
        )

    def test_select_semantics(self):
        assert local_opt.evaluate_pure(OpKind.SELECT, [1.0, 5.0, 7.0]) == 5.0
        assert local_opt.evaluate_pure(OpKind.SELECT, [0.0, 5.0, 7.0]) == 7.0

    def test_bnot(self):
        assert local_opt.evaluate_pure(OpKind.BNOT, [0.0]) == 1.0
        assert local_opt.evaluate_pure(OpKind.BNOT, [3.0]) == 0.0


class TestFoldedEvaluationConsistency:
    """Folding must agree with evaluate_pure for every op it folds."""

    @given(
        st.sampled_from(
            [
                OpKind.FADD,
                OpKind.FSUB,
                OpKind.FMUL,
                OpKind.CMP_EQ,
                OpKind.CMP_NE,
                OpKind.CMP_LT,
                OpKind.CMP_LE,
                OpKind.CMP_GT,
                OpKind.CMP_GE,
                OpKind.BAND,
                OpKind.BOR,
            ]
        ),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_fold_equals_evaluate(self, op, a, b):
        dag = Dag()
        node = fold2(dag, op, dag.const(a), dag.const(b))
        expected = local_opt.evaluate_pure(op, [a, b])
        if math.isfinite(expected):
            assert node.op is OpKind.CONST
            assert node.attr == expected
