"""The untimed driver's two read forms.

A loop whose body is one block takes each trip's words from every input
it reads at least ``GROUPED_READS`` words from per entry in its header
(``for _, wdx, (v1, v3) in zip(range(30), zip(*(dx,) * 8), ...)``) and
sends a read tuple it forwards whole (``ex.extend(wdx)``); every other
read is by ``next`` at its block's start.  A one-trip loop is its body,
pasted in place.  Either form, forced on every loop, gives the checked
path's bits.
"""

from __future__ import annotations

import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_w2
from repro.analysis.local_opt import pure_evaluator
from repro.exec import BatchRunner
from repro.machine import plan as plan_module, simulate
from repro.programs import colorseg, fir_bank, matmul, polynomial

import test_nan_rule
from conftest import checked_run
from test_fuzz_end_to_end import pipeline_programs
from test_fuzz_memory_programs import memory_programs

#: One cell pair; each of 20 trips reads three words from X, which it
#: forwards, and one from Y: 60 words an entry from X, 20 from Y.
MIXED = """
module mix (a in, b in, s out)
float a[60];
float b[20];
float s[20];
cellprogram (cid : 0 : 1)
begin
    float x, y, z, w;
    int i;
    for i := 0 to 19 do begin
        receive (L, X, x, a[3*i]);
        receive (L, X, y, a[3*i+1]);
        receive (L, X, z, a[3*i+2]);
        receive (L, Y, w, b[i]);
        send (R, X, x);
        send (R, X, y);
        send (R, X, z);
        send (R, Y, x * y + z * w, s[i]);
    end;
end
"""

#: More words than any loop here reads per entry: every block reads by
#: ``next``.
NEVER = 10**9

#: The two thresholds that force one read form on every loop: grouped
#: wherever the body is one block that reads, and never.
FORMS = [0, NEVER]


def driver_source(program, timed: bool = False) -> str:
    return plan_module._inline_source(
        program.cell_code, program.config.cell, pure_evaluator, timed
    )[0]


def loop_headers(source: str) -> list[str]:
    return [
        line.strip() for line in source.splitlines()
        if line.lstrip().startswith("for ")
    ]


def forced(source: str, threshold: int, unroll=1):
    """``source`` compiled, its untimed drivers built while
    ``GROUPED_READS`` is ``threshold``."""
    with mock.patch.object(plan_module, "GROUPED_READS", threshold):
        program = compile_w2(source, unroll=unroll)
        plan = program.execution_plan
        plan.value_driver, plan.column_driver
    return program


def assert_bit_equal(got, want, context) -> None:
    assert set(got) == set(want), context
    for name, data in want.items():
        assert np.array_equal(
            got[name].view(np.uint64), data.view(np.uint64)
        ), f"{context}:{name}"


def check_against_checked_path(program, items, context) -> None:
    """One ``simulate`` call and one serial batch over NumPy columns, each
    item bit for bit equal to its checked cycle-accurate run."""
    want = [checked_run(program, item).outputs for item in items]
    assert_bit_equal(simulate(program, items[0]).outputs, want[0], context)
    batch = BatchRunner(program).run(items)
    assert batch.ok and batch.value_items == len(items), context
    for result, outputs in zip(batch.results, want):
        assert_bit_equal(result.outputs, outputs, context)


class TestSelection:
    """Which loops take which form, at the default threshold."""

    def test_one_trip_loop_is_pasted(self):
        program = compile_w2(polynomial(240, 8), unroll=8)
        assert "range(1)" not in driver_source(program)
        assert "range(1)" not in driver_source(program, timed=True)

    def test_long_loops_read_each_trip_in_their_header(self):
        source = driver_source(compile_w2(polynomial(240, 8), unroll=8))
        [header] = loop_headers(source)
        assert header.startswith("for _, wdx, (v1, v3, ")
        assert header.endswith(
            " in zip(range(30), zip(*(dx,) * 8), zip(*(dy,) * 8)):"
        )
        assert "ex.extend(wdx)" in source
        assert "next(" not in source.split(header)[1]
        source = driver_source(compile_w2(colorseg(10, 6, 10), unroll=4))
        [header] = [h for h in loop_headers(source) if "zip(" in h]
        assert header.startswith("for _, (v0, v2, ")
        assert header.endswith(
            ", wdy in zip(range(15), zip(*(dx,) * 8), zip(*(dy,) * 4)):"
        )
        assert "ey.extend(wdy)" in source

    @pytest.mark.parametrize(
        "source, trips",
        [(matmul(8, 4), {8}), (fir_bank(64, 10, 8), {7, 8})],
        ids=["matmul", "fir_bank"],
    )
    def test_short_loops_keep_next(self, source, trips):
        text = driver_source(compile_w2(source))
        assert "zip(" not in text and "next(" in text
        for trip in trips:
            assert f"for _ in range({trip}):" in text

    def test_a_short_input_stays_on_next_beside_the_header(self, rng):
        program = compile_w2(MIXED)
        source = driver_source(program)
        [header] = loop_headers(source)
        assert header == "for _, wdx in zip(range(20), zip(*(dx,) * 3)):"
        body = source.split(header)[1]
        assert "next(dy)" in body and "ex.extend(wdx)" in body
        items = [
            {"a": rng.standard_normal(60), "b": rng.standard_normal(20)}
            for _ in range(3)
        ]
        check_against_checked_path(program, items, "mixed")

    def test_the_threshold_selects_the_form(self):
        program = compile_w2(polynomial(24, 4))
        with mock.patch.object(plan_module, "GROUPED_READS", 0):
            grouped = driver_source(program)
        assert "zip(" in grouped and "next(" not in grouped.split("for ")[1]
        with mock.patch.object(plan_module, "GROUPED_READS", NEVER):
            assert "zip(" not in driver_source(program)


@pytest.mark.parametrize("threshold", FORMS, ids=["grouped", "next"])
class TestEitherFormIsBitEqual:
    """Value and column paths against the checked path, either form
    forced on every loop."""

    def test_differential_sweep(self, threshold, program_suite, rng):
        for unroll in (1, 4):
            for name, source, inputs, _ref in program_suite:
                program = forced(source, threshold, unroll)
                items = [inputs] + [
                    {
                        array: rng.standard_normal(values.shape)
                        for array, values in inputs.items()
                    }
                    for _ in range(2)
                ]
                check_against_checked_path(program, items, f"{name}@{unroll}")

    @given(
        st.one_of(pipeline_programs(), memory_programs()),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_fuzzed_programs(self, threshold, case, seed):
        source, n = case
        rng = np.random.default_rng(seed)
        items = [{"a": rng.uniform(-2, 2, n)} for _ in range(2)]
        check_against_checked_path(forced(source, threshold), items, source)

    @given(test_nan_rule.TWO_NAN_ITEMS)
    @settings(max_examples=15, deadline=None)
    def test_two_nans(self, threshold, items):
        test_nan_rule.check_two_nans(items, _two_nans(threshold))


@functools.cache
def _two_nans(threshold: int):
    return forced(test_nan_rule.TWO_NANS, threshold)
