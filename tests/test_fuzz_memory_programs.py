"""Property-based fuzzing of the memory/IU path.

Random W2 programs with cell-local arrays (affine subscripts over one or
two loop levels) are compiled and simulated against the reference
interpreter.  This drives the parts the scalar fuzzer cannot reach:
store-to-load forwarding, dependence-pruned memory ordering, IU address
generation, strength reduction, and the address-queue timing across
skewed cells.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_w2
from repro.exec import BatchRunner
from repro.iucodegen import lower_iu_program
from repro.lang import analyze, parse_module
from repro.machine import interpret, simulate
from repro.machine.iu_machine import run_iu_program

from conftest import checked_run


@st.composite
def memory_programs(draw):
    """A two-phase program: scatter the input into a cell array with a
    random affine pattern, then gather with another pattern."""
    n = draw(st.integers(2, 8))
    n_cells = draw(st.integers(1, 2))
    size = 4 * n  # roomy enough for any pattern below
    scatter_scale = draw(st.integers(1, 3))
    scatter_offset = draw(st.integers(0, 3))
    gather_scale = draw(st.integers(1, 3))
    gather_offset = draw(st.integers(0, 3))
    reverse = draw(st.booleans())
    gather_var = f"{n - 1} - i" if reverse else "i"
    extra_store = draw(st.booleans())
    extra = (
        f"w[{scatter_scale}*i + {scatter_offset + 1}] := t * 0.5;"
        if extra_store and scatter_scale >= 2
        else ""
    )
    source = f"""
module fuzzmem (a in, b out)
float a[{n}];
float b[{n}];
cellprogram (cid : 0 : {n_cells - 1})
begin
    float t, w[{size}];
    int i;
    for i := 0 to {size - 1} do
        w[i] := 0.0;
    for i := 0 to {n - 1} do begin
        receive (L, X, t, a[i]);
        w[{scatter_scale}*i + {scatter_offset}] := t;
        {extra}
        send (R, X, t);
    end;
    for i := 0 to {n - 1} do begin
        receive (L, Y, t, 0.0);
        send (R, Y, t + w[{gather_scale}*({gather_var}) + {gather_offset}], b[i]);
    end;
end
"""
    return source, n


class TestMemoryFuzz:
    @given(memory_programs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_simulator_matches_interpreter(
        self, assert_same_run, assert_same_metrics, case, seed
    ):
        source, n = case
        rng = np.random.default_rng(seed)
        inputs = {"a": rng.uniform(-3, 3, n)}
        expected = interpret(analyze(parse_module(source)), inputs)
        program = compile_w2(source)
        result = simulate(program, inputs)
        assert np.allclose(result.outputs["b"], expected["b"]), source
        # The value path, one-shot, recorded and batched, agrees with
        # the checked cycle executor bit for bit, block spans included.
        reference = checked_run(program, inputs)
        assert_same_run(result, reference, source)
        # The plan's static timeline gives the checked run's metrics.
        facts = program.execution_plan.facts
        assert_same_metrics(facts, reference.machine_metrics, source)
        recorded = simulate(program, inputs, record=True)
        assert recorded.record is not None, source
        assert_same_run(recorded, reference, source)
        items = [inputs, {"a": rng.uniform(-3, 3, n)}]
        batched = BatchRunner(program).run(items)
        assert batched.value_items == len(items), source
        for item, got in zip(items, batched.results):
            assert_same_run(got, checked_run(program, item), source)

    @given(memory_programs())
    @settings(max_examples=30, deadline=None)
    def test_iu_machine_matches_plan(self, case):
        source, _n = case
        program = compile_w2(source)
        lowered = lower_iu_program(program.iu_program)
        expected = [
            address for _, _, address in program.iu_program.emission_times()
        ]
        assert run_iu_program(lowered) == expected

    @given(memory_programs(), st.sampled_from([2, 4]))
    @settings(max_examples=25, deadline=None)
    def test_unrolled_variant_agrees(self, case, unroll):
        source, n = case
        rng = np.random.default_rng(n)
        inputs = {"a": rng.uniform(-3, 3, n)}
        baseline = simulate(compile_w2(source), inputs)
        unrolled = simulate(compile_w2(source, unroll=unroll), inputs)
        assert np.allclose(unrolled.outputs["b"], baseline.outputs["b"])
