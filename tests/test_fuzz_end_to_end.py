"""Property-based end-to-end fuzzing.

Random (but well-formed, conservation-respecting) W2 pipeline programs
are compiled, run on the cycle-level simulator, and checked against the
independent AST interpreter.  Any disagreement exposes a bug in one of:
if-conversion, scheduling, register allocation, skew analysis, IU/host
code generation or the simulator itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_w2
from repro.exec import BatchRunner
from repro.lang import analyze, parse_module
from repro.machine import interpret, simulate

from conftest import checked_run

VARS = ["v0", "v1", "v2", "v3"]


@st.composite
def expressions(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            return draw(st.sampled_from(VARS))
        if choice == 1:
            return repr(float(draw(st.integers(-3, 3))))
        return "v0"
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(expressions(depth=depth + 1))
    right = draw(expressions(depth=depth + 1))
    return f"({left} {op} {right})"


@st.composite
def statements(draw, depth=0):
    kind = draw(st.integers(0, 3 if depth == 0 else 2))
    target = draw(st.sampled_from(VARS[1:]))  # keep v0 = the input
    if kind in (0, 1, 2):
        return f"{target} := {draw(expressions())};"
    condition = (
        f"{draw(st.sampled_from(VARS))} "
        f"{draw(st.sampled_from(['<', '<=', '>', '>=']))} "
        f"{repr(float(draw(st.integers(-2, 2))))}"
    )
    then_stmt = f"{target} := {draw(expressions())};"
    if draw(st.booleans()):
        other = draw(st.sampled_from(VARS[1:]))
        return (
            f"if {condition} then {then_stmt} "
            f"else {other} := {draw(expressions())};"
        )
    return f"if {condition} then {then_stmt}"


@st.composite
def pipeline_programs(draw):
    n_cells = draw(st.integers(1, 3))
    n_points = draw(st.integers(1, 6))
    body = [draw(statements()) for _ in range(draw(st.integers(1, 5)))]
    # The Y stream: absent, read, or a dead receive (a value no one
    # reads, which must still hold its register until it lands).
    y_lines = draw(
        st.sampled_from(
            [
                [],
                ["receive (L, Y, v1, 0.0);", "send (R, Y, v1 + v2);"],
                ["receive (L, Y, d, 0.0);", "send (R, Y, v1);"],
            ]
        )
    )
    body_text = "\n".join(f"        {line}" for line in body)
    source = f"""
module fuzz (a in, b out)
float a[{n_points}];
float b[{n_points}];
cellprogram (cid : 0 : {n_cells - 1})
begin
    float v0, v1, v2, v3, d;
    int i;
    v1 := 0.0;
    v2 := 0.0;
    v3 := 0.0;
    for i := 0 to {n_points - 1} do begin
        receive (L, X, v0, a[i]);
{chr(10).join(f"        {line}" for line in y_lines)}
{body_text}
        send (R, X, v0 + v1 + v2 + v3, b[i]);
    end;
end
"""
    return source, n_points


class TestFuzzedPipelines:
    @given(pipeline_programs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_simulator_matches_interpreter(
        self, assert_same_run, assert_same_metrics, case, seed
    ):
        source, n_points = case
        rng = np.random.default_rng(seed)
        inputs = {"a": rng.uniform(-2, 2, n_points)}
        analyzed = analyze(parse_module(source))
        expected = interpret(analyzed, inputs)
        program = compile_w2(source)
        result = simulate(program, inputs)
        assert np.allclose(
            result.outputs["b"], expected["b"], rtol=1e-9, atol=1e-9
        ), source
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
        items = [inputs, {"a": rng.uniform(-2, 2, n_points)}]
        batched = BatchRunner(program).run(items)
        assert batched.value_items == len(items), source
        for item, got in zip(items, batched.results):
            assert_same_run(got, checked_run(program, item), source)

    @given(pipeline_programs())
    @settings(max_examples=30, deadline=None)
    def test_skew_and_buffers_are_consistent(self, case):
        source, n_points = case
        program = compile_w2(source)
        inputs = {"a": np.linspace(-1, 1, n_points)}
        result = simulate(program, inputs)
        for requirement in program.buffers:
            suffix = f".{requirement.channel.value}"
            observed = max(
                (
                    queue.high_water
                    for k, queue in result.machine_metrics.queues.items()
                    if k.endswith(suffix) and not k.startswith("link0.")
                ),
                default=0,
            )
            assert observed <= requirement.required

    @pytest.mark.timeout(300)
    @given(pipeline_programs(), st.integers(0, 2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_batch_pool_matches_one_shot(self, case, seed):
        """Generated programs through the batch engine: serial and
        2-process pool results are bit-identical, item for item, to
        one-shot simulation."""
        source, n_points = case
        rng = np.random.default_rng(seed)
        items = [
            {"a": rng.uniform(-2, 2, n_points)} for _ in range(3)
        ]
        program = compile_w2(source)
        one_shot = [simulate(program, inputs) for inputs in items]
        serial = BatchRunner(program).run(items)
        pooled = BatchRunner(program, processes=2).run(items)
        assert serial.ok and pooled.ok
        for expected, from_serial, from_pool in zip(
            one_shot, serial.results, pooled.results
        ):
            assert np.array_equal(
                from_serial.outputs["b"], expected.outputs["b"]
            ), source
            assert np.array_equal(
                from_pool.outputs["b"], expected.outputs["b"]
            ), source
