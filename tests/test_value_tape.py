"""The value path: a serial fault-free batch runs the cycle-accurate
program once, over one NumPy column per host array, instead of once per
item.

The contract: that one run decides every item.  Each item it answers is
bit-identical to its own checked cycle-accurate run, static facts
included, and each item it fails (invalid inputs, or every item when
the column run raises) ends with that checked run's exception class and
message, as an ``ItemFailure`` after one attempt and no retry.
"""

from __future__ import annotations

import ast
import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_w2, obs
from repro.analysis.local_opt import column_evaluator, pure_evaluator
from repro.errors import SimulationError
from repro.exec import BatchResult, BatchRunner, ItemFailure
from repro.faults import FaultKind, FaultSpec, InjectionPlan
from repro.ir.dag import OpKind
from repro.lang import analyze, parse_module
from repro.machine import ExecutionPlan, WarpMachine, interpret, simulate
from repro.machine import plan as plan_module
from repro.programs import colorseg, mandelbrot, matmul, polynomial

from conftest import checked_run

#: Two cells divide; the ``else`` arm makes the divide dead whenever
#: ``x <= 0`` — if-conversion still issues it, and the select discards
#: its quotient (±inf or NaN for a zero divisor).
DIVIDE = """
module divide (a in, b in, q out)
float a[4];
float b[4];
float q[4];
cellprogram (cid : 0 : 1)
begin
    float x, y, r;
    int i;
    for i := 0 to 3 do begin
        receive (L, X, x, a[i]);
        receive (L, Y, y, b[i]);
        if x > 0.0 then r := x / y; else r := -(x * y);
        send (R, X, r, q[i]);
        send (R, Y, y);
    end;
end
"""

SPECIAL = [
    0.0,
    -0.0,
    math.inf,
    -math.inf,
    math.nan,
    -math.nan,
    5e-324,
    -5e-324,
    2.2250738585072014e-309,
    1e308,
    -1e308,
    1.0,
    -2.5,
]

#: name -> (source, {array: size}).
PROGRAMS = {
    "mandelbrot": (
        mandelbrot(5, 4, 4),
        {"cx": 20, "cy": 20},
    ),
    "colorseg": (
        colorseg(5, 4, 3),
        {"u": 20, "v": 20, "refu": 3, "refv": 3, "radius": 3, "class": 3},
    ),
    "divide": (DIVIDE, {"a": 4, "b": 4}),
}

_compiled: dict[str, object] = {}


def _program(name: str):
    if name not in _compiled:
        _compiled[name] = compile_w2(PROGRAMS[name][0])
    return _compiled[name]


def _cycle_runner(program, items) -> BatchResult:
    """The per-item checked reference of a fault-free batch: each item's
    own cycle-accurate checked run, and for each item that raises, an
    ``ItemFailure`` after that one attempt (schedules are
    data-independent, so a retry would raise the same error)."""
    batch = BatchResult([], 0.0)
    for index, inputs in enumerate(items):
        try:
            batch.results.append(checked_run(program, inputs))
        except SimulationError as error:
            batch.results.append(None)
            batch.failures.append(
                ItemFailure(index, type(error).__name__, str(error), 1)
            )
    return batch


def _assert_same_outcome(program, items, assert_same_run, **kwargs):
    value = BatchRunner(program, **kwargs).run(items)
    cycle = _cycle_runner(program, items)
    assert value.failures == cycle.failures
    assert value.retries == 0
    assert value.value_items == len(items)
    for item, got, expected in zip(items, value.results, cycle.results):
        assert (got is None) == (expected is None)
        if expected is not None:
            assert_same_run(got, expected)
            assert_same_run(simulate(program, item), expected)
            recorded = simulate(program, item, record=True)
            assert recorded.record is not None
            assert_same_run(recorded, expected)


special_values = st.one_of(
    st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True)
)


@st.composite
def batches(draw, sizes: dict[str, int]):
    items = []
    for _ in range(draw(st.integers(1, 3))):
        items.append(
            {
                name: np.array(
                    draw(st.lists(special_values, min_size=n, max_size=n))
                )
                for name, n in sizes.items()
            }
        )
    if draw(st.booleans()):
        index = draw(st.integers(0, len(items) - 1))
        name = draw(st.sampled_from(sorted(sizes)))
        items[index][name] = np.append(items[index][name], 1.0)  # oversize
    return items


COLUMN_OPS = sorted(
    (op for op in OpKind if column_evaluator(op) is not None),
    key=lambda op: op.value,
)


def _assert_same_bits(got: np.ndarray, expected: np.ndarray) -> None:
    """NaN where ``expected`` is NaN; every other result bit for bit."""
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(
        got[~nan].view(np.uint64), expected[~nan].view(np.uint64)
    )


class TestBatchEvaluators:
    @pytest.mark.parametrize("op", COLUMN_OPS)
    def test_bitwise_equal_to_python_evaluator(self, op):
        """Every column evaluator gives the pure evaluator's bits on every
        combination of special values, zero divisors included, with
        literal (scalar) operands too.  A NaN result matches any NaN:
        which NaN CPython's float ops return depends on whether a tracer
        is installed, and outputs carry one quiet NaN either way."""
        fn = pure_evaluator(op)
        arity = fn.__code__.co_argcount
        combos = list(itertools.product(SPECIAL, repeat=arity))
        expected = np.array([fn(*args) for args in combos])
        columns = [np.array(column) for column in zip(*combos)]
        with np.errstate(all="ignore"):
            got = column_evaluator(op)(*columns)
            _assert_same_bits(got, expected)
            # A literal operand reaches the evaluator as a Python float.
            for literal in SPECIAL:
                rows = [k for k, args in enumerate(combos) if args[0] is literal]
                got = column_evaluator(op)(
                    literal, *[c[rows] for c in columns[1:]]
                )
                got = np.broadcast_to(got, (len(rows),))
                _assert_same_bits(got, expected[rows])


class TestSpecialValues:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_value_path_matches_cycle_path(self, assert_same_run, name, data):
        program = _program(name)
        items = data.draw(batches(PROGRAMS[name][1]))
        retries = data.draw(st.integers(0, 2))
        _assert_same_outcome(
            program, items, assert_same_run, max_retries=retries
        )

    def test_zero_divisor_bitwise_equal_on_every_path(self):
        """IEEE-754 division everywhere: x/±0 is ±inf and 0/0 NaN, with
        the same bits from the interpreter, a one-shot run and the batch,
        whether the quotient is used (live) or discarded by a select
        (dead)."""
        program = _program("divide")
        analyzed = analyze(parse_module(DIVIDE))
        ok = {"a": np.arange(1.0, 5.0), "b": np.arange(2.0, 6.0)}
        zeros = np.array([0.0, -0.0, 0.0, -0.0])
        live = {"a": np.array([1.0, 2.0, math.inf, 3.0]), "b": zeros}
        # x <= 0 in both cells: every zero divisor is discarded.
        dead = {"a": -np.ones(4), "b": np.array([1.0, -0.0, 0.0, 3.0])}
        items = [ok, live, dead]
        batched = BatchRunner(program).run(items)
        assert batched.ok and batched.value_items == 3
        for item, got in zip(items, batched.results):
            want = simulate(program, item).outputs["q"].view(np.uint64)
            reference = interpret(analyzed, item)["q"].view(np.uint64)
            assert np.array_equal(got.outputs["q"].view(np.uint64), want)
            assert np.array_equal(reference, want)
        quotients = batched.results[1].outputs["q"]
        assert np.isinf(quotients[[0, 2]]).all()
        assert np.isnan(quotients[[1, 3]]).all()
        assert np.isfinite(batched.results[2].outputs["q"]).all()

    def test_oversize_item_fails_like_cycle_path(self):
        program = _program("divide")
        ok = {"a": np.arange(1.0, 5.0), "b": np.arange(2.0, 6.0)}
        oversize = {"a": np.arange(5.0), "b": np.ones(4)}
        items = [ok, oversize, ok]
        value = BatchRunner(program, max_retries=2).run(items)
        cycle = _cycle_runner(program, items)
        assert value.failures == cycle.failures
        (failure,) = value.failures
        assert (failure.index, failure.error_type, failure.attempts) == (
            1,
            "HostDataError",
            1,
        )
        assert value.retries == 0
        assert value.results[1] is None


@pytest.fixture(scope="module")
def poly():
    return compile_w2(polynomial(12, 4))


def _items(n, seed=7):
    rng = np.random.default_rng(seed)
    return [
        {"z": rng.standard_normal(12), "c": rng.standard_normal(4)}
        for _ in range(n)
    ]


class CountingList(list):
    """A list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class TestBatchRunnerPaths:
    def test_input_sets_read_once(self, poly, assert_same_run):
        items = CountingList(_items(4))
        batched = BatchRunner(poly).run(items)
        assert items.iterations == 1
        # A one-shot iterable works too.
        again = BatchRunner(poly).run(item for item in _items(4))
        for got, expected in zip(again.results, batched.results):
            assert_same_run(got, expected)

    def test_counters_show_each_items_path(self, poly):
        """The column run decides every item, the invalid one too; no
        item runs one by one."""
        items = _items(5)
        items[2] = {"z": np.zeros(13)}  # oversize: fails validation
        with obs.collecting() as telemetry:
            batched = BatchRunner(poly).run(items)
        assert batched.value_items == 5 and batched.fallback_items == 0
        assert [f.index for f in batched.failures] == [2]
        assert telemetry.counters["exec.batch.value_items"] == 5
        assert "exec.batch.fallback_items" not in telemetry.counters

    def test_fault_injected_batch_stays_cycle_accurate(self, poly):
        plan = InjectionPlan(
            (FaultSpec(FaultKind.DROP_SEND, item=1, attempts=1),)
        )
        with obs.collecting() as telemetry:
            batched = BatchRunner(poly, faults=plan, max_retries=1).run(
                _items(3)
            )
        assert batched.ok and batched.retries == 1
        assert batched.value_items == 0
        assert telemetry.counters["exec.batch.fallback_items"] == 3
        assert "exec.batch.value_items" not in telemetry.counters

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("mode", ["serial", "faulted", "pool"])
    def test_invalid_items_fail_once_unrun(
        self, poly, monkeypatch, assert_same_run, mode
    ):
        """Oversize and unconvertible items fail validation once, with a
        ``HostDataError`` after one attempt, and never reach
        ``WarpMachine.run``, on every batch path (a pool worker forks
        with the spy in place); valid items equal one-shot runs."""
        items = _items(4)
        items[1] = {"z": np.zeros(13), "bad": True}  # oversize
        items[3] = {"c": ["abc", 1.0, 2.0, 3.0], "bad": True}
        run = WarpMachine.run

        def valid_only(machine, inputs, *args, **kwargs):
            assert "bad" not in inputs, "an invalid item was run"
            return run(machine, inputs, *args, **kwargs)

        monkeypatch.setattr(WarpMachine, "run", valid_only)
        kwargs = {
            "serial": {},
            "faulted": {"faults": InjectionPlan()},
            "pool": {"processes": 2},
        }[mode]
        batched = BatchRunner(poly, max_retries=2, **kwargs).run(items)
        failures = [
            (f.index, f.error_type, f.attempts) for f in batched.failures
        ]
        assert failures == [(1, "HostDataError", 1), (3, "HostDataError", 1)]
        assert "does not convert to float" in batched.failures[1].message
        assert batched.retries == 0
        assert batched.fallback_items == (0 if mode == "serial" else 2)
        for index in (0, 2):
            one_shot = simulate(poly, items[index])
            assert_same_run(batched.results[index], one_shot)

    @pytest.mark.timeout(120)
    @pytest.mark.parametrize("mode", ["serial", "faulted", "pool"])
    def test_complex_item_fails_validation(self, poly, assert_same_run, mode):
        """A complex item fails validation with a ``HostDataError`` that
        names its first value, on every batch path, instead of running
        on its real parts; the other items equal one-shot runs."""
        items = _items(3)
        items[1] = {"z": np.arange(12) + 2j, "c": np.ones(4)}
        kwargs = {
            "serial": {},
            "faulted": {"faults": InjectionPlan()},
            "pool": {"processes": 2},
        }[mode]
        batched = BatchRunner(poly, max_retries=2, **kwargs).run(items)
        failures = [
            (f.index, f.error_type, f.attempts) for f in batched.failures
        ]
        assert failures == [(1, "HostDataError", 1)]
        assert batched.failures[0].message == (
            "input 'z' does not convert to float: 2j"
        )
        for index in (0, 2):
            one_shot = simulate(poly, items[index])
            assert_same_run(batched.results[index], one_shot)

    def test_failing_program_is_decided_by_one_column_run(self, monkeypatch):
        """A fault-free batch of a program whose skew is one too low
        checks its timeline once and makes one checked run (on zeroed
        inputs) for the whole batch, not one per item per attempt: every
        item fails with the checked run's error after one attempt."""
        program = compile_w2(polynomial(16, 8), unroll="auto")
        program.skew = dataclasses.replace(
            program.skew, skew=program.skew.skew - 1
        )
        calls = []
        timeline, execute = ExecutionPlan.timeline, WarpMachine._execute

        def counted(name, method):
            def spy(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)

            return spy

        monkeypatch.setattr(
            ExecutionPlan, "timeline", counted("timeline", timeline)
        )
        monkeypatch.setattr(
            WarpMachine, "_execute", counted("execute", execute)
        )
        rng = np.random.default_rng(11)
        items = [
            {"z": rng.standard_normal(16), "c": rng.standard_normal(8)}
            for _ in range(1000)
        ]
        batched = BatchRunner(program, max_retries=2).run(items)
        assert calls == ["timeline", "execute"]
        with pytest.raises(SimulationError) as checked:
            checked_run(program, items[0])
        want = (type(checked.value).__name__, str(checked.value), 1)
        assert batched.results == [None] * len(items)
        assert batched.retries == 0
        assert [f.index for f in batched.failures] == list(range(len(items)))
        for failure in batched.failures:
            got = (failure.error_type, failure.message, failure.attempts)
            assert got == want

    @pytest.mark.timeout(120)
    def test_pool_batch_stays_cycle_accurate(self, poly, assert_same_run):
        items = _items(2)
        with obs.collecting() as telemetry:
            pooled = BatchRunner(poly, processes=2).run(items)
        assert pooled.value_items == 0
        assert telemetry.counters["exec.batch.fallback_items"] == 2
        for item, got in zip(items, pooled.results):
            assert_same_run(got, simulate(poly, item))

    def test_machine_run_and_simulate_do_not_record(self):
        """One-shot runs never build the column loop driver."""
        program = compile_w2(polynomial(12, 4))
        runner = BatchRunner(program)
        runner.machine.run(_items(1)[0])
        simulate(program, _items(1)[0])
        assert "value_driver" in vars(program.execution_plan)
        assert "column_driver" not in vars(program.execution_plan)

    def test_drivers_built_once_per_plan(self, monkeypatch):
        """Clean runs build only the inline float driver, once per plan,
        however many runs use it; the first fault-injected run
        builds the timed driver once, and the column driver comes only
        on first batched use."""
        built = []
        inline = plan_module.inline_driver

        def counting_inline(code, config, evaluate, timed=False):
            built.append("timed" if timed else "untimed")
            return inline(code, config, evaluate, timed)

        monkeypatch.setattr(plan_module, "inline_driver", counting_inline)
        program = compile_w2(polynomial(12, 4))
        for item in _items(3):
            simulate(program, item)
            simulate(program, item, record=True, trace_limit=2)
        assert built == ["untimed"]
        for item in _items(2):
            simulate(program, item, faults=InjectionPlan())
        assert built == ["untimed", "timed"]
        runner = BatchRunner(program)
        runner.run(_items(2))
        drive = runner.machine.plan.column_driver
        assert drive is not runner.machine.plan.value_driver
        BatchRunner(program).run(_items(2))
        assert built == ["untimed", "timed", "untimed"]
        assert runner.machine.plan.column_driver is drive

    def test_inline_driver_calls_no_block_in_a_loop(self):
        """The untimed driver pastes every block's statements into its
        loops: no block call and no register-file access in any loop,
        only the transfer and evaluator calls of the statements; the
        scalar form calls no evaluator for ``+``, ``-`` or ``*``, which
        it writes as Python operators."""
        program = compile_w2(matmul(8, 4))
        source, constants = plan_module._inline_source(
            program.cell_code, program.config.cell, pure_evaluator
        )
        loops = [
            node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.For)
        ]
        assert loops
        for loop in loops:
            for node in ast.walk(loop):
                assert not (isinstance(node, ast.Name) and node.id == "R")
                if isinstance(node, ast.Call):
                    name = ast.unparse(node.func)
                    called = r"range|zip|next|e[xy]\.(append|extend)|e\d+_\d+"
                    assert re.fullmatch(called, name), name
        assert "R[" not in source
        arithmetic = {
            pure_evaluator(op) for op in (OpKind.FADD, OpKind.FSUB, OpKind.FMUL)
        }
        assert not any(
            callable(value) and value in arithmetic for value in constants
        )
        assert " * " in source and " + " in source

    def test_timed_driver_calls_no_block_function(self):
        """The timed driver pastes every block's timed statements into
        its loops too: it calls no block function, only the transfers,
        the evaluators and the watchdog, and each block moves its
        registers through the register file ``R``."""
        program = compile_w2(matmul(8, 4))
        source, _ = plan_module._inline_source(
            program.cell_code, program.config.cell, pure_evaluator,
            timed=True,
        )
        tree = ast.parse(source)
        called = {
            node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call)
        }
        assert called, source
        allowed = r"range|d[xya]|e[xy]|e\d+_\d+|expired"
        for name in called:
            assert re.fullmatch(allowed, name), name
        assert "R[" in source
        blocks = len(list(program.cell_code.blocks()))
        assert source.count("if t > deadline: expired(t)") == blocks

    def test_unrecordable_program_runs_on_cycle_path(self):
        """A program whose column run raises (a data-independent
        failure: its skew lowered by one) fails every valid item with
        that error, as each item's own checked run does, after one
        attempt; the invalid item keeps its validation error."""
        program = compile_w2(polynomial(12, 4))
        program.skew = dataclasses.replace(
            program.skew, skew=program.skew.skew - 1
        )
        items = _items(3)
        items[1] = {"z": np.zeros(13)}  # oversize: an ItemFailure
        with obs.collecting() as telemetry:
            batched = BatchRunner(program, max_retries=1).run(items)
        assert "exec.batch.fallback_items" not in telemetry.counters
        assert batched.value_items == 3 and batched.retries == 0
        cycle = _cycle_runner(program, items)
        assert batched.failures == cycle.failures
        assert [f.error_type for f in batched.failures] == [
            "QueueUnderflowError", "HostDataError", "QueueUnderflowError",
        ]
        assert batched.results == cycle.results == [None] * 3
