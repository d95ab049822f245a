"""The value tape: serial fault-free batches replay one recorded clean
run with NumPy instead of stepping the cycle-accurate executor per item.

The contract: every item the replay answers is bit-identical to the
cycle-accurate run, static facts included, and every item it cannot
answer (invalid inputs, zero divisors) behaves exactly as it does on the
cycle path — same exception, same ``ItemFailure``, same retry count.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_w2, obs
from repro.analysis.local_opt import pure_evaluator
from repro.exec import BatchRunner
from repro.faults import FaultKind, FaultSpec, InjectionPlan
from repro.ir.dag import OpKind
from repro.machine import simulate
from repro.machine.tape import _BATCH_EVAL, ValueTape
from repro.programs import colorseg, conv1d, mandelbrot, polynomial

#: Two cells divide; the ``else`` arm makes the divide dead whenever
#: ``y <= 0`` — if-conversion still issues it, so a zero divisor raises
#: on the cycle path even though its quotient is discarded.
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
        if y > 0.0 then r := x / y; else r := -(x * y);
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


def _cycle_runner(program, **kwargs) -> BatchRunner:
    """A runner whose tape is marked unrecordable, so every item takes
    the cycle-accurate path: the reference for the value path."""
    runner = BatchRunner(program, **kwargs)
    runner.machine.plan.tape = False
    return runner


def _outcome(runner: BatchRunner, items):
    try:
        return runner.run(items)
    except Exception as error:  # noqa: BLE001 - compared, not hidden
        return error


def _assert_same_outcome(program, items, assert_same_run, **kwargs):
    value = _outcome(BatchRunner(program, **kwargs), items)
    cycle = _outcome(_cycle_runner(program, **kwargs), items)
    if isinstance(cycle, Exception):
        assert type(value) is type(cycle)
        assert str(value) == str(cycle)
        return
    assert not isinstance(value, Exception), value
    assert value.failures == cycle.failures
    assert value.retries == cycle.retries
    for got, expected in zip(value.results, cycle.results):
        assert (got is None) == (expected is None)
        if expected is not None:
            assert_same_run(got, expected)


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


class TestBatchEvaluators:
    @pytest.mark.parametrize("op", sorted(_BATCH_EVAL, key=lambda op: op.value))
    def test_bitwise_equal_to_python_evaluator(self, op):
        """Every batch evaluator gives the pure evaluator's bits on every
        combination of special values, with literal (scalar) operands
        too; only a zero divisor differs, and the replay never answers
        an item with one."""
        fn = pure_evaluator(op)
        arity = fn.__code__.co_argcount
        combos = [
            args
            for args in itertools.product(SPECIAL, repeat=arity)
            if not (op is OpKind.FDIV and args[1] == 0.0)
        ]
        expected = np.array([fn(*args) for args in combos]).view(np.uint64)
        columns = [np.array(column) for column in zip(*combos)]
        with np.errstate(all="ignore"):
            got = _BATCH_EVAL[op](*columns)
            assert np.array_equal(got.view(np.uint64), expected)
            # A literal operand reaches the evaluator as a Python float.
            for literal in SPECIAL:
                rows = [k for k, args in enumerate(combos) if args[0] is literal]
                got = _BATCH_EVAL[op](literal, *[c[rows] for c in columns[1:]])
                got = np.broadcast_to(got, (len(rows),))
                assert np.array_equal(got.view(np.uint64), expected[rows])


class TestSpecialValues:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_value_path_matches_cycle_path(self, assert_same_run, name, data):
        program = _program(name)
        items = data.draw(batches(PROGRAMS[name][1]))
        retries = data.draw(st.integers(0, 2))
        _assert_same_outcome(
            program,
            items,
            assert_same_run,
            max_retries=retries,
            retry_backoff=0,
        )

    def test_zero_divisor_raises_like_cycle_path(self):
        program = _program("divide")
        ok = {"a": np.arange(1.0, 5.0), "b": np.arange(2.0, 6.0)}
        # Item 1's zero divisor only feeds the discarded arm of a select.
        dead = {"a": np.ones(4), "b": np.array([1.0, -0.0, 2.0, 3.0])}
        with pytest.raises(ZeroDivisionError) as cycle:
            simulate(program, dead)
        with pytest.raises(ZeroDivisionError) as value:
            BatchRunner(program).run([ok, dead, ok])
        assert str(value.value) == str(cycle.value)

    def test_oversize_item_fails_like_cycle_path(self):
        program = _program("divide")
        ok = {"a": np.arange(1.0, 5.0), "b": np.arange(2.0, 6.0)}
        oversize = {"a": np.arange(5.0), "b": np.ones(4)}
        items = [ok, oversize, ok]
        value = BatchRunner(program, max_retries=2, retry_backoff=0).run(items)
        cycle = _cycle_runner(program, max_retries=2, retry_backoff=0).run(items)
        assert value.failures == cycle.failures
        (failure,) = value.failures
        assert (failure.index, failure.error_type, failure.attempts) == (
            1,
            "HostDataError",
            3,
        )
        assert value.retries == cycle.retries == 2
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
        items = _items(5)
        items[2] = {"z": np.zeros(13)}  # oversize: the cycle path fails it
        with obs.collecting() as telemetry:
            batched = BatchRunner(poly).run(items)
        assert batched.value_items == 4
        assert telemetry.counters["exec.batch.value_items"] == 4
        assert telemetry.counters["exec.batch.fallback_items"] == 1

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
    def test_pool_batch_stays_cycle_accurate(self, poly, assert_same_run):
        items = _items(2)
        with obs.collecting() as telemetry:
            pooled = BatchRunner(poly, processes=2).run(items)
        assert pooled.value_items == 0
        assert telemetry.counters["exec.batch.fallback_items"] == 2
        for item, got in zip(items, pooled.results):
            assert_same_run(got, simulate(poly, item))

    def test_machine_run_and_simulate_do_not_record(self, poly):
        runner = BatchRunner(poly)
        runner.machine.run(_items(1)[0])
        simulate(poly, _items(1)[0])
        assert runner.machine.plan.tape is None

    def test_tape_recorded_once_per_plan(self, poly):
        runner = BatchRunner(poly)
        runner.run(_items(2))
        tape = runner.machine.plan.tape
        assert isinstance(tape, ValueTape) and tape.n_ops > 0
        runner.run(_items(2))
        assert runner.machine.value_tape() is tape

    def test_unrecordable_program_runs_on_cycle_path(
        self, poly, monkeypatch, assert_same_run
    ):
        def fail(machine):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setattr(ValueTape, "record", fail)
        items = _items(3)
        with obs.collecting() as telemetry:
            batched = BatchRunner(poly).run(items)
        assert telemetry.counters["exec.batch.fallback_items"] == 3
        for item, got in zip(items, batched.results):
            assert_same_run(got, simulate(poly, item))


class TestTapeShape:
    def test_values_released_after_last_use(self):
        """Every value the outputs do not need is released exactly once,
        at its last use, so replay memory follows the live values."""
        program = compile_w2(conv1d(32, 9), unroll="auto")
        tape = BatchRunner(program).machine.value_tape()
        last_use: dict[int, int] = {}
        for step, (_fn, dest, sources, _frees) in enumerate(tape.steps):
            last_use[dest] = step
            for slot in sources:
                last_use[slot] = step
        outputs = {slot for slots in tape._outputs.values() for slot in slots}
        released: set[int] = set()
        live: set[int] = set()
        peak = 0
        for step, (_fn, dest, _sources, frees) in enumerate(tape.steps):
            live.add(dest)
            peak = max(peak, len(live))
            for slot in frees:
                assert slot not in released and slot not in outputs
                assert last_use[slot] == step
                released.add(slot)
                live.discard(slot)
        assert released == set(last_use) - outputs
        assert peak < tape.n_ops // 2
