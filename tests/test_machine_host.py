"""Unit tests for the host feeder/collector and HostMemory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.compiler import compile_w2
from repro.errors import HostDataError
from repro.hostcodegen import HostLayout, generate_host_program
from repro.lang import Channel
from repro.machine import TimedQueue
from repro.machine.host import (
    Collection,
    HostMemory,
    collect_outputs,
    feed_input_queues,
    load_inputs,
)
from repro.machine.plan import ExecutionPlan
from repro.programs import polynomial


class TestHostMemory:
    def test_inputs_padded_to_declared_size(self):
        memory = HostMemory.from_inputs(
            {"a": (10,)}, {"a": np.array([1.0, 2.0])}
        )
        assert memory.arrays["a"].size == 10
        assert list(memory.arrays["a"][:3]) == [1.0, 2.0, 0.0]

    def test_oversized_input_rejected(self):
        with pytest.raises(HostDataError, match="declares"):
            HostMemory.from_inputs({"a": (2,)}, {"a": np.zeros(3)})

    def test_missing_inputs_zeroed(self):
        memory = HostMemory.from_inputs({"a": (4,), "b": (2,)}, {})
        assert np.all(memory.arrays["a"] == 0)
        assert np.all(memory.arrays["b"] == 0)

    def test_multidim_flattened(self):
        data = np.arange(6.0).reshape(2, 3)
        memory = HostMemory.from_inputs({"m": (2, 3)}, {"m": data})
        assert list(memory.arrays["m"]) == list(range(6))

    def test_scalar_declaration(self):
        memory = HostMemory.from_inputs({"s": ()}, {"s": np.array([7.0])})
        assert memory.arrays["s"].size == 1


def channels(value):
    return {Channel.X: value, Channel.Y: value}


class TestFeeder:
    @pytest.fixture()
    def program(self):
        return compile_w2(polynomial(6, 3))

    def test_one_word_per_cycle(self, program):
        memory = HostMemory.from_inputs(
            program.host_program.layout,
            {"z": np.arange(6.0), "c": np.arange(3.0)},
        )
        plan = ExecutionPlan(program)
        queues = feed_input_queues(plan.feed, memory, channels(None))
        # Item k enters at cycle k (host bandwidth budget).
        assert list(queues[Channel.X].send_times) == list(range(9))
        # First three X items are the coefficients.
        assert queues[Channel.X].values[:3] == [0.0, 1.0, 2.0]
        assert all(type(v) is float for v in queues[Channel.X].values)

    def test_literals_fed_directly(self, program):
        memory = HostMemory.from_inputs(program.host_program.layout, {})
        plan = ExecutionPlan(program)
        queues = feed_input_queues(plan.feed, memory, channels(None))
        assert all(v == 0.0 for v in queues[Channel.Y].values)


class TestCollector:
    def test_count_mismatch_detected(self):
        program = compile_w2(polynomial(6, 3))
        memory = HostMemory.from_inputs(program.host_program.layout, {})
        plan = ExecutionPlan(program)
        queues = {Channel.X: TimedQueue("x"), Channel.Y: TimedQueue("y")}
        queues[Channel.Y].enqueue(0, 1.0)  # only one item; expects 6
        with pytest.raises(HostDataError, match="expects"):
            collect_outputs(plan.collection, memory, queues)

    def test_discards_skipped(self):
        program = compile_w2(polynomial(6, 3))
        memory = HostMemory.from_inputs(program.host_program.layout, {})
        plan = ExecutionPlan(program)
        queues = {Channel.X: TimedQueue("x"), Channel.Y: TimedQueue("y")}
        host = program.host_program
        for k in range(host.output_count(Channel.X)):
            queues[Channel.X].enqueue(k, 99.0)
        for k in range(host.output_count(Channel.Y)):
            queues[Channel.Y].enqueue(k, float(k))
        collect_outputs(plan.collection, memory, queues)
        # X outputs are all discards; results took the Y values.
        assert list(memory.arrays["results"]) == [float(k) for k in range(6)]
        assert not np.any(memory.buffer == 99.0)

    def test_last_write_wins(self):
        """A host word bound twice keeps the later word, as a word-by-word
        store would."""
        collection = Collection.of(np.array([3, 1, 3, 9, 1]), discard=9)
        assert collection.words == 5
        memory = HostMemory(np.zeros(10), {})
        queue = TimedQueue("y")
        for k, value in enumerate([10.0, 11.0, 12.0, 13.0, 14.0]):
            queue.enqueue(k, value)
        collect_outputs({Channel.Y: collection}, memory, {Channel.Y: queue})
        assert memory.buffer[3] == 12.0 and memory.buffer[1] == 14.0
        assert memory.buffer[9] == 0.0  # the discard was dropped

    def test_column_run_mixes_floats_and_rows(self):
        """In a run over columns a word may be a Python float beside
        NumPy rows; both land bit-identically in every item's column."""
        collection = Collection.of(np.array([0, 1]), discard=2)
        memory = HostMemory(np.zeros((3, 2)), {})
        queue = TimedQueue("y")
        queue.enqueue(0, -0.0)
        queue.enqueue(1, np.array([1.5, np.nan]))
        collect_outputs({Channel.Y: collection}, memory, {Channel.Y: queue})
        bits = memory.buffer.view(np.uint64)
        assert bits[0].tolist() == [np.float64(-0.0).view(np.uint64)] * 2
        assert bits[1, 1] == np.float64(np.nan).view(np.uint64)
        assert memory.buffer[1, 0] == 1.5


def _per_item_load(layout, input_sets):
    """The per-item loop :func:`load_inputs` ran before it loaded each
    name in one NumPy pass: the oracle for the batched load."""
    buffer = np.zeros((layout.words, len(input_sets)))
    buffer[layout.literal_base : layout.discard] = np.reshape(
        layout.literals, (-1, 1)
    )
    memory = HostMemory.over(layout, buffer)
    failed = {}
    for item, inputs in enumerate(input_sets):
        try:
            for name, column in memory.arrays.items():
                if name not in inputs:
                    continue
                try:
                    data = np.asarray(inputs[name], dtype=np.float64).ravel()
                except (TypeError, ValueError, OverflowError) as error:
                    raise HostDataError(
                        f"input {name!r} does not convert to float: {error}"
                    ) from None
                if data.size > len(column):
                    raise HostDataError(
                        f"input {name!r} has {data.size} elements; the "
                        f"module declares {len(column)}"
                    )
                column[: data.size, item] = data
        except HostDataError as error:
            failed[item] = error
    return memory, failed


#: Host arrays of every rank; ``never`` is given by no item.
_LAYOUT = HostLayout(
    {"a": (6,), "m": (2, 3), "s": (), "never": (3,), "b": (4,)},
    literals=(1.5, -0.0),
)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True, width=64)
#: The shapes one name's items share: exact, short (zero-padded),
#: oversize, 2-D, 0-d and empty.
_SHAPES = [(6,), (4,), (3,), (8,), (2, 3), (3, 2), (1, 6), (), (0,), (1,)]


def _values(shape):
    return arrays(np.float64, shape, elements=_FLOATS)


#: An item's value that breaks from its name's shared shape: another
#: shape (including an equal size in a different shape), a Python
#: scalar or list, or something that does not convert.
_ODD = st.one_of(
    st.sampled_from(_SHAPES).flatmap(_values),
    _FLOATS,
    st.lists(_FLOATS, max_size=7),
    st.lists(st.integers(-5, 5), min_size=1, max_size=3),
    st.sampled_from([None, "abc", "2.5", [[1.0, 2.0], [3.0]], [None]]),
)


@st.composite
def _batches(draw):
    """A batch mixing well-formed items with short, oversize, missing,
    ragged and unconvertible ones."""
    items = [{} for _ in range(draw(st.integers(0, 6)))]
    for name in ("a", "m", "s", "b"):
        shape = draw(st.sampled_from(_SHAPES))
        for inputs in items:
            kind = draw(st.sampled_from(["shared"] * 4 + ["missing", "odd"]))
            if kind == "shared":
                inputs[name] = draw(_values(shape))
            elif kind == "odd":
                inputs[name] = draw(_ODD)
    return items


@settings(max_examples=300, deadline=None)
@given(_batches())
def test_load_inputs_matches_per_item_loop(input_sets):
    """Every valid item's column is bit-identical to the per-item loop's,
    and every bad item fails with that loop's error."""
    memory, failed = load_inputs(_LAYOUT, input_sets)
    want, want_failed = _per_item_load(_LAYOUT, input_sets)
    assert sorted(failed) == sorted(want_failed)
    for item, error in want_failed.items():
        assert type(failed[item]) is type(error)
        assert str(failed[item]) == str(error)
    valid = [item for item in range(len(input_sets)) if item not in failed]
    got = memory.buffer[:, valid].view(np.uint64)
    assert np.array_equal(got, want.buffer[:, valid].view(np.uint64))
