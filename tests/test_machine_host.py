"""Unit tests for the host feeder/collector and HostMemory."""

import numpy as np
import pytest

from repro.compiler import compile_w2
from repro.errors import HostDataError
from repro.hostcodegen import generate_host_program
from repro.lang import Channel
from repro.machine import TimedQueue
from repro.machine.host import (
    Collection,
    HostMemory,
    collect_outputs,
    feed_input_queues,
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
