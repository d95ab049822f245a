"""Tests for the machine simulator internals: queues, cell execution,
and the violation detectors."""

import numpy as np
import pytest

from repro.compiler import compile_w2
from repro.config import CellConfig, WarpConfig
from repro.errors import (
    HostDataError,
    QueueCapacityError,
    QueueUnderflowError,
)
from repro.machine import TimedQueue, simulate
from repro.machine.queue import audit
from repro.machine.trace import format_two_cell_trace
from repro.obs import queue_metrics
from repro.programs import passthrough, polynomial


class TestTimedQueue:
    def test_fifo_order(self):
        q = TimedQueue("q")
        q.enqueue(0, 1.0)
        q.enqueue(1, 2.0)
        assert q.dequeue(5) == 1.0
        assert q.dequeue(5) == 2.0

    def test_same_cycle_transfer_allowed(self):
        q = TimedQueue("q")
        q.enqueue(3, 7.0)
        assert q.dequeue(3) == 7.0

    def test_underflow_on_early_dequeue(self):
        q = TimedQueue("q")
        q.enqueue(5, 1.0)
        with pytest.raises(QueueUnderflowError):
            q.dequeue(4)

    def test_underflow_on_empty(self):
        q = TimedQueue("q")
        with pytest.raises(QueueUnderflowError):
            q.dequeue(0)

    def test_nonmonotonic_enqueue_rejected(self):
        q = TimedQueue("q")
        q.enqueue(5, 1.0)
        with pytest.raises(ValueError):
            q.enqueue(4, 2.0)

    def test_capacity_audit(self):
        q = TimedQueue("q", capacity=2)
        for t in range(3):
            q.enqueue(t, float(t))
        for _ in range(3):
            q.dequeue(10)
        with pytest.raises(QueueCapacityError):
            audit(queue_metrics([q.times()])[0][0])

    def test_occupancy_value(self):
        q = TimedQueue("q", capacity=8)
        q.enqueue(0, 1.0)
        q.enqueue(1, 2.0)
        q.dequeue(1)
        q.dequeue(2)
        assert audit(queue_metrics([q.times()])[0][0]).high_water == 2


class TestSimulationChecks:
    def test_skew_too_small_underflows(self):
        """Forcing a smaller skew than computed must trip the underflow
        detector — this is the minimality of the skew, observed at run
        time."""
        program = compile_w2(polynomial(8, 3))
        assert program.skew.skew > 1
        object.__setattr__(program.skew, "skew", program.skew.skew - 1)
        rng = np.random.default_rng(0)
        with pytest.raises(QueueUnderflowError):
            simulate(
                program,
                {"z": rng.standard_normal(8), "c": rng.standard_normal(3)},
            )

    def test_input_too_large_rejected(self):
        program = compile_w2(passthrough(4, 2))
        with pytest.raises(HostDataError):
            simulate(program, {"din": np.zeros(9)})

    def test_missing_input_defaults_to_zero(self):
        program = compile_w2(passthrough(4, 2))
        result = simulate(program, {})
        assert np.all(result.outputs["dout"] == 0.0)

    def test_short_input_zero_padded(self):
        program = compile_w2(passthrough(4, 2))
        result = simulate(program, {"din": np.array([1.0, 2.0])})
        assert list(result.outputs["dout"]) == [1.0, 2.0, 0.0, 0.0]


class TestStatsAndTrace:
    def test_cell_start_times_follow_skew(self):
        program = compile_w2(polynomial(8, 4))
        rng = np.random.default_rng(1)
        result = simulate(
            program,
            {"z": rng.standard_normal(8), "c": rng.standard_normal(4)},
        )
        starts = [c.start_cycle for c in result.machine_metrics.cells]
        skew = program.skew.skew
        assert starts == [i * skew for i in range(4)]

    def test_op_counts(self):
        program = compile_w2(polynomial(8, 4))
        rng = np.random.default_rng(1)
        result = simulate(
            program,
            {"z": rng.standard_normal(8), "c": rng.standard_normal(4)},
        )
        stats = result.machine_metrics.cells[0]
        # Horner: one multiply and one add per data point.
        assert stats.mpy_ops == 8
        assert stats.alu_ops == 8
        assert stats.receives == 4 + 16  # coefficients + (z, y) pairs
        assert stats.sends == 4 + 16

    def test_trace_rendering(self):
        program = compile_w2(polynomial(8, 4))
        rng = np.random.default_rng(1)
        result = simulate(
            program,
            {"z": rng.standard_normal(8), "c": rng.standard_normal(4)},
            trace_limit=40,
        )
        text = format_two_cell_trace(result.trace)
        assert "Cell 0" in text and "receive" in text and "send" in text

    def test_queue_high_water_within_analysis(self):
        """Observed peak occupancy must match the compile-time buffer
        requirement exactly (same definition, two implementations)."""
        program = compile_w2(polynomial(8, 4))
        rng = np.random.default_rng(1)
        result = simulate(
            program,
            {"z": rng.standard_normal(8), "c": rng.standard_normal(4)},
        )
        analysis = {str(b.channel): b.required for b in program.buffers}
        # The flow-controlled host boundary (link0) has no requirement.
        observed_x = max(
            queue.high_water
            for name, queue in result.machine_metrics.queues.items()
            if name.endswith(".X") and not name.startswith("link0.")
        )
        assert observed_x == analysis["X"]
