"""Tests for static performance prediction and auto-unroll selection.

The central claim: because schedules are fully static, compile-time
predictions of cycles and operation counts must match the simulator
*exactly* — not approximately.  Clean runs take their timing from the
plan's static timeline, which reads the same loop tree as the
prediction, so the measurements here come from the checked
cycle-accurate run (``conftest.checked_run``)."""

import itertools

import numpy as np
import pytest

from repro.cellcodegen.emit import OpCounts
from repro.compiler import (
    compile_w2,
    format_performance,
    predict_performance,
)
from repro.lang import Channel, analyze, parse_module
from repro.machine import interpret, simulate
from repro.programs import conv2d, matmul, polynomial

from conftest import checked_run


class TestPredictionExactness:
    def test_every_program(self, program_suite):
        for (name, source, inputs, _), unroll in itertools.product(
            program_suite, (1, 2, 4, "auto")
        ):
            case = (name, unroll)
            program = compile_w2(source, unroll=unroll)
            prediction = predict_performance(program)
            result = checked_run(program, inputs)
            assert prediction.total_cycles == result.total_cycles, case
            stats = result.machine_metrics.cells[0]
            assert prediction.alu_ops == stats.alu_ops, case
            assert prediction.mpy_ops == stats.mpy_ops, case
            assert prediction.mem_reads == stats.mem_reads, case
            assert prediction.mem_writes == stats.mem_writes, case
            assert prediction.receives == stats.receives, case
            assert prediction.sends == stats.sends, case
            # Cell counts are static by construction; the queues count
            # the words each link really carried.  Cell i receives from
            # link i, and inner link i carries cell i-1's sends.
            counts = OpCounts.of_run(program.cell_code)
            assert sum(counts.sends.values()) == prediction.sends, case
            assert sum(counts.receives.values()) == prediction.receives, case
            queues = result.machine_metrics.queues
            for cell, channel in itertools.product(
                range(program.n_cells), Channel
            ):
                link = queues[f"link{cell}.{channel.value}"]
                assert link.items_received == counts.receives[channel], case
                if cell > 0:
                    assert link.items_sent == counts.sends[channel], case

    def test_prediction_under_unrolling(self):
        rng = np.random.default_rng(0)
        inputs = {"z": rng.uniform(-1, 1, 48), "c": rng.standard_normal(4)}
        for unroll in (1, 4):
            program = compile_w2(polynomial(48, 4), unroll=unroll)
            prediction = predict_performance(program)
            result = checked_run(program, inputs)
            assert prediction.total_cycles == result.total_cycles
            # Dynamic FP work is invariant under unrolling.
            assert prediction.fp_ops_per_cell == 96

    def test_peak_fraction_bounded(self):
        program = compile_w2(matmul(8, 4), unroll=4)
        prediction = predict_performance(program)
        assert 0.0 < prediction.peak_fraction <= 1.0

    def test_formatting(self):
        program = compile_w2(polynomial(12, 3))
        text = format_performance(predict_performance(program))
        assert "FP ops/cycle" in text and "skew" in text


class TestAutoUnroll:
    def test_auto_is_at_least_as_fast_as_baseline(self):
        base = compile_w2(polynomial(48, 4))
        auto = compile_w2(polynomial(48, 4), unroll="auto")
        assert (
            auto.cell_code.total_cycles <= base.cell_code.total_cycles
        )

    def test_auto_correctness(self):
        rng = np.random.default_rng(1)
        h, w = 6, 8
        x = rng.standard_normal((h, w))
        k = rng.standard_normal((3, 3))
        auto = compile_w2(conv2d(w, h), unroll="auto")
        baseline = compile_w2(conv2d(w, h))
        ra = simulate(auto, {"x": x, "k": k})
        rb = simulate(baseline, {"x": x, "k": k})
        assert np.allclose(ra.outputs["y"], rb.outputs["y"])

    def test_auto_on_unrollable_prime_trips(self):
        """Prime trip counts leave factor 1; auto must still compile."""
        program = compile_w2(polynomial(13, 3), unroll="auto")
        rng = np.random.default_rng(2)
        z, c = rng.uniform(-1, 1, 13), rng.standard_normal(3)
        result = simulate(program, {"z": z, "c": c})
        assert np.allclose(result.outputs["results"], np.polyval(c, z))


class TestInterpreterMirroring:
    def test_rl_program_interpreted_directly(self):
        source = """
module rl (din in, dout out)
float din[5];
float dout[5];
cellprogram (cid : 0 : 1)
begin
    float t;
    int i;
    for i := 0 to 4 do begin
        receive (R, X, t, din[i]);
        send (L, X, t * 2.0, dout[i]);
    end;
end
"""
        outputs = interpret(
            analyze(parse_module(source)), {"din": np.arange(5.0)}
        )
        assert list(outputs["dout"]) == [0.0, 4.0, 8.0, 12.0, 16.0]

    def test_rl_interpreter_matches_simulator(self):
        source = """
module rl (din in, dout out)
float din[6];
float dout[6];
cellprogram (cid : 0 : 2)
begin
    float t;
    int i;
    for i := 0 to 5 do begin
        receive (R, X, t, din[i]);
        send (L, X, t + 0.5, dout[i]);
    end;
end
"""
        inputs = {"din": np.linspace(0, 1, 6)}
        expected = interpret(analyze(parse_module(source)), inputs)
        result = simulate(compile_w2(source), inputs)
        assert np.allclose(result.outputs["dout"], expected["dout"])
