"""Tests for the innermost-loop unrolling optimisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_w2
from repro.ir import build_ir
from repro.ir.tree import Loop
from repro.lang import analyze, parse_module
from repro.machine import simulate
from repro.programs import conv1d, conv2d, matmul, polynomial


class TestUnrollStructure:
    def test_trip_divided(self):
        ir = build_ir(
            analyze(parse_module(polynomial(12, 3))), unroll_factor=4
        )
        loops = list(ir.tree.loops())
        trips = sorted(loop.trip for loop in loops)
        # coefficient loop (2 iterations) and main loop 12/4 = 3.
        assert 3 in trips

    def test_partial_divisor_used(self):
        """trip=10, unroll=4 -> the largest divisor <= 4 is 2."""
        ir = build_ir(
            analyze(parse_module(polynomial(10, 3))), unroll_factor=4
        )
        main_loop = max(ir.tree.loops(), key=lambda l: l.trip * 0 + l.loop_id)
        del main_loop
        trips = [loop.trip for loop in ir.tree.loops()]
        assert 5 in trips  # 10 / 2

    def test_prime_trip_not_unrolled(self):
        ir = build_ir(
            analyze(parse_module(polynomial(13, 3))), unroll_factor=4
        )
        trips = [loop.trip for loop in ir.tree.loops()]
        assert 13 in trips

    def test_outer_loops_not_unrolled(self):
        ir = build_ir(analyze(parse_module(matmul(8, 4))), unroll_factor=4)
        # Outer loops keep their structure; only innermost bodies grow.
        outer = [
            loop
            for loop in ir.tree.loops()
            if any(isinstance(child, Loop) for child in loop.body)
        ]
        assert outer  # matmul still has nested loops

    def test_io_statements_multiply(self):
        base = build_ir(analyze(parse_module(polynomial(12, 3))))
        unrolled = build_ir(
            analyze(parse_module(polynomial(12, 3))), unroll_factor=4
        )
        assert len(unrolled.io_statements) > len(base.io_statements)


class TestUnrollCorrectness:
    @pytest.mark.parametrize("unroll", [2, 3, 4, 8])
    def test_polynomial(self, unroll):
        rng = np.random.default_rng(unroll)
        n, k = 24, 4
        z, c = rng.uniform(-1, 1, n), rng.standard_normal(k)
        program = compile_w2(polynomial(n, k), unroll=unroll)
        result = simulate(program, {"z": z, "c": c})
        assert np.allclose(result.outputs["results"], np.polyval(c, z))

    @pytest.mark.parametrize("unroll", [2, 4])
    def test_conv1d_loop_carried_state(self, unroll):
        """xold carries across unrolled copies — the substitution must
        keep the per-copy dataflow intact."""
        rng = np.random.default_rng(9)
        x, w = rng.standard_normal(32), rng.standard_normal(3)
        program = compile_w2(conv1d(32, 3), unroll=unroll)
        result = simulate(program, {"x": x, "w": w})
        assert np.allclose(result.outputs["y"], np.convolve(x, w)[:32])

    @pytest.mark.parametrize("unroll", [2, 4])
    def test_conv2d_memory_addresses(self, unroll):
        """The unrolled copies must compute distinct rowbuf addresses via
        the affine substitution (scale/offset per copy)."""
        rng = np.random.default_rng(3)
        h, w = 6, 8
        x = rng.standard_normal((h, w))
        k = rng.standard_normal((3, 3))
        program = compile_w2(conv2d(w, h), unroll=unroll)
        result = simulate(program, {"x": x, "k": k})
        baseline = simulate(
            compile_w2(conv2d(w, h)), {"x": x, "k": k}
        )
        assert np.allclose(result.outputs["y"], baseline.outputs["y"])

    def test_unroll_one_is_identity(self):
        a = compile_w2(polynomial(12, 3), unroll=1)
        b = compile_w2(polynomial(12, 3))
        assert a.metrics.cell_ucode == b.metrics.cell_ucode


class TestUnrollPerformance:
    def test_cycles_decrease(self):
        cycles = []
        for unroll in (1, 2, 4):
            program = compile_w2(polynomial(48, 4), unroll=unroll)
            cycles.append(program.cell_code.total_cycles)
        assert cycles == sorted(cycles, reverse=True)

    def test_skew_stays_valid(self):
        """Whatever the unroll factor, the computed skew must satisfy the
        simulator's underflow detector (run end to end)."""
        rng = np.random.default_rng(1)
        z, c = rng.uniform(-1, 1, 24), rng.standard_normal(4)
        for unroll in (1, 2, 4, 8):
            program = compile_w2(polynomial(24, 4), unroll=unroll)
            simulate(program, {"z": z, "c": c})  # raises on violation

    @pytest.mark.parametrize("local_opt", [True, False])
    def test_auto_keeps_the_code_it_measured(self, monkeypatch, local_opt):
        """``unroll="auto"`` generates each tried factor's cell code once
        and keeps the winner's, built with the caller's ``local_opt``:
        it equals a compile at the chosen fixed factor."""
        from repro import obs
        from repro.compiler import driver

        calls = []
        generate = driver.generate_cell_code

        def counting(*args, **kwargs):
            calls.append(1)
            return generate(*args, **kwargs)

        monkeypatch.setattr(driver, "generate_cell_code", counting)
        source = polynomial(16, 8)
        with obs.collecting() as telemetry:
            auto = compile_w2(source, unroll="auto", local_opt=local_opt)
        assert len(calls) == 4  # factors 1, 2, 4 and 8
        factor = telemetry.counters["driver.unroll_factor"]
        fixed = compile_w2(source, unroll=factor, local_opt=local_opt)
        assert auto.cell_code.n_instructions == fixed.cell_code.n_instructions
        assert auto.cell_code.total_cycles == fixed.cell_code.total_cycles


@st.composite
def unroll_cases(draw):
    n = draw(st.integers(4, 30))
    unroll = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**20))
    return n, unroll, seed


class TestUnrollProperty:
    @given(unroll_cases())
    @settings(max_examples=25, deadline=None)
    def test_any_factor_any_size(self, case):
        n, unroll, seed = case
        rng = np.random.default_rng(seed)
        x, w = rng.standard_normal(n), rng.standard_normal(3)
        program = compile_w2(conv1d(n, 3), unroll=unroll)
        result = simulate(program, {"x": x, "w": w})
        assert np.allclose(result.outputs["y"], np.convolve(x, w)[:n])
