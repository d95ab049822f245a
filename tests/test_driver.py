"""Tests for the compiler driver: phase wiring, errors, metrics, reports."""

import numpy as np
import pytest

from repro.compiler import (
    compile_w2,
    decomposition_report,
    format_metrics_table,
)
from repro.config import CellConfig, IUConfig, WarpConfig
from repro.errors import MappingError, QueueOverflowError
from repro.machine import simulate
from repro.programs import (
    TABLE_7_1_PROGRAMS,
    bidirectional_cycle,
    bidirectional_exchange,
    matmul,
    passthrough,
    polynomial,
)


class TestMappability:
    def test_bidirectional_cycle_rejected(self):
        with pytest.raises(MappingError, match="both left and right"):
            compile_w2(bidirectional_cycle())

    def test_bidirectional_acyclic_rejected_as_bidirectional(self):
        with pytest.raises(MappingError, match="unidirectional"):
            compile_w2(bidirectional_exchange())

    def test_too_many_cells_rejected(self, monkeypatch):
        """Refused right after semantic analysis, before any code."""
        from repro.compiler import driver

        built = []
        monkeypatch.setattr(driver, "build_ir", lambda *a, **k: built.append(a))
        config = WarpConfig(n_cells=2)
        for unroll in (1, "auto"):
            with pytest.raises(
                MappingError, match="^module uses 5 cells but the machine has 2$"
            ):
                compile_w2(polynomial(10, 5), config=config, unroll=unroll)
        assert built == []

    def test_single_cell_can_receive_from_host_only(self):
        from repro.programs import mandelbrot

        program = compile_w2(mandelbrot(4, 4, 2))
        assert program.n_cells == 1
        assert program.skew.skew == 1


class TestMetrics:
    @pytest.mark.parametrize("name", list(TABLE_7_1_PROGRAMS))
    def test_metrics_populated(self, name):
        program = compile_w2(TABLE_7_1_PROGRAMS[name]())
        metrics = program.metrics
        assert metrics.w2_lines > 0
        assert metrics.cell_ucode > 0
        assert metrics.iu_ucode >= 0
        assert metrics.compile_seconds > 0
        assert metrics.skew >= 1

    def test_metrics_table_renders(self):
        rows = [compile_w2(passthrough()).metrics]
        table = format_metrics_table(rows)
        assert "W2 Lines" in table and "passthrough" in table

    def test_colorseg_is_largest_cell_program(self):
        """Table 7-1's ordering: ColorSeg has the most cell microcode."""
        sizes = {
            name: compile_w2(factory()).metrics.cell_ucode
            for name, factory in TABLE_7_1_PROGRAMS.items()
        }
        assert max(sizes, key=sizes.get) == "ColorSeg"


class TestDecompositionReport:
    def test_matmul_moves_addresses_to_iu(self):
        program = compile_w2(matmul(8, 4))
        report = decomposition_report(program)
        assert report.iu_supplied_addresses > 0
        assert report.host_inputs > 0
        assert report.host_outputs == 64

    def test_streaming_program_needs_no_iu_addresses(self):
        program = compile_w2(polynomial(8, 4))
        report = decomposition_report(program)
        assert report.iu_supplied_addresses == 0
        assert report.host_outputs == 8


class TestRegisterDemotion:
    def test_many_scalars_demoted_and_correct(self):
        """A program with more scalars than registers compiles via
        memory demotion and still computes correctly."""
        n_vars = 70  # more than the 64 registers
        decls = ", ".join(f"s{i}" for i in range(n_vars))
        assigns = "\n        ".join(
            f"s{i} := t + {float(i)};" for i in range(n_vars)
        )
        total = " + ".join(f"s{i}" for i in range(n_vars))
        src = f"""
module wide (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 0)
begin
    float t, {decls};
    int i;
    for i := 0 to 3 do begin
        receive (L, X, t, a[i]);
        {assigns}
        send (R, X, {total}, b[i]);
    end;
end
"""
        program = compile_w2(src)
        assert "s0" in program.ir.arrays or len(program.ir.scalars) <= 64
        data = np.array([1.0, 2.0, 3.0, 4.0])
        result = simulate(program, {"a": data})
        expected = n_vars * data + sum(range(n_vars))
        assert np.allclose(result.outputs["b"], expected)


class TestQueueOverflowPolicy:
    def test_tiny_queues_reported(self):
        """With much smaller queues than the skew requires, compilation
        reports the overflow (Section 6.2.2: detected and reported)."""
        config = WarpConfig(queue_depth=1)
        with pytest.raises(QueueOverflowError) as excinfo:
            compile_w2(polynomial(30, 10), config=config)
        assert excinfo.value.required > 1

    def test_enlarged_queues_accept(self):
        config = WarpConfig(queue_depth=4096)
        program = compile_w2(polynomial(30, 10), config=config)
        assert program.buffers


class TestUnrollFactor:
    @pytest.mark.parametrize("unroll", [0, -3, 1.5, "x", "2", True, None])
    def test_invalid_factor_is_a_value_error(self, unroll):
        """Only an int >= 1 or ``"auto"`` is a factor; anything else is
        named in a ``ValueError``, before the cache is consulted, so no
        value below 1 stands for 1 under a key of its own."""
        from repro.exec import CompileCache

        cache = CompileCache()
        with pytest.raises(ValueError) as caught:
            compile_w2(polynomial(12, 4), unroll=unroll, cache=cache)
        assert str(caught.value) == (
            f"unroll must be an int >= 1 or 'auto', got {unroll!r}"
        )
        assert len(cache) == 0
