"""E9 — Section 6.2.2: minimum queue sizes.

For every evaluation program: the per-channel minimum buffer size at the
compiled skew, checked against the 128-word hardware queues, plus the
overflow-detection path (the paper: "currently only detected and
reported")."""

import pytest

from repro.compiler import compile_w2
from repro.errors import QueueOverflowError
from repro.config import WarpConfig
from repro.lang import Channel
from repro.programs import TABLE_7_1_PROGRAMS, matmul
from repro.timing import compute_skew, minimum_buffer_sizes, plan_variable_skew


@pytest.fixture(scope="module")
def compiled():
    programs = {
        name: compile_w2(factory())
        for name, factory in TABLE_7_1_PROGRAMS.items()
        if name != "Mandelbrot"  # single cell: no inter-cell queues
    }
    programs["MatMul"] = compile_w2(matmul(32, 8))
    return programs


def test_minimum_buffer_sizes(benchmark, compiled, report):
    sample = compiled["Polynomial"]
    benchmark(
        lambda: minimum_buffer_sizes(
            compute_skew(sample.cell_code)[1], sample.skew.skew
        )
    )

    lines = [
        f"{'program':<12} {'skew':>5} {'X words':>8} {'Y words':>8} "
        f"{'fits 128?':>9}"
    ]
    for name, program in compiled.items():
        x = next(b for b in program.buffers if b.channel.value == "X")
        y = next(b for b in program.buffers if b.channel.value == "Y")
        fits = x.required <= 128 and y.required <= 128
        lines.append(
            f"{name:<12} {program.skew.skew:>5} {x.required:>8} "
            f"{y.required:>8} {str(fits):>9}"
        )
        assert fits
    report.section("Section 6.2.2: minimum queue sizes", "\n".join(lines))


def test_variable_skew_buffer_savings(benchmark, compiled, report):
    """Section 6.2.1's remark: inserting delays before input operations
    'may lower the demand on the size of the buffers ... the latency of
    the computation remains the same'."""
    sample = compiled["ColorSeg"]
    benchmark(
        plan_variable_skew, sample.cell_code, Channel.X, sample.skew.skew
    )

    lines = [
        f"{'program':<12} {'const-skew buf':>14} {'var-skew buf':>13} "
        f"{'final delay':>12} {'skew':>5}"
    ]
    for name, program in compiled.items():
        plan = plan_variable_skew(
            program.cell_code, Channel.X, program.skew.skew
        )
        assert plan.buffer_required <= plan.buffer_constant
        assert plan.final_delay <= program.skew.skew
        lines.append(
            f"{name:<12} {plan.buffer_constant:>14} "
            f"{plan.buffer_required:>13} {plan.final_delay:>12} "
            f"{program.skew.skew:>5}"
        )
    lines.append(
        "variable skew trims buffers without changing the final delay "
        "bound (= the constant minimum skew), as the paper states"
    )
    report.section(
        "Section 6.2.1: variable-skew buffer savings", "\n".join(lines)
    )


def test_overflow_detection_path(benchmark, report):
    """A module whose skew forces deep buffering is detected and
    reported with the required size."""

    def detect():
        try:
            compile_w2(
                TABLE_7_1_PROGRAMS["Polynomial"](),
                config=WarpConfig(queue_depth=2),
            )
        except QueueOverflowError as error:
            return error
        return None

    error = benchmark(detect)
    assert error is not None
    report.section(
        "Section 6.2.2: overflow detection",
        f"queue_depth=2 -> reported: {error}",
    )
