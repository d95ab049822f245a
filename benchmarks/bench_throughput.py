"""E8 — Section 7's throughput claims.

"All the arithmetic units are fully utilized in the innermost loop,
giving a throughput of one result per cycle" (1d-Conv); "The throughput
is also one result per cycle" (Polynomial); the 10-cell Warp peaks at
100 MFLOPS (2 FP ops x 10 cells per cycle).

Our baseline scheduler drains each loop iteration (no software
pipelining — the paper defers those techniques to its references [6,7]),
so absolute throughput is below 1 result/cycle; the reproduction targets
are (a) the *ordering* — conv and polynomial sustain far higher
arithmetic utilisation than the control-heavy colorseg — and (b) the
trend toward the paper's number as the unroll optimisation amortises the
drain."""

import time

import numpy as np
import pytest

from repro.compiler import compile_w2
from repro.exec import BatchRunner, CompileCache
from repro.machine import simulate
from repro.programs import colorseg, conv1d, polynomial


def _run(source, inputs, unroll=1):
    program = compile_w2(source, unroll=unroll)
    return program, simulate(program, inputs)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(123)


def test_throughput_toward_one_result_per_cycle(benchmark, rng, report):
    n = 240
    inputs = {"z": rng.uniform(-1, 1, n), "c": rng.standard_normal(8)}

    rows = []
    for unroll in (1, 2, 4, 8):
        program, result = _run(polynomial(n, 8), inputs, unroll)
        assert np.allclose(
            result.outputs["results"], np.polyval(inputs["c"], inputs["z"])
        )
        rows.append((unroll, result.total_cycles / n))

    program = compile_w2(polynomial(n, 8), unroll=8)
    benchmark(simulate, program, inputs)

    lines = [f"{'unroll':>6} {'cycles/result':>14}   (paper: 1.0)"]
    for unroll, cycles in rows:
        lines.append(f"{unroll:>6} {cycles:>14.2f}")
    # Unrolling must strictly improve throughput toward the paper's claim.
    per_result = [c for _, c in rows]
    assert per_result == sorted(per_result, reverse=True)
    assert per_result[-1] < per_result[0] / 3
    report.section(
        "Section 7: polynomial throughput vs unrolling", "\n".join(lines)
    )


def test_cycles_per_result_ordering(benchmark, rng, report):
    """The streaming kernels retire results far faster than the
    per-pixel classification cascade; FP-issue utilisation is reported
    alongside (ColorSeg does much more arithmetic per item)."""
    n = 120

    def measure():
        results = {}
        _, conv = _run(
            conv1d(n, 9),
            {"x": rng.standard_normal(n), "w": rng.standard_normal(9)},
            unroll=4,
        )
        results["1d-Conv"] = (
            conv.total_cycles / n,
            np.mean([c.flop_utilization for c in conv.machine_metrics.cells]),
        )
        _, poly = _run(
            polynomial(n, 10),
            {"z": rng.uniform(-1, 1, n), "c": rng.standard_normal(10)},
            unroll=4,
        )
        results["Polynomial"] = (
            poly.total_cycles / n,
            np.mean([c.flop_utilization for c in poly.machine_metrics.cells]),
        )
        w, h = 10, 6
        _, seg = _run(
            colorseg(w, h, 10),
            {
                "u": rng.uniform(0, 1, w * h),
                "v": rng.uniform(0, 1, w * h),
                "refu": rng.uniform(0, 1, 10),
                "refv": rng.uniform(0, 1, 10),
                "radius": rng.uniform(0.01, 0.2, 10),
                "class": np.arange(1.0, 11.0),
            },
            unroll=4,
        )
        results["ColorSeg"] = (
            seg.total_cycles / (w * h),
            np.mean([c.flop_utilization for c in seg.machine_metrics.cells]),
        )
        return results

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [f"{'program':<12} {'cycles/result':>14} {'FP utilisation':>15}"]
    for name, (cycles, util) in results.items():
        lines.append(f"{name:<12} {cycles:>14.2f} {util:>14.1%}")
    lines.append(
        "paper: conv/polynomial sustain ~1 result/cycle; our drain-based "
        "schedule keeps their ordering ahead of ColorSeg"
    )
    assert results["1d-Conv"][0] < results["ColorSeg"][0]
    assert results["Polynomial"][0] < results["ColorSeg"][0]
    report.section("Section 7: throughput ordering", "\n".join(lines))


def test_array_flops_scale_with_cells(benchmark, rng, report):
    """Aggregate arithmetic per cycle grows linearly with the array
    (the machine's 10-cell = 10x single-cell MFLOPS claim)."""
    n = 200

    def measure():
        rows = []
        for k in (2, 5, 10):
            inputs = {"z": rng.uniform(-1, 1, n), "c": rng.standard_normal(k)}
            _, result = _run(polynomial(n, k), inputs, unroll=4)
            flops = sum(c.fp_ops for c in result.machine_metrics.cells)
            rows.append((k, flops / result.total_cycles))
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [f"{'cells':>5} {'FP ops/cycle':>13}"]
    for k, rate in rows:
        lines.append(f"{k:>5} {rate:>13.2f}")
    rates = [rate for _, rate in rows]
    assert rates[-1] > 3 * rates[0] / (10 / 2) * 2  # clearly growing
    assert rates == sorted(rates)
    report.section(
        "Section 7: aggregate FP ops/cycle vs array size", "\n".join(lines)
    )


def test_batched_execution_speedup(benchmark, rng, report):
    """E-BATCH: compile-once/run-many vs compile-per-item.

    The paper's skewed model amortises the cell-program load over many
    invocations (Section 3); the software analogue is a warm compile
    cache plus one reused machine.  A 100-item batch must be at least
    5x faster end to end than 100 independent compile+simulate calls —
    and bit-identical to them."""
    source = polynomial(16, 8)
    n_items = 100
    items = [
        {"z": rng.standard_normal(16), "c": rng.standard_normal(8)}
        for _ in range(n_items)
    ]

    def measure():
        cache = CompileCache()
        compile_w2(source, unroll="auto", cache=cache)  # warm the cache

        started = time.perf_counter()
        one_shot = [
            simulate(compile_w2(source, unroll="auto"), item)
            for item in items
        ]
        one_shot_s = time.perf_counter() - started

        started = time.perf_counter()
        program = compile_w2(source, unroll="auto", cache=cache)
        batched = BatchRunner(program).run(items)
        batched_s = time.perf_counter() - started

        assert cache.stats.hits == 1  # the batch compile came from cache
        for theirs, mine in zip(one_shot, batched.results):
            assert np.array_equal(
                mine.outputs["results"], theirs.outputs["results"]
            )
            assert mine.total_cycles == theirs.total_cycles
        return one_shot_s, batched_s

    one_shot_s, batched_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = one_shot_s / batched_s
    lines = [
        f"{'mode':<28} {'wall':>9} {'items/s':>9}",
        f"{'100x (compile + simulate)':<28} {one_shot_s:>8.3f}s "
        f"{n_items / one_shot_s:>9.1f}",
        f"{'warm cache + batched run':<28} {batched_s:>8.3f}s "
        f"{n_items / batched_s:>9.1f}",
        f"speedup: {speedup:.1f}x (outputs bit-identical item for item)",
    ]
    assert speedup >= 5.0, f"batched speedup {speedup:.2f}x below the 5x bar"
    report.section(
        "E-BATCH: batched execution vs one-shot", "\n".join(lines)
    )


def test_pipelining_headroom(benchmark, rng, report):
    """ResMII analysis: the paper's 1-result/cycle claim is exactly the
    resource bound of the inner loop (the queue port); the gap between
    our achieved interval and ResMII is the cost of substituting
    unrolling for software pipelining."""
    from repro.cellcodegen import pipelining_report

    def measure():
        rows = []
        for unroll in (1, 2, 4, 8):
            program = compile_w2(polynomial(240, 8), unroll=unroll)
            stats = max(
                pipelining_report(program.cell_code), key=lambda s: s.trip
            )
            rows.append(
                (
                    unroll,
                    stats.achieved_interval / unroll,
                    stats.resource_min_interval / unroll,
                    stats.bottleneck,
                )
            )
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        f"{'unroll':>6} {'achieved/result':>16} {'ResMII/result':>14} "
        f"{'bottleneck':>12}"
    ]
    for unroll, achieved, resmii, bottleneck in rows:
        lines.append(
            f"{unroll:>6} {achieved:>16.2f} {resmii:>14.2f} {bottleneck:>12}"
        )
    lines.append(
        "ResMII is 1 cycle/result — the paper's fully-pipelined claim is "
        "exactly the resource bound; unrolling closes most of the gap"
    )
    assert all(abs(resmii - 1.0) < 1e-9 for _, _, resmii, _ in rows)
    achieved = [a for _, a, _, _ in rows]
    assert achieved == sorted(achieved, reverse=True)
    report.section("Section 7: pipelining headroom (ResMII)", "\n".join(lines))
