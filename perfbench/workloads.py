"""The benchmark's three closed-loop workloads.

Each workload is built by its constructor (the set-up the benchmark
times as ``setup_s``: compiling, building runners or machines and one
warm-up call), then :meth:`reference` computes the expected outputs
with the AST reference interpreter outside any timed region, then
:meth:`run_pass` repeats a fixed amount of work.  A pass times each
public call it makes, then checks every output: bit-identical to the
interpreter, and simulated cycles equal to ``predict_performance``.  A
mismatch, a raised error or an ``ItemFailure`` counts as one failed
operation; it never stops the benchmark.

Every compile sets its verify level explicitly, and every cold compile
passes ``cache=None`` (the default), so neither ``REPRO_VERIFY`` nor
the process-wide compile cache can change what is measured.
"""

from __future__ import annotations

import dataclasses
import pickle
import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import repro.machine.array as array
from repro import (
    DEFAULT_CONFIG,
    BatchRunner,
    CompileCache,
    analyze,
    interpret,
    parse_module,
)
from repro.compiler import driver
from repro.compiler.performance import predict_performance
from repro.exec.keys import cache_key
from repro.programs import (
    colorseg,
    conv1d,
    conv2d,
    fir_bank,
    mandelbrot,
    matmul,
    polynomial,
)

QUICK = dataclasses.replace(DEFAULT_CONFIG, verify="quick")
FULL = dataclasses.replace(DEFAULT_CONFIG, verify="full")

#: Items per ``BatchRunner.run`` call, per program.
BATCH_ITEMS = 1000
POOL_PROCESSES = 2
#: Finite, so a dead pool worker costs one timeout, never a hang.
POOL_ITEM_TIMEOUT_S = 20.0

Inputs = dict[str, np.ndarray]


class TimedItems(list):
    """A batch's input list that notes when each item is taken.

    A serial ``BatchRunner.run`` takes item ``i + 1`` right after item
    ``i``'s run returns, so the gaps between these clock reads are the
    items' latencies, seen from outside at one clock read per item."""

    def __iter__(self):
        self.taken: list[float] = []
        for item in super().__iter__():
            self.taken.append(perf_counter())
            yield item

    def latencies(self, end: float) -> tuple[float, ...]:
        marks = self.taken + [end]
        return tuple(b - a for a, b in zip(marks, marks[1:]))


@dataclass(frozen=True)
class Program:
    name: str
    source: str
    unroll: int | str
    make_inputs: Callable[[np.random.Generator], Inputs]
    #: False where local optimisation legally reassociates a float sum
    #: (height reduction), so the simulated values differ from the
    #: interpreter's in the last bits; those are compared with allclose.
    exact: bool = True


def _polynomial(n: int, k: int, unroll) -> Program:
    return Program(
        f"polynomial({n},{k})",
        polynomial(n, k),
        unroll,
        lambda rng: {"z": rng.uniform(-1, 1, n), "c": rng.standard_normal(k)},
    )


def _conv1d(n: int, k: int, unroll) -> Program:
    return Program(
        f"conv1d({n},{k})",
        conv1d(n, k),
        unroll,
        lambda rng: {"x": rng.standard_normal(n), "w": rng.standard_normal(k)},
    )


def _colorseg(w: int, h: int, c: int, unroll) -> Program:
    return Program(
        f"colorseg({w},{h},{c})",
        colorseg(w, h, c),
        unroll,
        lambda rng: {
            "u": rng.uniform(0, 1, w * h),
            "v": rng.uniform(0, 1, w * h),
            "refu": rng.uniform(0, 1, c),
            "refv": rng.uniform(0, 1, c),
            "radius": rng.uniform(0.01, 0.2, c),
            "class": np.arange(1.0, c + 1.0),
        },
    )


def _matmul(n: int, c: int) -> Program:
    return Program(
        f"matmul({n},{c})",
        matmul(n, c),
        1,
        lambda rng: {
            "a": rng.standard_normal((n, n)),
            "b": rng.standard_normal((n, n)),
        },
    )


def _fir_bank(n: int, f: int, t: int) -> Program:
    return Program(
        f"fir_bank({n},{f},{t})",
        fir_bank(n, f, t),
        1,
        lambda rng: {
            "x": rng.standard_normal(n),
            "taps": rng.standard_normal((f, t)),
        },
    )


def _mandelbrot(w: int, h: int, iters: int) -> Program:
    return Program(
        f"mandelbrot({w},{h},{iters})",
        mandelbrot(w, h, iters),
        1,
        lambda rng: {
            "cx": rng.uniform(-2.0, 1.0, w * h),
            "cy": rng.uniform(-1.5, 1.5, w * h),
        },
    )


def _conv2d(w: int, h: int, unroll) -> Program:
    return Program(
        f"conv2d({w},{h})",
        conv2d(w, h),
        unroll,
        lambda rng: {
            "x": rng.standard_normal((h, w)),
            "k": rng.standard_normal((3, 3)),
        },
        exact=False,
    )


def compile_mix() -> list[Program]:
    """Streaming, control flow, IU address streams and auto-unroll."""
    return [
        _polynomial(240, 8, 8),
        _conv1d(120, 9, 4),
        _colorseg(10, 6, 10, 4),
        _polynomial(16, 8, "auto"),
        _conv1d(32, 9, "auto"),
        _matmul(8, 4),
        _fir_bank(64, 10, 8),
        _mandelbrot(8, 8, 8),
        _conv2d(16, 12, 2),
    ]


def simulate_mix() -> list[Program]:
    return [
        _polynomial(240, 8, 8),
        _conv1d(120, 9, 4),
        _colorseg(10, 6, 10, 4),
        _matmul(8, 4),
    ]


def batch_mix() -> list[Program]:
    return [_polynomial(16, 8, "auto"), _conv1d(32, 9, "auto")]


def reference_outputs(program: Program, inputs: Inputs) -> Inputs:
    return interpret(analyze(parse_module(program.source)), inputs)


def outputs_match(program: Program, got: Inputs, expected: Inputs) -> bool:
    same = np.array_equal if program.exact else np.allclose
    return all(
        same(np.asarray(value).ravel(), np.asarray(expected[name]).ravel())
        for name, value in got.items()
    )


@dataclass
class PassResult:
    """One pass: its timed calls and its checks."""

    wall_s: float = 0.0
    #: Every timed call in order, as (kind, seconds of each item it
    #: carried); a one-item call carries one.  Every pass of a run makes
    #: the same calls in the same order.
    calls: list[tuple[str, tuple[float, ...]]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    sim_cycles: int = 0

    def add(self, kind: str, *item_s: float) -> None:
        self.calls.append((kind, item_s))


class Workload:
    """Constructor = set-up; then reference(), run_pass() repeatedly,
    finish() and close()."""

    #: Total cell micro-instructions over the workload's programs.
    cell_ucode: int

    def reference(self) -> None:
        """Compute expected outputs (untimed)."""

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def layer_counts(self, untraced: list[PassResult]) -> dict[str, float]:
        """Layer metrics the benchmark measures itself, not from spans."""
        return {}

    def finish(self) -> PassResult:
        """Checks run once after the last pass (untimed)."""
        return PassResult()

    def close(self) -> None:
        """Release what the set-up created."""


class CompileWorkload(Workload):
    """Cold quick and full compiles, a store and a disk hit per program."""

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng(seed)
        mix = compile_mix()
        self.programs = [mix[i] for i in rng.permutation(len(mix))]
        self.inputs = [p.make_inputs(rng) for p in self.programs]
        self.cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
        self.cache = CompileCache(cache_dir=self.cache_dir)
        self.keys = [
            cache_key(p.source, QUICK, "auto", p.unroll, True)
            for p in self.programs
        ]
        # Warm-up: one cold quick compile of the mix fixes the expected
        # code size and cycles every later compile must reproduce.
        self.compiled = [
            driver.compile_w2(p.source, config=QUICK, unroll=p.unroll)
            for p in self.programs
        ]
        self.expected = [
            (c.metrics.cell_ucode, predict_performance(c).total_cycles)
            for c in self.compiled
        ]
        self.cell_ucode = sum(ucode for ucode, _ in self.expected)
        self.artifact_bytes = 0

    def run_pass(self) -> PassResult:
        result = PassResult()
        outcomes = []
        started = perf_counter()
        for program, key in zip(self.programs, self.keys):
            quick = self._timed(
                result,
                "compile quick",
                lambda: driver.compile_w2(
                    program.source, config=QUICK, unroll=program.unroll
                ),
            )
            full = self._timed(
                result,
                "compile full",
                lambda: driver.compile_w2(
                    program.source, config=FULL, unroll=program.unroll
                ),
            )
            if quick is not None:
                self._timed(result, None, lambda: self.cache.put(key, quick))
            self.cache.clear(memory_only=True)
            hit = self._timed(
                result,
                "cache disk hit",
                lambda: driver.compile_w2(
                    program.source,
                    config=QUICK,
                    unroll=program.unroll,
                    cache=self.cache,
                ),
            )
            outcomes.append((quick, full, hit, self.cache.last_event))
        result.wall_s = perf_counter() - started
        for expected, (quick, full, hit, event) in zip(self.expected, outcomes):
            if event != "disk-hit":
                result.failed += 1
            for compiled in (quick, full, hit):
                if compiled is not None and (
                    compiled.metrics.cell_ucode,
                    predict_performance(compiled).total_cycles,
                ) != expected:
                    result.failed += 1
        self.artifact_bytes = sum(
            path.stat().st_size for path in self.cache_dir.glob("*.w2c")
        )
        return result

    @staticmethod
    def _timed(result: PassResult, kind: str | None, call):
        """Make one call; compiles are items, a cache store (``kind``
        None) is not."""
        result.attempted += 1
        start = perf_counter()
        try:
            value = call()
        except Exception:
            result.failed += 1
            value = None
        if kind is not None:
            result.add(kind, perf_counter() - start)
        return value

    def layer_counts(self, untraced):
        return {"exec.cache.artifact_bytes": float(self.artifact_bytes)}

    def finish(self) -> PassResult:
        """Run each compiled program once against the interpreter."""
        result = PassResult()
        for program, compiled, inputs, (_, cycles) in zip(
            self.programs, self.compiled, self.inputs, self.expected
        ):
            result.attempted += 1
            try:
                run = array.simulate(compiled, inputs)
                ok = run.total_cycles == cycles and outputs_match(
                    program, run.outputs, reference_outputs(program, inputs)
                )
                result.sim_cycles += run.total_cycles
            except Exception:
                ok = False
            result.failed += not ok
        return result

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class SimulateWorkload(Workload):
    """One-shot ``simulate`` calls, clean and with ``record=True``."""

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng(seed)
        self.programs = simulate_mix()
        self.inputs = [p.make_inputs(rng) for p in self.programs]
        self.compiled = [
            driver.compile_w2(p.source, config=QUICK, unroll=p.unroll)
            for p in self.programs
        ]
        self.cycles = [predict_performance(c).total_cycles for c in self.compiled]
        self.cell_ucode = sum(c.metrics.cell_ucode for c in self.compiled)
        for compiled, inputs in zip(self.compiled, self.inputs):
            array.simulate(compiled, inputs)

    def reference(self) -> None:
        self.expected = [
            reference_outputs(p, i) for p, i in zip(self.programs, self.inputs)
        ]

    def run_pass(self) -> PassResult:
        result = PassResult()
        runs = []
        started = perf_counter()
        for compiled, inputs in zip(self.compiled, self.inputs):
            for record in (False, True):
                result.attempted += 1
                start = perf_counter()
                try:
                    run = array.simulate(compiled, inputs, record=record)
                except Exception:
                    run = None
                kind = "simulate record" if record else "simulate"
                result.add(kind, perf_counter() - start)
                runs.append(run)
        result.wall_s = perf_counter() - started
        for call, run in enumerate(runs):
            index = call // 2  # a clean and a recorded run per program
            if run is None:
                result.failed += 1
                continue
            result.sim_cycles += run.total_cycles
            ok = run.total_cycles == self.cycles[index] and outputs_match(
                self.programs[index], run.outputs, self.expected[index]
            )
            result.failed += not ok
        return result


class BatchWorkload(Workload):
    """Warm serial ``BatchRunner.run`` over many small items per program.

    The traced run also sends the same items through a worker pool once,
    for the pool path's layer metrics."""

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng(seed)
        self.programs = batch_mix()
        self.items = [
            TimedItems(p.make_inputs(rng) for _ in range(BATCH_ITEMS))
            for p in self.programs
        ]
        compiled = [
            driver.compile_w2(p.source, config=QUICK, unroll=p.unroll)
            for p in self.programs
        ]
        self.cycles = [predict_performance(c).total_cycles for c in compiled]
        self.cell_ucode = sum(c.metrics.cell_ucode for c in compiled)
        self.runners = [BatchRunner(c, max_retries=0) for c in compiled]
        for runner, items in zip(self.runners, self.items):
            runner.run(items[:8])
        self.pool_checks = PassResult()

    def reference(self) -> None:
        self.expected = [
            [reference_outputs(p, inputs) for inputs in items]
            for p, items in zip(self.programs, self.items)
        ]

    def run_pass(self) -> PassResult:
        return self._run(self.runners)[0]

    def _run(self, runners) -> tuple[PassResult, list]:
        result = PassResult()
        batches = []
        started = perf_counter()
        for program, runner, items in zip(self.programs, runners, self.items):
            start = perf_counter()
            try:
                batch = runner.run(items)
            except Exception:
                batch = None
            end = perf_counter()
            latencies = items.latencies(end)
            if batch is None or len(latencies) != len(items):
                latencies = ((end - start) / len(items),) * len(items)
            result.add(f"batch item {program.name}", *latencies)
            batches.append(batch)
        result.wall_s = perf_counter() - started
        for index, batch in enumerate(batches):
            program, expected = self.programs[index], self.expected[index]
            result.attempted += len(expected)
            if batch is None:
                result.failed += len(expected)
                continue
            for run, reference in zip(batch.results, expected):
                if run is None:  # an ItemFailure
                    result.failed += 1
                    continue
                result.sim_cycles += run.total_cycles
                ok = run.total_cycles == self.cycles[index] and outputs_match(
                    program, run.outputs, reference
                )
                result.failed += not ok
        return result, batches

    def layer_counts(self, untraced):
        """One pass of the same items over a worker pool: what the pool
        path ships (the pickled program per run call, the pickled result
        per item), its retries, and its parallel efficiency, the serial
        pass time divided by (pool pass time x processes)."""
        pool_runners = [
            BatchRunner(
                runner.program,
                processes=POOL_PROCESSES,
                max_retries=0,
                item_timeout=POOL_ITEM_TIMEOUT_S,
            )
            for runner in self.runners
        ]
        pool_pass, batches = self._run(pool_runners)
        self.pool_checks = pool_pass
        program_bytes = sum(
            len(pickle.dumps(r.program, protocol=pickle.HIGHEST_PROTOCOL))
            for r in pool_runners
        )
        results = [
            run
            for batch in batches
            if batch is not None
            for run in batch.results
            if run is not None
        ]
        result_bytes = sum(
            len(pickle.dumps(run, protocol=pickle.HIGHEST_PROTOCOL))
            for run in results
        ) / max(len(results), 1)
        serial_s = statistics.median(p.wall_s for p in untraced)
        return {
            "exec.pool.program_bytes": float(program_bytes),
            "exec.pool.result_bytes": result_bytes,
            "exec.pool.retries": float(
                sum(b.retries for b in batches if b is not None)
            ),
            "exec.pool.efficiency": serial_s
            / (pool_pass.wall_s * POOL_PROCESSES),
        }

    def finish(self) -> PassResult:
        return self.pool_checks


WORKLOADS: dict[str, type[Workload]] = {
    "compile": CompileWorkload,
    "simulate": SimulateWorkload,
    "batch": BatchWorkload,
}
