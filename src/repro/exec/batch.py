"""Batched execution: one compiled program, many input sets.

The skewed computation model amortises a cell program's load/compile
cost over repeated invocations (Section 3); :class:`BatchRunner` is the
software analogue.  The static simulation state lives on the program
(its :class:`~repro.machine.plan.ExecutionPlan`), so every item reuses
it; items can also fan out over a ``multiprocessing`` pool (each worker
unpickles the program, without its plan, once and then streams its
share of the items).

A serial batch without fault injection goes further.  Warp schedules
are data-independent, so it runs the program's value path *once* for
the whole batch, over one NumPy column per host array
(:meth:`~repro.machine.array.WarpMachine.run_columns`): every word
moved and every operation evaluated carries all items' values at once.
Only items whose inputs fail validation, and every item when that run
raises, run one by one.

Batched results are **bit-identical** to one-shot ``simulate`` calls,
item for item: the runner changes where static state lives and how
values are computed, never what the machine computes.  The differential
tests lock this down.

Batches also *degrade gracefully*: an item that raises a
:class:`~repro.errors.SimulationError` (or whose worker crashes or
hangs) is retried up to ``max_retries`` times with exponential backoff,
and an item that still fails yields a structured :class:`ItemFailure`
record in ``BatchResult.failures`` — never a crashed batch, and never a
silently wrong answer.  :meth:`BatchRunner.run_item` is the one
attempt loop behind that policy, for serial items, pool items and
``repro run`` alike.  ``item_timeout`` bounds each pool item's wall
time (a hung worker surfaces as
:class:`~repro.errors.ItemTimeoutError`).  ``faults`` threads a
deterministic :class:`~repro.faults.InjectionPlan` through every item
and worker — see ``docs/robustness.md``.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from ..errors import (
    FatalFault,
    ItemTimeoutError,
    SimulationError,
    WorkerCrashError,
)
from ..machine.array import SimulationResult, WarpMachine
from ..obs import get_telemetry

if TYPE_CHECKING:  # pragma: no cover - circular import at run time
    from ..compiler.driver import CompiledProgram
    from ..faults.injector import FaultInjector
    from ..faults.plan import InjectionPlan

InputSet = dict[str, np.ndarray]

#: Backoff ceiling between retries, seconds.
_MAX_BACKOFF = 1.0


@dataclass(frozen=True)
class ItemFailure:
    """One batch item that could not be recovered.

    ``error_type`` is the exception class name (taxonomy:
    ``docs/robustness.md``); ``attempts`` counts every try including
    retries; ``fault_report`` lists the faults injected into the final
    attempt, when known.
    """

    index: int
    error_type: str
    message: str
    attempts: int
    fault_report: tuple[str, ...] = ()

    def describe(self) -> str:
        plural = "s" if self.attempts != 1 else ""
        return (
            f"item {self.index} failed after {self.attempts} attempt"
            f"{plural}: {self.error_type}: {self.message}"
        )


@dataclass
class BatchResult:
    """All per-item results of one batched run, plus aggregate stats.

    ``results`` is aligned with the input items; an unrecoverable item
    leaves ``None`` at its position and a matching :class:`ItemFailure`
    in ``failures`` (partial results are first-class: the other items
    are complete and bit-identical to one-shot runs).
    """

    results: list[SimulationResult | None]
    wall_seconds: float
    processes: int = 1
    #: Structured records for items that failed every attempt.
    failures: list[ItemFailure] = field(default_factory=list)
    #: Total retries performed across the batch.
    retries: int = 0
    #: Items answered by the batch's one run over NumPy columns; every
    #: other item had a cycle-accurate run of its own.
    value_items: int = 0

    @property
    def n_items(self) -> int:
        return len(self.results)

    @property
    def n_failures(self) -> int:
        return len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def total_cycles(self) -> int:
        """Machine cycles summed over items (items run back to back)."""
        return sum(r.total_cycles for r in self.results if r is not None)

    @property
    def cycles_per_item(self) -> float:
        completed = sum(1 for r in self.results if r is not None)
        return self.total_cycles / max(completed, 1)

    @property
    def items_per_second(self) -> float:
        return self.n_items / max(self.wall_seconds, 1e-12)

    def _complete_results(self) -> list[SimulationResult]:
        if self.failures:
            raise ValueError(
                f"batch has {self.n_failures} failed item(s) "
                f"({', '.join(str(f.index) for f in self.failures)}); "
                "read BatchResult.failures / per-item results instead of "
                "the stacked outputs"
            )
        return [r for r in self.results if r is not None]

    def outputs(self, name: str) -> np.ndarray:
        """One output array across the batch, stacked on a leading
        item axis.  Raises if any item failed."""
        return np.stack(
            [result.outputs[name] for result in self._complete_results()]
        )

    def stacked_outputs(self) -> dict[str, np.ndarray]:
        results = self._complete_results()
        if not results:
            return {}
        return {name: self.outputs(name) for name in results[0].outputs}


# Worker-process state: each pool worker holds its own machine, built
# once from the pickled program shipped by the initializer, plus the
# (optional) injection plan shipped as JSON.
_worker_machine: WarpMachine | None = None
_worker_plan: "InjectionPlan | None" = None


def _init_worker(program_blob: bytes, plan_doc: dict | None = None) -> None:
    global _worker_machine, _worker_plan
    _worker_machine = WarpMachine(pickle.loads(program_blob))
    if plan_doc is not None:
        from ..faults.plan import InjectionPlan

        _worker_plan = InjectionPlan.from_json(plan_doc)
    else:
        _worker_plan = None


def _run_worker_item(task: tuple[int, int, InputSet]) -> SimulationResult:
    index, attempt, inputs = task
    assert _worker_machine is not None
    injector = None
    if _worker_plan is not None:
        from ..faults.injector import FaultInjector

        injector = FaultInjector(_worker_plan, item=index, attempt=attempt)
        spec = injector.worker_action()
        if spec is not None:
            from ..faults.plan import FaultKind

            if spec.kind is FaultKind.WORKER_KILL:
                os._exit(13)  # die without cleanup, like a real crash
            time.sleep(spec.seconds)  # hang; the driver's timeout reaps us
    return _worker_machine.run(inputs, faults=injector)


def _is_retryable(error: SimulationError) -> bool:
    """Fatal faults are structural, so a retry cannot clear them; every
    other simulation error (a transient fault, detected corruption, a
    dead or hung worker) may be scoped to one attempt."""
    return not isinstance(error, FatalFault)


class BatchRunner:
    """Stream many input sets through one compiled program.

    ``processes=0`` (the default) runs items sequentially on one reused
    machine.  ``processes=N`` with N > 1 fans items out over a pool of
    N workers; results still come back in item order.

    ``max_retries`` retries a failed item (transient faults, crashed or
    hung workers) with exponential backoff starting at
    ``retry_backoff`` seconds; ``item_timeout`` bounds each item's wall
    time in pool mode (in-process runs cannot be preempted, so the
    timeout applies to simulated hangs only).  Items that exhaust their
    retries become :class:`ItemFailure` records, never exceptions.
    """

    def __init__(
        self,
        program: "CompiledProgram",
        processes: int = 0,
        faults: "InjectionPlan | None" = None,
        max_retries: int = 0,
        item_timeout: float | None = None,
        retry_backoff: float = 0.05,
    ):
        if processes < 0:
            raise ValueError("processes must be >= 0")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if item_timeout is not None and item_timeout <= 0:
            raise ValueError("item_timeout must be positive")
        self._program = program
        self._machine = WarpMachine(program)
        self.processes = processes
        self.faults = faults
        self.max_retries = max_retries
        self.item_timeout = item_timeout
        self.retry_backoff = retry_backoff

    @property
    def program(self) -> "CompiledProgram":
        return self._program

    @property
    def machine(self) -> WarpMachine:
        return self._machine

    def run(self, input_sets: Iterable[InputSet]) -> BatchResult:
        """Run every input set; results are in input order.

        ``input_sets`` is read exactly once, so any iterable will do."""
        started = time.perf_counter()
        input_sets = list(input_sets)
        if self.processes > 1 and len(input_sets) > 1:
            answered: dict[int, SimulationResult] = {}
            outcomes = self._run_pool(input_sets)
            used = self.processes
        else:
            answered = self._run_columns(input_sets)
            outcomes = {
                index: self.run_item(
                    index, functools.partial(self._attempt, inputs)
                )
                for index, inputs in enumerate(input_sets)
                if index not in answered
            }
            used = 1
        results = [answered.get(index) for index in range(len(input_sets))]
        failures: list[ItemFailure] = []
        retries = 0
        for index, (outcome, n_retries) in outcomes.items():
            retries += n_retries
            if isinstance(outcome, ItemFailure):
                failures.append(outcome)
            else:
                results[index] = outcome
        wall = time.perf_counter() - started
        obs = get_telemetry()
        obs.counter("exec.batch.items", len(results))
        obs.counter(
            "exec.batch.cycles",
            sum(r.total_cycles for r in results if r is not None),
        )
        if answered:
            obs.counter("exec.batch.value_items", len(answered))
        if len(results) > len(answered):
            obs.counter(
                "exec.batch.fallback_items", len(results) - len(answered)
            )
        if failures:
            obs.counter("exec.batch.failures", len(failures))
        return BatchResult(
            results=results,
            wall_seconds=wall,
            processes=used,
            failures=failures,
            retries=retries,
            value_items=len(answered),
        )

    def run_item(
        self,
        index: int,
        attempt: Callable[
            [list[SimulationError], "FaultInjector | None"], SimulationResult
        ],
    ) -> tuple[SimulationResult | ItemFailure, int]:
        """Item ``index`` under the batch's retry policy, and the number
        of retries it took: the one place that decides retries.

        ``attempt(retried, injector)`` makes one attempt, given the
        errors of the attempts before it (``len(retried)`` is the attempt
        number) and that attempt's injector (``None`` without faults).
        A :class:`~repro.errors.SimulationError` is retried after an
        exponential backoff until ``max_retries`` is spent, unless it is
        a :class:`~repro.errors.FatalFault`; then the item becomes an
        :class:`ItemFailure`.  Any other exception is a programming
        error and keeps its traceback."""
        retried: list[SimulationError] = []
        while True:
            injector = None
            if self.faults is not None:
                from ..faults.injector import FaultInjector

                injector = FaultInjector(
                    self.faults, item=index, attempt=len(retried)
                )
            try:
                return attempt(retried, injector), len(retried)
            except SimulationError as error:
                spent = len(retried) == self.max_retries
                if spent or not _is_retryable(error):
                    failure = ItemFailure(
                        index=index,
                        error_type=type(error).__name__,
                        message=str(error),
                        attempts=len(retried) + 1,
                        fault_report=tuple(
                            injector.report() if injector else ()
                        ),
                    )
                    return failure, len(retried)
                retried.append(error)
                get_telemetry().counter("retry.count")
                if self.retry_backoff > 0:
                    backoff = self.retry_backoff * 2 ** len(retried)
                    time.sleep(min(backoff, _MAX_BACKOFF))

    # Serial path ---------------------------------------------------------

    def _attempt(
        self, inputs: InputSet, _retried: list, injector
    ) -> SimulationResult:
        """One attempt on the reused machine (checked when faulted)."""
        if injector is not None:
            self._simulate_worker_fault(injector)
        return self._machine.run(inputs, faults=injector)

    def _run_columns(
        self, input_sets: Sequence[InputSet]
    ) -> dict[int, SimulationResult]:
        """Answer the valid items of a fault-free batch from one run over
        NumPy columns, by item index.

        Items left out (invalid inputs), every item of a fault-injected
        batch and every item of a batch whose column run raises take one
        run each, which reproduces their errors and retries exactly."""
        if self.faults is not None or not input_sets:
            return {}
        try:
            return self._machine.run_columns(input_sets)
        except SimulationError:
            return {}  # data-independent: each item's own run raises it

    def _simulate_worker_fault(self, injector) -> None:
        """In-process stand-ins for worker kill/hang faults, so serial
        runs exercise the same plans deterministically."""
        from ..faults.plan import FaultKind

        spec = injector.worker_action()
        if spec is None:
            return
        if spec.kind is FaultKind.WORKER_KILL:
            raise WorkerCrashError(
                "worker process died running this item (simulated "
                "in-process: serial mode has no worker to kill)"
            )
        raise ItemTimeoutError(
            f"item exceeded its timeout (simulated in-process: the "
            f"injected hang of {spec.seconds}s is not slept serially)"
        )

    # Pool path -----------------------------------------------------------

    def _run_pool(
        self, input_sets: Sequence[InputSet]
    ) -> dict[int, tuple[SimulationResult | ItemFailure, int]]:
        blob = pickle.dumps(self._program, protocol=pickle.HIGHEST_PROTOCOL)
        plan_doc = self.faults.to_json() if self.faults is not None else None
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        with context.Pool(
            processes=self.processes,
            initializer=_init_worker,
            initargs=(blob, plan_doc),
        ) as pool:
            pending = [
                pool.apply_async(_run_worker_item, ((index, 0, inputs),))
                for index, inputs in enumerate(input_sets)
            ]

            def attempt(index: int, retried: list, _injector):
                """Collect item ``index`` from its worker, resubmitted on
                a retry; a result that misses the timeout is a hung (or
                killed) worker."""
                if retried:
                    pending[index] = pool.apply_async(
                        _run_worker_item,
                        ((index, len(retried), input_sets[index]),),
                    )
                try:
                    return pending[index].get(timeout=self.item_timeout)
                except multiprocessing.TimeoutError:
                    raise ItemTimeoutError(
                        f"no result within the {self.item_timeout:.3g}s "
                        "item timeout — the worker is hung, or was killed "
                        "and its task lost"
                    ) from None

            return {
                index: self.run_item(index, functools.partial(attempt, index))
                for index in range(len(input_sets))
            }
