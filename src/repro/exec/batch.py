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
Its work scales with host arrays and outputs, not items: each input is
loaded for all items in one NumPy pass (only a malformed input is
validated item by item), and each output is one ``(items, n)`` array,
kept as the result: an item's own result is built only when read.
That one run decides every item: an item whose inputs fail validation
fails with its :class:`~repro.errors.HostDataError`, and if the run
raises, every other item fails with that error, which no run of its
own could change.

Batched results are **bit-identical** to one-shot ``simulate`` calls,
item for item: the runner changes where static state lives and how
values are computed, never what the machine computes.  The differential
tests lock this down.

Batches also *degrade gracefully*: a failing item yields a structured
:class:`ItemFailure` record in ``BatchResult.failures`` — never a
crashed batch, and never a silently wrong answer.  Only a run whose
outcome can change is retried, at once, up to ``max_retries`` times: a
fault-injected item (its faults are keyed on the attempt) or a pool
item (a dead or hung worker is replaced).  Those batches validate every
item first, so an item with invalid inputs fails once and is never run.
:meth:`BatchRunner.run_item` is the one attempt loop behind that
policy, for fault-injected serial items, pool items and ``repro run
--inject`` alike.  ``item_timeout`` bounds each pool item's wall time
(a hung worker surfaces as :class:`~repro.errors.ItemTimeoutError`).
``faults`` threads a deterministic :class:`~repro.faults.InjectionPlan`
through every item and worker — see ``docs/robustness.md``.
"""

from __future__ import annotations

import functools
import multiprocessing
import operator
import os
import pickle
import time
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from ..errors import (
    FatalFault,
    ItemTimeoutError,
    SimulationError,
    WorkerCrashError,
)
from ..machine.array import SimulationResult, WarpMachine
from ..machine.host import load_inputs
from ..obs import get_telemetry
from ..obs.metrics import MachineMetrics

if TYPE_CHECKING:  # pragma: no cover - circular import at run time
    from ..compiler.driver import CompiledProgram
    from ..faults.injector import FaultInjector
    from ..faults.plan import InjectionPlan

InputSet = dict[str, np.ndarray]


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

    @classmethod
    def of(cls, index: int, error: Exception, attempts: int = 1, report=()):
        """The record of item ``index`` ending in ``error``."""
        name, message = type(error).__name__, str(error)
        return cls(index, name, message, attempts, tuple(report))

    def describe(self) -> str:
        plural = "s" if self.attempts != 1 else ""
        return (
            f"item {self.index} failed after {self.attempts} attempt"
            f"{plural}: {self.error_type}: {self.message}"
        )


class ColumnResults(Sequence):
    """A column run's items as a read-only sequence: item ``i``'s
    :class:`SimulationResult` (row ``i`` of each output array, a view,
    and the shared metrics) is built when read; a failed item is
    ``None``."""

    def __init__(self, outputs: dict[str, np.ndarray], metrics, failed, n):
        self._outputs, self._metrics, self._failed = outputs, metrics, failed
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._item(i) for i in range(self._n)[index]]
        item = operator.index(index)
        if item < 0:
            item += self._n
        if not 0 <= item < self._n:
            raise IndexError("ColumnResults index out of range")
        return self._item(item)

    def __iter__(self):
        return map(self._item, range(self._n))

    def _item(self, item: int) -> SimulationResult | None:
        if item in self._failed:
            return None
        rows = {name: out[item] for name, out in self._outputs.items()}
        return SimulationResult(rows, self._metrics)

    def __eq__(self, other) -> bool:
        return list(self) == other


@dataclass
class BatchResult:
    """All per-item results of one batched run, plus aggregate stats.

    ``results`` is aligned with the input items; an unrecoverable item
    leaves ``None`` at its position and a matching :class:`ItemFailure`
    in ``failures`` (partial results are first-class: the other items
    are complete and bit-identical to one-shot runs).  A fault-free
    serial batch's ``results`` are :class:`ColumnResults` over its
    ``arrays``; other batches keep a list of their items' own results.
    """

    results: Sequence[SimulationResult | None]
    wall_seconds: float
    processes: int = 1
    #: Structured records for items that failed every attempt.
    failures: list[ItemFailure] = field(default_factory=list)
    #: Total retries performed across the batch.
    retries: int = 0
    #: Items decided by the batch's one run over NumPy columns.
    value_items: int = 0
    #: Items run one by one (fault-injected and pool batches); an item
    #: whose inputs fail validation is never run.
    fallback_items: int = 0
    #: The machine metrics every completed item shares (schedules are
    #: data-independent); ``None`` when no item completed.
    metrics: MachineMetrics | None = None
    #: Each output as one ``(items, n)`` array, row ``i`` item ``i``'s
    #: (:meth:`outputs` returns it when no item failed).
    arrays: dict[str, np.ndarray] = field(default_factory=dict)

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
        """Machine cycles over the completed items, run back to back:
        the column run's items share one static schedule, and items run
        one by one count their own (an injected stall lengthens one)."""
        if not isinstance(self.results, ColumnResults):
            return sum(r.total_cycles for r in self.results if r is not None)
        if self.metrics is None:
            return 0
        return self.metrics.total_cycles * (self.n_items - self.n_failures)

    @property
    def cycles_per_item(self) -> float:
        return self.total_cycles / max(self.n_items - self.n_failures, 1)

    @property
    def items_per_second(self) -> float:
        return self.n_items / max(self.wall_seconds, 1e-12)

    def outputs(self, name: str) -> np.ndarray:
        """One output array across the batch, on a leading item axis.
        Raises if any item failed."""
        return self.stacked_outputs()[name]

    def stacked_outputs(self) -> dict[str, np.ndarray]:
        """Every output across the batch (the kept arrays, not copies).
        Raises if any item failed."""
        if self.failures:
            raise ValueError(
                f"batch has {self.n_failures} failed item(s) "
                f"({', '.join(str(f.index) for f in self.failures)}); "
                "read BatchResult.failures / per-item results instead of "
                "the stacked outputs"
            )
        return dict(self.arrays)


# Worker-process state: each pool worker holds its own machine, built
# once from the pickled program shipped by the initializer, plus the
# (optional) injection plan shipped as JSON.
_worker_machine: WarpMachine | None = None
_worker_plan: "InjectionPlan | None" = None


def _init_worker(program_blob: bytes, plan_doc: dict | None) -> None:
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


class BatchRunner:
    """Stream many input sets through one compiled program.

    ``processes=0`` (the default) runs items sequentially on one reused
    machine.  ``processes=N`` with N > 1 fans items out over a pool of
    N workers; results still come back in item order.

    ``max_retries`` retries a failed fault-injected or pool item
    (transient faults, crashed or hung workers) at once; a fault-free
    serial batch has nothing to retry.  ``item_timeout`` bounds each
    item's wall time in pool mode (in-process runs cannot be preempted,
    so the timeout applies to simulated hangs only).  Items that
    exhaust their retries become :class:`ItemFailure` records, never
    exceptions.
    """

    def __init__(
        self,
        program: "CompiledProgram",
        processes: int = 0,
        faults: "InjectionPlan | None" = None,
        max_retries: int = 0,
        item_timeout: float | None = None,
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
        pooled = self.processes > 1 and len(input_sets) > 1
        if self.faults is None and not pooled:
            arrays, metrics, errors = self._machine.run_columns(input_sets)
            n = len(input_sets)
            batch = BatchResult(
                ColumnResults(arrays, metrics, errors, n),
                0.0,
                failures=[ItemFailure.of(i, e) for i, e in errors.items()],
                value_items=n,
                metrics=metrics,
                arrays=arrays,
            )
        else:
            batch = self._run_each(input_sets, pooled)
        batch.wall_seconds = time.perf_counter() - started
        obs = get_telemetry()
        obs.counter("exec.batch.items", batch.n_items)
        obs.counter("exec.batch.cycles", batch.total_cycles)
        if batch.value_items:
            obs.counter("exec.batch.value_items", batch.value_items)
        if batch.fallback_items:
            obs.counter("exec.batch.fallback_items", batch.fallback_items)
        if batch.failures:
            obs.counter("exec.batch.failures", batch.n_failures)
        return batch

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
        A :class:`~repro.errors.SimulationError` is retried at once until
        ``max_retries`` is spent, unless it is a
        :class:`~repro.errors.FatalFault`; then the item becomes an
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
                # A fatal fault is structural: no retry can clear it.
                spent = len(retried) == self.max_retries
                if spent or isinstance(error, FatalFault):
                    report = injector.report() if injector else ()
                    failure = ItemFailure.of(
                        index, error, len(retried) + 1, report
                    )
                    return failure, len(retried)
                retried.append(error)
                get_telemetry().counter("retry.count")

    def _run_each(
        self, input_sets: Sequence[InputSet], pooled: bool
    ) -> BatchResult:
        """A fault-injected or pool batch: every item validated once,
        then each valid item on its own run under the retry policy.  An
        item whose inputs fail validation is an :class:`ItemFailure`
        after that one attempt, never run."""
        layout = self._program.host_program.layout
        _, invalid = load_inputs(layout, input_sets)
        valid = [i for i in range(len(input_sets)) if i not in invalid]
        if pooled:
            ran = self._run_pool(input_sets, valid)
        else:
            ran = {
                i: self.run_item(i, functools.partial(self._attempt, inputs))
                for i, inputs in enumerate(input_sets)
                if i not in invalid
            }
        ran.update((i, (ItemFailure.of(i, e), 0)) for i, e in invalid.items())
        batch = BatchResult(
            [None] * len(input_sets), 0.0, self.processes if pooled else 1,
            fallback_items=len(valid),
        )
        for index, (outcome, retries) in sorted(ran.items()):
            batch.retries += retries
            if isinstance(outcome, ItemFailure):
                batch.failures.append(outcome)
            else:
                batch.results[index] = outcome
        done = [result for result in batch.results if result is not None]
        batch.metrics = done[0].machine_metrics if done else None
        if done and batch.ok:
            batch.arrays = {
                name: np.stack([result.outputs[name] for result in done])
                for name in done[0].outputs
            }
        return batch

    # Serial path ---------------------------------------------------------

    def _attempt(
        self, inputs: InputSet, _retried: list, injector
    ) -> SimulationResult:
        """One fault-injected (so checked) attempt on the reused machine,
        with in-process stand-ins for worker kill/hang faults, so serial
        runs exercise the same plans deterministically."""
        from ..faults.plan import FaultKind

        spec = injector.worker_action()
        if spec is None:
            return self._machine.run(inputs, faults=injector)
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
        self, input_sets: Sequence[InputSet], items: list[int]
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
            pending = {
                index: pool.apply_async(
                    _run_worker_item, ((index, 0, input_sets[index]),)
                )
                for index in items
            }

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
                for index in items
            }
