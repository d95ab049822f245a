"""The Warp machine: array + IU + host, orchestrated.

Cells run under the skewed computation model: cell ``i`` starts at cycle
``i * skew``.  Because compilable programs communicate strictly left to
right, the simulator executes the cells in order — each to completion —
which is *exactly* equivalent to lock-step execution (a cell's behaviour
depends only on its own deterministic schedule and the timestamps of the
items in its input queues) and lets queue underflow, bandwidth and
capacity violations be detected precisely.

The IU's address emissions propagate down the address path with a
one-cycle hop per cell; every cell sees the same address stream, delayed
by its position, and dequeues it in lock step with its own schedule.

Schedules are data-independent, so a clean run only moves values
(:meth:`WarpMachine._values`): its metrics and verdicts come once per
program from the plan's static transfer timeline
(:meth:`~repro.machine.plan.ExecutionPlan.timeline`), its trace's cycles
from the same timeline and its block spans from each cell's start
cycle.  Fault-injected runs and ``repro compare`` take the checked
path (:meth:`WarpMachine._execute`), whose cells raise at the first
failing check; so does a program whose timeline fails, on zeroed
inputs, to raise that check's exact error.  A result keeps each run fact once, in
its :class:`~repro.obs.metrics.MachineMetrics`: one ``CellMetrics`` per
cell and one ``QueueMetrics`` per queue, peak occupancy included.  A
checked run's trace and block spans are read off its finished queues
and cell start cycles, not recorded while it runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..errors import SilentCorruptionDetected, SimulationError
from ..lang.ast import Channel
from ..obs import chrome_trace, get_telemetry
from ..obs.metrics import (
    CellMetrics,
    CellSpans,
    MachineMetrics,
    QueueMetrics,
    queue_metrics,
)

if TYPE_CHECKING:  # pragma: no cover - avoid circular import at run time
    from ..compiler.driver import CompiledProgram
    from ..faults.injector import FaultInjector
    from ..faults.plan import InjectionPlan
from .cell import CellExecutor
from .host import HostMemory, collect_outputs, feed_input_queues, load_inputs
from .plan import ExecutionPlan
from .queue import TimedQueue, audit
from .trace import TraceEvent, trace_events


@dataclass
class SimulationResult:
    """Outputs and statistics of one run."""

    outputs: dict[str, np.ndarray]
    #: Cycle-level metrics: per-cell busy/stall/idle breakdown and
    #: operation counts, per-queue high-water marks and residency, IU
    #: address-path statistics.
    machine_metrics: MachineMetrics
    trace: list[TraceEvent] = field(default_factory=list)
    #: Per-cell block execution spans (only when
    #: ``simulate(..., record=True)``; feeds the Chrome-trace exporter).
    #: Built from the plan and each cell's start cycle, on the value
    #: path and the checked path alike.
    record: list[CellSpans] | None = None
    #: Descriptions of every fault injected into this run (empty for
    #: clean runs; filled from the active
    #: :class:`~repro.faults.FaultInjector`).
    fault_report: list[str] = field(default_factory=list)

    @property
    def total_cycles(self) -> int:
        return self.machine_metrics.total_cycles

    @property
    def skew(self) -> int:
        return self.machine_metrics.skew

    def output(self, name: str, shape: tuple[int, ...] | None = None) -> np.ndarray:
        data = self.outputs[name]
        if shape:
            return data.reshape(shape)
        return data


class WarpMachine:
    """A configured Warp machine ready to run compiled programs.

    The static state of a program (its :class:`ExecutionPlan`) lives on
    the program, so every machine and run of it shares one."""

    def __init__(self, program: "CompiledProgram"):
        self._program = program
        self._config = program.config

    @property
    def plan(self) -> ExecutionPlan:
        """The program's shared static simulation state (built lazily)."""
        return self._program.execution_plan

    def run(
        self,
        inputs: dict[str, np.ndarray],
        trace_limit: int = 0,
        record: bool = False,
        faults: "InjectionPlan | FaultInjector | None" = None,
    ) -> SimulationResult:
        """One run of the program on ``inputs``.  A fault-injected run
        takes the checked path (:meth:`_execute`); every other run,
        traced or recorded too, only moves values on the plan's
        verdicts, and takes its trace's cycles from the plan's static
        timeline and its block spans from each cell's start cycle."""
        injector = _injector_of(faults)
        memory = HostMemory.from_inputs(
            self._program.host_program.layout, inputs
        )
        if injector is not None:
            get_telemetry().counter("machine.runs.checked")
            return self._execute(memory, trace_limit, record, injector)
        outputs, metrics, trace = self._values(
            memory, self.plan.value_driver, trace_limit
        )
        spans = self._spans(metrics.cells) if record else None
        return SimulationResult(outputs, metrics, trace, spans)

    def run_columns(
        self, input_sets: Sequence[dict[str, np.ndarray]]
    ) -> tuple[
        dict[str, np.ndarray], MachineMetrics | None, dict[int, SimulationError]
    ]:
        """Every item of ``input_sets`` from one value-path run over NumPy
        columns (one ``(elements, items)`` column per host array): each
        host array as one C-contiguous ``(items, elements)`` array, the
        ``MachineMetrics`` every item shares, and by item index the
        error of each item without a result.  An item that fails input
        validation keeps its :func:`load_inputs` error; if the run
        raises a :class:`~repro.errors.SimulationError`, every other
        item gets that error, which does not depend on the data."""
        layout = self._program.host_program.layout
        memory, errors = load_inputs(layout, input_sets)
        items = range(len(input_sets))
        if len(errors) == len(items):
            return {}, None, errors
        try:
            with np.errstate(all="ignore"):
                columns, metrics, _ = self._values(memory, self.plan.column_driver)
        except SimulationError as error:
            return {}, None, {item: errors.get(item, error) for item in items}
        outputs = {name: out.T.copy() for name, out in columns.items()}
        return outputs, metrics, errors

    def _values(
        self,
        memory: HostMemory,
        drive: Callable[[tuple], None],
        trace_limit: int = 0,
    ) -> tuple[dict[str, np.ndarray], MachineMetrics, list[TraceEvent]]:
        """The outputs, static metrics and trace (each cell's first
        ``trace_limit`` transfers) of a clean run that only moves
        values: each cell runs the inline driver ``drive`` over fresh
        memory (its registers are the driver's locals), on its left
        neighbour's words.

        Metrics come from the plan's static transfer timeline, kept
        once it passed; if it fails, the checked path on zeroed inputs
        (no evaluator raises, so the verdicts hold for every input)
        raises the exact error of the check that fails first, and a
        checked run that passes there is a simulator fault."""
        plan = self.plan
        if plan.facts is None:
            with get_telemetry().span("machine.timeline"):
                facts, passed = plan.timeline()
            if not passed:
                layout = self._program.host_program.layout
                self._execute(HostMemory.from_inputs(layout, {}))
                raise SimulationError(
                    "static timeline failed a check the checked run passed"
                )
            plan.facts = facts
        get_telemetry().counter("machine.runs.value")
        links = [feed_input_queues(plan.feed, memory, dict.fromkeys(Channel))]
        for _cell in range(self._program.n_cells):
            # Only a trace reads the earlier links.
            left = links[-1] if trace_limit else links.pop()
            receive = [iter(queue.values).__next__ for queue in left.values()]
            links.append({channel: TimedQueue("") for channel in Channel})
            send = [queue.values.append for queue in links[-1].values()]
            data = [0.0] * plan.memory_words
            drive((data, *receive, *send, iter(plan.addresses).__next__))
        collect_outputs(plan.collection, memory, links[-1])
        outputs = {
            name: memory.arrays[name].copy()
            for name in self._program.ir.host_arrays
        }
        # Cell c makes its transfers at its start plus one cell run's.
        for cell in plan.facts.cells if trace_limit else ():
            for channel in Channel:
                start, at = cell.start_cycle, plan.transfers
                links[cell.cell][channel].recv_times = (
                    at[f"r{channel}"][:trace_limit] + start
                ).tolist()
                links[cell.cell + 1][channel].send_times = (
                    at[f"s{channel}"][:trace_limit] + start
                ).tolist()
        # Fresh containers over immutable leaves: no result aliases another.
        return outputs, replace(
            plan.facts, cells=list(plan.facts.cells),
            queues=dict(plan.facts.queues),
        ), trace_events(links, trace_limit)

    def _execute(
        self,
        memory: HostMemory,
        trace_limit: int = 0,
        record: bool = False,
        injector: "FaultInjector | None" = None,
    ) -> SimulationResult:
        """Feed ``memory`` through every cell and collect the outputs
        back into it, with every run-time check, each raising at the
        transfer or block that fails it: the reference path, and the one
        of fault-injected runs and of a plan whose timeline failed."""
        program = self._program
        plan = self.plan
        n_cells = program.n_cells
        skew = program.skew.skew

        # Inter-cell data queues; index i connects cell i-1 -> cell i
        # (index 0 is the host boundary, index n_cells the collector).
        # Without an injector they are plain TimedQueues; an active one
        # swaps in integrity-checked FaultyQueues (and may shrink
        # capacities).  The host boundary is filled whole by the feeder;
        # no injector touches its words.
        def capacities(i: int) -> dict[Channel, int | None]:
            default = None if i == 0 else self._config.queue_depth
            return {
                channel: default
                if injector is None
                else injector.link_capacity(i, channel.value, default)
                for channel in (Channel.X, Channel.Y)
            }

        links = [feed_input_queues(plan.feed, memory, capacities(0))]
        for i in range(1, n_cells + 1):
            link: dict[Channel, TimedQueue] = {}
            for channel, capacity in capacities(i).items():
                name = f"link{i}.{channel.value}"
                if injector is not None:
                    from ..faults.injector import FaultyQueue

                    link[channel] = FaultyQueue(
                        injector=injector, name=name, capacity=capacity
                    )
                else:
                    link[channel] = TimedQueue(name=name, capacity=capacity)
            links.append(link)

        # Address path: the same IU stream per cell, delayed by the hop
        # latency; emitted FIFO order is preserved.  Every cell reads the
        # plan's address list.
        hop = self._config.address_hop_latency
        cells: list[CellMetrics] = []
        addresses: list[QueueMetrics] = []
        # A healthy cell ends exactly its run's cycles after its nominal
        # start; the watchdog allows the configured slack past that.
        budget = program.cell_code.total_cycles + self._config.watchdog_slack
        for cell_index in range(n_cells):
            nominal_start = cell_index * skew
            start = nominal_start
            if injector is not None:
                start += injector.stall_cycles(cell_index)
            address_sends = plan.emission_times + cell_index * hop
            address_queue = TimedQueue(
                name=f"adr{cell_index}",
                capacity=self._config.address_queue_depth,
                send_times=address_sends.tolist(),
                values=plan.addresses,
            )
            executor = CellExecutor(
                code=program.cell_code,
                config=self._config.cell,
                cell_index=cell_index,
                start_time=start,
                in_queues=links[cell_index],
                out_queues=links[cell_index + 1],
                address_queue=address_queue,
                counts=plan.counts,
                memory_words=plan.memory_words,
                deadline=nominal_start + budget,
                driver=plan.driver,
            )
            cells.append(executor.run())
            # Audited before the next cell; the run's metrics keep this
            # measurement.
            [measured], _passed = queue_metrics([address_queue.times()])
            addresses.append(audit(measured))

        # Stream accounting: schedules are data-independent, so every
        # link a cell sends on must carry *exactly* the static per-run
        # send count — a dropped or duplicated send diverges here even
        # when it would never underflow (unconsumed pads are otherwise
        # legal).  The flow-controlled host boundary (link 0) is fed
        # whole.  Metrics cover link 0, the audited inter-cell links and
        # the address queues; the host drains the collector link outside
        # cell time, so its occupancy is not a machine property.
        metrics = queue_metrics(
            [queue.times() for link in links[:n_cells] for queue in link.values()]
        )[0]
        queues = {m.name: m for m in metrics + addresses}
        for i in range(1, n_cells):
            for channel, queue in links[i].items():
                audit(queues[queue.name])
                _account(queue, i - 1, plan.counts.sends[channel])
        if injector is not None:
            # Words the program never dequeued still get their parity
            # swept (the collector reads link n_cells values directly).
            from ..faults.injector import FaultyQueue

            for link in links[1:]:
                for queue in link.values():
                    if isinstance(queue, FaultyQueue):
                        queue.verify_integrity()
        # The collector link is counted after the sweep, which names the
        # word a fault hit when its tags show it.
        for channel, queue in links[n_cells].items():
            _account(queue, n_cells - 1, plan.counts.sends[channel])
        collect_outputs(plan.collection, memory, links[n_cells])
        outputs = {
            name: memory.arrays[name].copy()
            for name in program.ir.host_arrays
        }
        return SimulationResult(
            outputs=outputs,
            machine_metrics=plan.machine_metrics(cells, queues),
            trace=trace_events(links, trace_limit),
            record=self._spans(cells) if record else None,
            fault_report=injector.report() if injector is not None else [],
        )

    def _spans(self, cells: list[CellMetrics]) -> list[CellSpans]:
        """Each cell's block spans from its start cycle, every lane
        capped at its share of the Chrome trace's spans."""
        limit = chrome_trace.MAX_BLOCK_SPANS // self._program.n_cells
        return self.plan.spans(cells, limit)


def _account(queue: TimedQueue, cell: int, expected: int) -> None:
    """Raise unless ``cell`` sent ``queue`` its static per-run count."""
    if queue.items_sent != expected:
        get_telemetry().counter("fault.detected")
        raise SilentCorruptionDetected(
            f"{queue.name}: stream accounting failed — cell {cell} sent "
            f"{queue.items_sent} words but the static schedule sends "
            f"exactly {expected} per run"
        )


def _injector_of(faults) -> "FaultInjector | None":
    """Normalise ``faults=`` (plan, injector or None) lazily, keeping
    the clean path free of any faults-package import."""
    if faults is None:
        return None
    from ..faults.injector import FaultInjector

    return FaultInjector.of(faults)


def simulate(
    program: "CompiledProgram",
    inputs: dict[str, np.ndarray],
    trace_limit: int = 0,
    record: bool = False,
    faults: "InjectionPlan | FaultInjector | None" = None,
) -> SimulationResult:
    """Run a compiled program on the simulated Warp machine.

    ``record=True`` additionally builds each cell's per-block execution
    spans (``result.record``), which the Chrome-trace exporter turns
    into per-cell lanes; ``trace_limit=N`` keeps each cell's first ``N``
    sends and receives (``result.trace``, Figure 4-2).

    ``faults`` injects a deterministic :class:`~repro.faults.InjectionPlan`
    into the run (see ``docs/robustness.md``); every injected fault is
    either absorbed bit-identically or surfaces as a structured
    :class:`~repro.errors.SimulationError` — never a silent wrong
    answer."""
    return WarpMachine(program).run(
        inputs, trace_limit=trace_limit, record=record, faults=faults
    )
