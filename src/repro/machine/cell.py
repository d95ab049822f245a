"""Cycle-accurate execution of one Warp cell's microcode: the checked path.

The executor walks the scheduled program tree with an absolute cycle
counter (the cell's start is offset by its skew) and runs each scheduled
block as one generated straight-line function
(:class:`~repro.machine.plan.BlockPlan`).  Pipelining is modelled
exactly: an operation issued at cycle ``t`` with latency ``L`` writes
its destination register at ``t + L``; reads at or after that cycle see
the new value, earlier reads see the old one.  Because the schedule
fixes every issue and writeback cycle, the generator resolves each read
to the value it sees once, at plan time — precisely the semantics the
scheduler's latency edges assume, so any scheduler bug surfaces as a
wrong result against the reference interpreter.  Queue transfers keep
their absolute cycles, so every underflow, capacity and accounting
check runs per transfer: in a plan's one checked run, and traced,
recorded and fault-injected runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..cellcodegen.emit import CellCode, ScheduledBlock, ScheduledLoop
from ..errors import CellHangError
from ..lang.ast import Channel
from ..config import CellConfig
from ..obs import get_telemetry
from ..obs.metrics import MachineRecorder
from .plan import BlockPlan
from .queue import TimedQueue


@dataclass(frozen=True)
class TraceEvent:
    """One observable I/O action, for execution traces (Figure 4-2)."""

    cell: int
    time: int
    kind: str  # 'send' | 'receive'
    queue: str
    value: float


@dataclass(frozen=True)
class CellStats:
    cell: int
    start_time: int
    end_time: int = 0
    alu_ops: int = 0
    mpy_ops: int = 0
    mem_reads: int = 0
    mem_writes: int = 0
    receives: int = 0
    sends: int = 0
    #: Cycles that issued at least one operation (non-nop instruction).
    issue_cycles: int = 0

    @property
    def busy_cycles(self) -> int:
        return self.end_time - self.start_time

    @property
    def stall_cycles(self) -> int:
        """Schedule bubbles (latency/drain nops) inside the execution
        window."""
        return max(self.busy_cycles - self.issue_cycles, 0)

    @property
    def flop_utilization(self) -> float:
        """Floating-point issues per FPU issue slot (2 per cycle)."""
        cycles = max(self.busy_cycles, 1)
        return (self.alu_ops + self.mpy_ops) / (2 * cycles)


class CellExecutor:
    """Execute one cell's program against its queues."""

    def __init__(
        self,
        code: CellCode,
        config: CellConfig,
        cell_index: int,
        start_time: int,
        in_queues: dict[Channel, TimedQueue],
        out_queues: dict[Channel, TimedQueue],
        address_queue: TimedQueue,
        trace: Callable[[TraceEvent], None] | None = None,
        recorder: MachineRecorder | None = None,
        block_plans: dict[int, BlockPlan] | None = None,
        deadline: int | None = None,
    ):
        self._code = code
        self._config = config
        self._cell = cell_index
        self._start = start_time
        self._recorder = recorder
        #: Watchdog: absolute cycle by which the cell must have
        #: finished.  Healthy cells finish exactly on their statically
        #: predicted cycle, so the deadline (predicted end + slack) can
        #: only be crossed by a stalled or hung cell.
        self._deadline = deadline
        #: Compiled block plans: shared across cells/runs when the
        #: caller supplies them, otherwise built lazily for this cell.
        self._block_plans = block_plans if block_plans is not None else {}
        #: Executions of each block this run, by block id.
        self._runs: dict[int, int] = {}
        self._registers = [0.0] * config.n_registers
        self._memory = [0.0] * config.memory_words
        #: ``trace`` as generated code calls it: (cycle, kind, queue, value).
        emit = None if trace is None else (
            lambda *event: trace(TraceEvent(cell_index, *event))
        )
        #: What every generated block function runs against.
        self._ctx = (
            self._registers,
            self._memory,
            in_queues[Channel.X].dequeue,
            in_queues[Channel.Y].dequeue,
            out_queues[Channel.X].enqueue,
            out_queues[Channel.Y].enqueue,
            address_queue.dequeue,
            emit,
        )

    def run(self) -> CellStats:
        end = self._run_items(self._code.items, self._start)
        runs = [(self._block_plans[b], n) for b, n in self._runs.items()]
        return CellStats(
            cell=self._cell,
            start_time=self._start,
            end_time=end,
            alu_ops=sum(n * plan.alu_ops for plan, n in runs),
            mpy_ops=sum(n * plan.mpy_ops for plan, n in runs),
            mem_reads=sum(n * plan.mem_reads for plan, n in runs),
            mem_writes=sum(n * plan.mem_writes for plan, n in runs),
            receives=sum(n * sum(plan.receives.values()) for plan, n in runs),
            sends=sum(n * sum(plan.sends.values()) for plan, n in runs),
            issue_cycles=sum(n * plan.issued for plan, n in runs),
        )

    def _run_items(self, items, time: int) -> int:
        for item in items:
            if isinstance(item, ScheduledBlock):
                time = self._run_block(item, time)
                if self._deadline is not None and time > self._deadline:
                    self._watchdog_expired(time)
            else:
                assert isinstance(item, ScheduledLoop)
                for _ in range(item.trip):
                    time = self._run_items(item.body, time)
        return time

    def _watchdog_expired(self, time: int) -> None:
        get_telemetry().counter("fault.detected")
        raise CellHangError(
            f"cell {self._cell}: watchdog expired — still executing at "
            f"cycle {time}, deadline was cycle {self._deadline} "
            f"(started at cycle {self._start}); the cell is stalled or hung"
        )

    def _run_block(self, block: ScheduledBlock, time: int) -> int:
        block_id = block.block_id
        plan = self._block_plans.get(block_id)
        if plan is None:
            plan = BlockPlan.of(block, self._config)
            self._block_plans[block_id] = plan
        self._runs[block_id] = self._runs.get(block_id, 0) + 1
        if self._recorder is not None:
            self._recorder.block(
                self._cell, block_id, time, block.length, plan.issued
            )
        plan.run(self._ctx, time)
        return time + block.length
