"""Cycle-accurate execution of one Warp cell's microcode.

The executor runs the program's timed driver
(:func:`~repro.machine.plan.inline_driver` with ``timed=True``): nested
loops over the scheduled program tree that carry an absolute cycle
counter (the cell's start is offset by its skew), run each scheduled
block's straight-line statements inline, each block loading the
registers it reads from the register file and storing those it writes,
and check the watchdog deadline after every block.  Pipelining is
modelled exactly: an operation issued at cycle ``t`` with latency ``L``
writes its destination register at ``t + L``; reads at or after that
cycle see the new value, earlier reads see the old one.  Because the
schedule fixes every issue and writeback cycle, the generator resolves
each read to the value it sees once, at plan time — precisely the
semantics the scheduler's latency edges assume, so any scheduler bug
surfaces as a wrong result against the reference interpreter.

Every queue transfer is one call at its absolute cycle to the queue's
checking method (:meth:`~repro.machine.queue.TimedQueue.dequeue`,
:meth:`~repro.machine.queue.TimedQueue.enqueue`), so a cell raises at
the transfer that fails.  Only the machine's checked path
(:meth:`~repro.machine.array.WarpMachine._execute`) runs cells:
fault-injected runs, ``repro compare``'s measurement, the reference run
tests compare with, and the run that raises the exact error of a
program whose static timeline fails a check.  A finished run returns
the cell's :class:`~repro.obs.metrics.CellMetrics`, whose operation
counts are the static per-run totals
(:meth:`~repro.cellcodegen.emit.OpCounts.of_run`).
Nothing else is recorded on the way: a run's trace and block spans are
built afterwards from its queues and start cycles
(:mod:`repro.machine.trace`, :meth:`~repro.machine.plan.ExecutionPlan.spans`).
"""

from __future__ import annotations

import math
from typing import Callable

from ..analysis.local_opt import pure_evaluator
from ..cellcodegen.emit import CellCode, OpCounts
from ..errors import CellHangError
from ..lang.ast import Channel
from ..config import CellConfig
from ..obs import get_telemetry
from ..obs.metrics import CellMetrics
from .plan import cell_metrics, inline_driver
from .queue import TimedQueue


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
        counts: OpCounts | None = None,
        memory_words: int | None = None,
        deadline: int | None = None,
        driver: Callable | None = None,
    ):
        self._cell = cell_index
        self._start = start_time
        #: Watchdog: absolute cycle by which the cell must have
        #: finished.  Healthy cells finish exactly on their statically
        #: predicted cycle, so the deadline (predicted end + slack) can
        #: only be crossed by a stalled or hung cell.
        self._deadline = deadline
        #: One run's operation totals: the plan's ``counts`` when the
        #: caller supplies them, otherwise counted here.
        self._counts = counts if counts is not None else OpCounts.of_run(code)
        #: The timed loop driver of ``code`` (the plan's when supplied).
        self._driver = driver if driver is not None else inline_driver(
            code, config, pure_evaluator, timed=True
        )
        self._registers = [0.0] * config.n_registers
        #: Data memory: the plan's ``memory_words`` (one past the
        #: largest static address) when supplied, else the whole memory.
        self._memory = [0.0] * (
            config.memory_words if memory_words is None else memory_words
        )
        rx, ry = in_queues[Channel.X], in_queues[Channel.Y]
        sx, sy = out_queues[Channel.X], out_queues[Channel.Y]
        #: What the timed driver runs against: one checking call per
        #: transfer.
        self._ctx = (
            self._registers, self._memory,
            rx.dequeue, ry.dequeue, sx.enqueue, sy.enqueue,
            address_queue.dequeue,
        )

    def run(self) -> CellMetrics:
        """Run the cell to its end."""
        deadline = math.inf if self._deadline is None else self._deadline
        end = self._driver(
            self._ctx, self._start, deadline, self._watchdog_expired
        )
        return cell_metrics(self._cell, self._start, end, self._counts)

    def _watchdog_expired(self, time: int) -> None:
        get_telemetry().counter("fault.detected")
        raise CellHangError(
            f"cell {self._cell}: watchdog expired — still executing at "
            f"cycle {time}, deadline was cycle {self._deadline} "
            f"(started at cycle {self._start}); the cell is stalled or hung"
        )
