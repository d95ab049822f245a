"""Cycle-level machine metrics.

Everything here is computed from raw event times (enqueue/dequeue
cycles, block start cycles) so the simulator can build a
:class:`MachineMetrics` without this module ever importing the machine
package.  Times are NumPy arrays, made read-only once built so results
can share them: a queue's send and receive cycles, and a cell lane's
block span offsets (:class:`CellSpans`, which adds its cell's start).
The simulator, the compiler's buffer analysis and the verifier share
one occupancy rule,
:func:`repro.timing.buffers.occupancy_requirement`: an item occupies
the buffer from its send cycle up to *and including* the cycle of its
receive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from ..timing.buffers import occupancy_requirement


@dataclass(frozen=True)
class CellMetrics:
    """One cell's cycle breakdown and operation counts over one run: the
    simulator's only per-cell record.

    ``busy + stall + idle == array_cycles``: *busy* cycles issued at
    least one operation, *stall* cycles are schedule bubbles (latency /
    drain nops inside the cell's own execution window), *idle* covers
    the skew lead-in before the cell starts plus the tail after it
    finishes while the rest of the array drains.
    """

    cell: int
    start_cycle: int
    end_cycle: int
    #: Cycles that issued at least one operation (non-nop instruction).
    busy_cycles: int
    alu_ops: int
    mpy_ops: int
    mem_reads: int
    mem_writes: int
    receives: int
    sends: int
    #: Cycles of the whole array run (0 until the array run finished).
    array_cycles: int = 0
    #: Cycles the values this cell consumed spent waiting in its input
    #: queues (sum over receives of receive cycle - send cycle).
    receive_wait_cycles: int = 0

    @property
    def active_cycles(self) -> int:
        return self.end_cycle - self.start_cycle

    @property
    def stall_cycles(self) -> int:
        return max(self.active_cycles - self.busy_cycles, 0)

    @property
    def idle_cycles(self) -> int:
        return max(self.array_cycles - self.active_cycles, 0)

    @property
    def utilization(self) -> float:
        """Busy fraction of the whole array run."""
        total = self.busy_cycles + self.stall_cycles + self.idle_cycles
        return self.busy_cycles / max(total, 1)

    @property
    def fp_ops(self) -> int:
        return self.alu_ops + self.mpy_ops

    @property
    def flop_utilization(self) -> float:
        """Floating-point issues per FPU issue slot (2 per cycle) of the
        cell's own execution window."""
        return self.fp_ops / (2 * max(self.active_cycles, 1))


@dataclass(frozen=True)
class QueueMetrics:
    """One queue's occupancy and residency statistics."""

    name: str
    capacity: int | None
    items_sent: int
    items_received: int
    #: Peak occupancy over the run (words), by the compile-time
    #: occupancy definition.
    high_water: int
    #: Total cycles consumed items spent in the queue.
    total_wait_cycles: int
    send_times: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0, np.int64))
    recv_times: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0, np.int64))

    @property
    def mean_residency(self) -> float:
        """Average cycles an item waited before being received."""
        return self.total_wait_cycles / max(self.items_received, 1)

    def occupancy_series(self) -> tuple[np.ndarray, np.ndarray]:
        """``(cycles, occupancy)`` step series over the run.

        Items enter at their send cycle and leave strictly after their
        receive cycle, mirroring the compile-time analysis where the
        received word still occupies the buffer at the dequeue instant.
        """
        if self.send_times.size == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        # Changes: +1 at each send time, -1 just after each receive.
        times = np.concatenate([self.send_times, self.recv_times + 1])
        deltas = np.concatenate(
            [
                np.ones(self.send_times.size, np.int64),
                -np.ones(self.recv_times.size, np.int64),
            ]
        )
        order = np.argsort(times, kind="stable")
        times, deltas = times[order], deltas[order]
        occupancy = np.cumsum(deltas)
        # Merge simultaneous events into the final occupancy at each time.
        keep = np.append(times[1:] != times[:-1], True)
        return times[keep], occupancy[keep]

    def occupancy_histogram(self) -> dict[int, int]:
        """Cycles spent at each occupancy level (occupancy -> cycles)."""
        times, occupancy = self.occupancy_series()
        if times.size == 0:
            return {}
        durations = np.append(np.diff(times), 1)  # last level holds 1 cycle
        histogram: dict[int, int] = {}
        for level, duration in zip(occupancy.tolist(), durations.tolist()):
            histogram[level] = histogram.get(level, 0) + duration
        return histogram


@dataclass(frozen=True)
class IUMetrics:
    """The interface unit's address-path statistics."""

    addresses_emitted: int
    first_emit_cycle: int
    last_emit_cycle: int

    @property
    def emit_span_cycles(self) -> int:
        return max(self.last_emit_cycle - self.first_emit_cycle + 1, 0)


@dataclass(frozen=True)
class CellSpans:
    """The first block executions of one cell's run (a Chrome cell lane):
    span ``k`` runs block ``block_ids[k]`` for ``lengths[k]`` cycles
    from cycle ``start_cycle + offsets[k]``, issuing ``issued_ops[k]``
    operations.  The arrays are read-only and shared by every lane and
    run of a program; only ``start_cycle`` is the cell's own."""

    cell: int
    #: The cycle the cell's run starts.
    start_cycle: int
    block_ids: np.ndarray = field(repr=False)
    #: Each span's start relative to the cell's.
    offsets: np.ndarray = field(repr=False)
    lengths: np.ndarray = field(repr=False)
    issued_ops: np.ndarray = field(repr=False)
    #: Block executions of the run after these spans, cut by the lane cap.
    omitted: int

    @property
    def starts(self) -> np.ndarray:
        """Each span's start cycle, as a fresh read-only array."""
        starts = self.offsets + self.start_cycle
        starts.flags.writeable = False
        return starts


@dataclass(frozen=True)
class MachineMetrics:
    """Cycle-level metrics of one simulated run."""

    total_cycles: int
    skew: int
    cells: list[CellMetrics]
    #: Inter-cell data queues plus per-cell address queues, by name.
    queues: dict[str, QueueMetrics]
    iu: IUMetrics

    @property
    def busy_cycles(self) -> int:
        return sum(c.busy_cycles for c in self.cells)

    @property
    def array_utilization(self) -> float:
        """Mean busy fraction across cells."""
        if not self.cells:
            return 0.0
        return sum(c.utilization for c in self.cells) / len(self.cells)


class QueueTimes(NamedTuple):
    """One queue's transfer cycles, as :func:`queue_metrics` reads them:
    the send and the receive cycles (each a list or an ``int64``
    array), and the peak occupancy allowed (None: not audited)."""

    name: str
    capacity: int | None
    send_times: Sequence[int] | np.ndarray
    recv_times: Sequence[int] | np.ndarray


def queue_metrics(
    queues: Sequence[QueueTimes],
) -> tuple[list[QueueMetrics], np.ndarray]:
    """Every queue's :class:`QueueMetrics`, and whether it passed its
    checks, each queue measured on its own.

    A queue passes when its sends never go back in time, receive ``k``
    takes word ``k``, which was sent at or before the receive's cycle
    (no receive finds the queue empty), and its peak occupancy fits its
    capacity.  The peak is :func:`occupancy_requirement`'s (times here
    are absolute), the rule the compiler's buffer analysis and the
    verifier apply.  Each queue keeps read-only ``int64`` copies of its
    times.  The figures of a queue that failed its order checks are not
    meaningful."""
    metrics: list[QueueMetrics] = []
    passed = np.zeros(len(queues), bool)
    for k, q in enumerate(queues):
        sends = np.array(q.send_times, np.int64)
        recvs = np.array(q.recv_times, np.int64)
        sends.flags.writeable = recvs.flags.writeable = False
        paired = min(sends.size, recvs.size)
        waits = recvs[:paired] - sends[:paired]
        high_water = occupancy_requirement(sends, recvs, 0)
        passed[k] = (
            paired == recvs.size
            and not (sends[1:] < sends[:-1]).any()
            and not (waits < 0).any()
            and (q.capacity is None or high_water <= q.capacity)
        )
        metrics.append(QueueMetrics(
            name=q.name,
            capacity=q.capacity,
            items_sent=sends.size,
            items_received=recvs.size,
            high_water=high_water,
            total_wait_cycles=int(waits.sum()),
            send_times=sends,
            recv_times=recvs,
        ))
    return metrics, passed
