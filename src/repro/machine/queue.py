"""Timestamped FIFO queues between neighbouring cells.

Because data flows strictly left-to-right in compilable programs, the
simulator runs the cells sequentially (cell 0 to completion, then cell 1,
…) while preserving exact cycle semantics: every send records the cycle
it happened and every receive the cycle it took its word.  A receive at
cycle ``t`` must find its word already sent at some cycle ``<= t``;
otherwise the compiler's skew guarantee failed.

A checked cell binds :meth:`TimedQueue.dequeue` and
:meth:`TimedQueue.enqueue`, one call per transfer at its absolute cycle,
and a receive that fails raises :class:`QueueUnderflowError` there.
Clean runs use no queue timing at all: their verdicts come from the
plan's static transfer timeline
(:meth:`~repro.machine.plan.ExecutionPlan.timeline`).

Capacity is audited after both endpoints have run, on the peak
:func:`repro.obs.metrics.queue_metrics` takes from
:func:`repro.timing.buffers.occupancy_requirement`: the simulator, the
compiler's buffer analysis and the verifier share that one rule."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import QueueCapacityError, QueueUnderflowError
from ..obs import get_telemetry
from ..obs.metrics import QueueMetrics, QueueTimes


@dataclass
class TimedQueue:
    """A FIFO whose items carry the cycle they were enqueued."""

    name: str
    capacity: int | None = None  # None = flow-controlled (host boundary)
    #: A ``range`` on link 0, which the host fills whole.
    send_times: list[int] | range = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    recv_times: list[int] = field(default_factory=list)

    def dequeue(self, time: int) -> float:
        """The next word, received at cycle ``time``: it must have been
        sent at or before ``time``."""
        received = len(self.recv_times)
        if received >= len(self.values):
            get_telemetry().counter("fault.detected")
            raise QueueUnderflowError(
                f"{self.name}: dequeue at cycle {time} but only "
                f"{len(self.values)} items were ever sent"
            )
        sent = self.send_times[received]
        if sent > time:
            get_telemetry().counter("fault.detected")
            raise QueueUnderflowError(
                f"{self.name}: dequeue at cycle {time} of an item sent at "
                f"cycle {sent} — the skew guarantee failed"
            )
        self.recv_times.append(time)
        return self.values[received]

    def enqueue(self, time: int, value: float) -> None:
        """Store ``value``, sent at cycle ``time``."""
        if self.send_times and time < self.send_times[-1]:
            raise ValueError(f"{self.name}: enqueue times must not decrease")
        self.send_times.append(time)
        self.values.append(value)

    @property
    def items_sent(self) -> int:
        return len(self.values)

    def times(self) -> QueueTimes:
        """What :func:`~repro.obs.metrics.queue_metrics` reads of this
        queue."""
        return QueueTimes(
            self.name, self.capacity, self.send_times, self.recv_times
        )


def audit(metrics: QueueMetrics) -> QueueMetrics:
    """``metrics``, once its peak occupancy passed the capacity check."""
    if metrics.capacity is not None and metrics.high_water > metrics.capacity:
        get_telemetry().counter("fault.detected")
        raise QueueCapacityError(
            f"{metrics.name}: peak occupancy {metrics.high_water} exceeds "
            f"the {metrics.capacity}-word queue"
        )
    return metrics
