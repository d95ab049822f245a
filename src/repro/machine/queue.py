"""Timestamped FIFO queues between neighbouring cells.

Because data flows strictly left-to-right in compilable programs, the
simulator runs the cells sequentially (cell 0 to completion, then cell 1,
…) while preserving exact cycle semantics: every enqueue records the
cycle it happened, and a dequeue at cycle ``t`` must find its item
already sent at some cycle ``<= t`` — otherwise the compiler's skew
guarantee failed and :class:`QueueUnderflowError` is raised.

Capacity is audited after both endpoints have run, using the same
occupancy definition as the compile-time analysis
(:func:`repro.timing.buffers.occupancy_requirement`)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import QueueCapacityError, QueueUnderflowError
from ..obs import get_telemetry
from ..obs.metrics import QueueMetrics, queue_metrics_from_times
from ..timing.buffers import occupancy_requirement


@dataclass
class TimedQueue:
    """A FIFO whose items carry the cycle they were enqueued."""

    name: str
    capacity: int | None = None  # None = flow-controlled (host boundary)
    send_times: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    recv_times: list[int] = field(default_factory=list)
    _cursor: int = 0

    def enqueue(self, time: int, value: float) -> None:
        if self.send_times and time < self.send_times[-1]:
            raise ValueError(f"{self.name}: enqueue times must not decrease")
        self.send_times.append(time)
        self.values.append(value)

    def dequeue(self, time: int) -> float:
        cursor = self._cursor
        if cursor >= len(self.values):
            get_telemetry().counter("fault.detected")
            raise QueueUnderflowError(
                f"{self.name}: dequeue at cycle {time} but only "
                f"{len(self.values)} items were ever sent"
            )
        sent = self.send_times[cursor]
        if sent > time:
            get_telemetry().counter("fault.detected")
            raise QueueUnderflowError(
                f"{self.name}: dequeue at cycle {time} of an item sent at "
                f"cycle {sent} — the skew guarantee failed"
            )
        self.recv_times.append(time)
        self._cursor = cursor + 1
        return self.values[cursor]

    @property
    def items_sent(self) -> int:
        return len(self.values)

    @property
    def items_received(self) -> int:
        return self._cursor

    def audit_capacity(self) -> QueueMetrics:
        """:meth:`to_metrics`, once the peak occupancy passed the
        capacity check (post-hoc audit)."""
        metrics = self.to_metrics()
        if self.capacity is not None and metrics.high_water > self.capacity:
            get_telemetry().counter("fault.detected")
            raise QueueCapacityError(
                f"{self.name}: peak occupancy {metrics.high_water} exceeds "
                f"the {self.capacity}-word queue"
            )
        return metrics

    def to_metrics(self) -> QueueMetrics:
        """Snapshot this queue's occupancy/residency statistics; the peak
        occupancy is the whole run's.  Each time list becomes one array,
        which the metrics keep."""
        sends = np.asarray(self.send_times, dtype=np.int64)
        recvs = np.asarray(self.recv_times, dtype=np.int64)
        return queue_metrics_from_times(
            name=self.name,
            capacity=self.capacity,
            # Times here are already absolute.
            high_water=occupancy_requirement(sends, recvs, skew=0),
            send_times=sends,
            recv_times=recvs,
        )
