"""Timestamped FIFO queues between neighbouring cells.

Because data flows strictly left-to-right in compilable programs, the
simulator runs the cells sequentially (cell 0 to completion, then cell 1,
…) while preserving exact cycle semantics: every send records the cycle
it happened and every receive the cycle it took its word.  A receive at
cycle ``t`` must find its word already sent at some cycle ``<= t``;
otherwise the compiler's skew guarantee failed.

A transfer has a time half and a value half (:meth:`TimedQueue.receiver`,
:meth:`TimedQueue.sender`), and a cell runs under one of two bindings of
them.  The *clean* binding is the queue's own list methods: no Python
frame runs per transfer, and every check waits for one NumPy pass over
all queues after the last cell (:func:`~repro.obs.metrics.queue_metrics`).
The *checked* binding calls this class's methods, which raise
:class:`QueueUnderflowError` at the receive that fails; fault-injected
runs, and the re-run of a clean run that failed a check, use it.

Capacity is audited after both endpoints have run, using the same
occupancy definition as the compile-time analysis
(:func:`repro.timing.buffers.occupancy_requirement`)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..errors import QueueCapacityError, QueueUnderflowError
from ..obs import get_telemetry
from ..obs.metrics import QueueMetrics, QueueTimes


@dataclass
class TimedQueue:
    """A FIFO whose items carry the cycle they were enqueued."""

    name: str
    capacity: int | None = None  # None = flow-controlled (host boundary)
    send_times: list[int] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    recv_times: list[int] = field(default_factory=list)
    #: The cycle of the send whose word :meth:`put` stores next.
    _send_time: int = 0

    def receiver(
        self, checked: bool
    ) -> tuple[Callable[[int], None], Callable[[], float]]:
        """A receive's ``(time half, value half)``: checked,
        :meth:`receive_at` and :meth:`take`; clean, appending the cycle
        and reading the next word."""
        if checked:
            return self.receive_at, self.take
        return self.recv_times.append, iter(self.values).__next__

    def sender(
        self, checked: bool
    ) -> tuple[Callable[[int], None], Callable[[float], None]]:
        """A send's ``(time half, value half)``: checked,
        :meth:`send_at` and :meth:`put`; clean, appending each."""
        if checked:
            return self.send_at, self.put
        return self.send_times.append, self.values.append

    def receive_at(self, time: int) -> None:
        """The time half of a checked receive: the next word must have
        been sent at or before ``time``."""
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

    def take(self) -> float:
        """The value half of a checked receive: the word it took."""
        return self.values[len(self.recv_times) - 1]

    def send_at(self, time: int) -> None:
        """The time half of a checked send."""
        if self.send_times and time < self.send_times[-1]:
            raise ValueError(f"{self.name}: enqueue times must not decrease")
        self._send_time = time

    def put(self, value: float) -> None:
        """The value half of a checked send: store ``value``, sent at
        the cycle :meth:`send_at` gave."""
        self.send_times.append(self._send_time)
        self.values.append(value)

    def enqueue(self, time: int, value: float) -> None:
        self.send_at(time)
        self.put(value)

    def dequeue(self, time: int) -> float:
        self.receive_at(time)
        return self.take()

    @property
    def items_sent(self) -> int:
        return len(self.values)

    @property
    def items_received(self) -> int:
        return len(self.recv_times)

    def times(self, expected: int | None = None) -> QueueTimes:
        """What :func:`~repro.obs.metrics.queue_metrics` reads of this
        queue; ``expected`` is the word count it must carry, if any."""
        return QueueTimes(
            self.name, self.capacity, self.send_times, self.recv_times,
            expected,
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
