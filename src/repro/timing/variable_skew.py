"""Variable skew: per-receive delay insertion (Section 6.2.1).

"It is possible to vary the skew in the course of the computation.  This
alternative of inserting the necessary delays before each input
operation may lower the demand on the size of the buffers.  However, it
does not lead to higher utilization of the machine; the latency of the
computation remains the same, since it is limited by the same minimum
skew between cells."

This module computes the minimal non-decreasing per-receive delays and
the buffer savings, quantifying the paper's remark; the compiler itself
keeps the constant-skew scheme (delays in the middle of highly optimised
horizontal microcode are exactly what Section 6.2.1 warns about).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cellcodegen.emit import CellCode
from ..lang.ast import Channel
from .buffers import occupancy_requirement
from .events import stream_event_times
from .vectors import input_stream, output_stream


@dataclass(frozen=True)
class VariableSkewPlan:
    """Per-receive delays for one channel."""

    channel: Channel
    #: Delay (cycles) added before each receive, non-decreasing.
    delays: np.ndarray
    #: Buffer words needed under the variable scheme.
    buffer_required: int
    #: Buffer words needed under the constant-skew scheme.
    buffer_constant: int
    #: The constant skew (also the final delay's upper bound).
    constant_skew: int

    @property
    def final_delay(self) -> int:
        return int(self.delays[-1]) if self.delays.size else 0

    @property
    def buffer_saving(self) -> int:
        return self.buffer_constant - self.buffer_required


def receive_delays(sends: np.ndarray, recvs: np.ndarray) -> np.ndarray:
    """Minimal non-decreasing delays making every receive follow its
    send.

    Delays model stalls inserted *before* input operations: stalling
    before receive ``n`` also postpones everything after it, so the
    delay sequence is the running maximum of the per-pair requirements.
    """
    if recvs.size == 0:
        return np.zeros(0, dtype=np.int64)
    required = sends[: recvs.size] - recvs
    return np.maximum.accumulate(np.maximum(required, 0)).astype(np.int64)


def plan_variable_skew(
    code: CellCode, channel: Channel, constant_skew: int
) -> VariableSkewPlan:
    """Compare buffer demand under variable vs constant skew for one
    channel of a compiled program; a stream too long to enumerate raises
    :class:`~repro.timing.events.TooManyEventsError` (a
    :class:`~repro.errors.CompilationError`)."""
    sends = stream_event_times(code, output_stream(channel))
    recvs = stream_event_times(code, input_stream(channel))
    delays = receive_delays(sends, recvs)
    if recvs.size:
        shifted = recvs + delays
        buffer_required = occupancy_requirement(sends, shifted, skew=0)
    else:
        buffer_required = int(sends.size)
    buffer_constant = occupancy_requirement(sends, recvs, skew=constant_skew)
    return VariableSkewPlan(
        channel=channel,
        delays=delays,
        buffer_required=buffer_required,
        buffer_constant=buffer_constant,
        constant_skew=constant_skew,
    )
