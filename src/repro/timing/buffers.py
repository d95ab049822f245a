"""Queue-overflow analysis: minimum buffer sizes (Section 6.2.2).

"The problem of determining the minimum buffer size for the queues is
similar to determining the minimum skew" — instead of mapping ordinals
to times, we compare, over time, the number of items the sender has
enqueued against the number the (skewed) receiver has dequeued.  The
maximum difference is the buffer the channel needs.

Following the paper, overflow is *detected and reported*: compilation
raises :class:`QueueOverflowError` naming the required size, which the
user can satisfy by re-blocking the program or (in our simulator) by
enlarging the queues in :class:`~repro.machine.config.WarpConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import QueueOverflowError
from ..lang.ast import Channel
from .skew import ChannelTimes


@dataclass(frozen=True)
class BufferRequirement:
    """Minimum queue size of one channel at a given skew."""

    channel: Channel
    skew: int
    required: int


def occupancy_requirement(
    send_times: np.ndarray, recv_times: np.ndarray, skew: int
) -> int:
    """Maximum queue occupancy when the receiver runs ``skew`` cycles
    behind the sender.

    Items enter at their send cycle and leave at ``skew + recv cycle``;
    an item is counted as occupying the buffer at the instant of its
    receive (the word is still in the queue when the dequeue starts).
    """
    if send_times.size == 0:
        return 0
    if recv_times.size == 0:
        return int(send_times.size)
    shifted = recv_times.astype(np.int64) + skew
    n = min(send_times.size, recv_times.size)
    # Occupancy observed at receive k: sends no later than the receive
    # instant, minus the k items already consumed.
    arrived = np.searchsorted(send_times, shifted[:n], side="right")
    per_receive = int((arrived - np.arange(n)).max())
    # Items never received stay behind at the end.
    residual = int(send_times.size - recv_times.size)
    return max(per_receive, residual)


def minimum_buffer_sizes(
    times: ChannelTimes, skew: int
) -> list[BufferRequirement]:
    """Per-channel minimum queue sizes for the given skew, from the
    channels' event times (:func:`~repro.timing.skew.compute_skew`)."""
    return [
        BufferRequirement(channel, skew, occupancy_requirement(*pair, skew))
        for channel, pair in times.items()
    ]


def check_buffers(
    times: ChannelTimes, skew: int, queue_depth: int
) -> list[BufferRequirement]:
    """Verify every channel fits its queue; raise QueueOverflowError if
    not (reporting the required size, as the paper's compiler does).
    ``times`` are the streams :func:`~repro.timing.skew.compute_skew`
    walked, none for a one-cell program."""
    requirements = minimum_buffer_sizes(times, skew)
    for requirement in requirements:
        if requirement.required > queue_depth:
            raise QueueOverflowError(
                channel=str(requirement.channel),
                required=requirement.required,
                capacity=queue_depth,
            )
    return requirements
