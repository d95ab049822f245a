"""Minimum-skew computation (Section 6.2.1).

"To ensure that no underflow occurs, the initiation of the execution of
a cell is simply delayed with respect to the preceding cell until no
receive operations executed precede the corresponding send operations.
[...] the minimum skew is the maximum time difference between all
matching pairs of inputs and outputs":

    skew = max( tau_O(n) - tau_I(n) ),  0 <= n < number of inputs

Two implementations, cross-validated by property tests:

* the *exact* method enumerates both event streams (cheap with numpy up
  to millions of events).  The compiler uses it, from the same stream
  walk as the buffer sizes (:func:`compute_skew`), and refuses a stream
  longer than :data:`~repro.timing.events.MAX_STREAM_EVENTS`;
* the *bound* method is the paper's: a closed-form upper bound per pair
  of (output statement, input statement) timing functions, maximising
  each term over its interval instead of solving the exact domain
  intersection.  The verifier checks that it dominates the exact skew.

The per-channel skews combine by max; a floor of 1 keeps the address
path (one-cycle hop per cell) ahead of every consumer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cellcodegen.emit import CellCode
from ..errors import MappingError
from ..lang.ast import Channel
import numpy as np

from .events import (
    MAX_STREAM_EVENTS,
    check_budget,
    count_stream_events,
    stream_event_times,
)
from .tau import TimingFunction, time_difference_bounds
from .vectors import characterize_stream, input_stream, output_stream


@dataclass(frozen=True)
class ChannelSkew:
    """Skew requirement of one channel."""

    channel: Channel
    n_sends: int
    n_receives: int
    skew: int  # 0 when the channel imposes no constraint
    method: str  # 'exact' | 'bound' | 'none'


@dataclass(frozen=True)
class SkewResult:
    """The array's inter-cell skew and its per-channel breakdown."""

    skew: int
    channels: tuple[ChannelSkew, ...]

    def channel(self, channel: Channel) -> ChannelSkew:
        for entry in self.channels:
            if entry.channel is channel:
                return entry
        raise KeyError(channel)


def minimum_skew_exact(code: CellCode, channel: Channel) -> ChannelSkew:
    """Exact per-channel skew by full event enumeration."""
    sends = stream_event_times(code, output_stream(channel), max_events=None)
    recvs = stream_event_times(code, input_stream(channel), max_events=None)
    return _exact_from_times(channel, sends, recvs)


def _check_conservation(channel: Channel, n_sends: int, n_recvs: int) -> None:
    if n_recvs > n_sends:
        raise MappingError(
            f"channel {channel}: a cell receives {n_recvs} items from its "
            f"left neighbour but the neighbour only sends {n_sends}"
        )


def _exact_from_times(channel, sends, recvs) -> ChannelSkew:
    _check_conservation(channel, sends.size, recvs.size)
    if recvs.size == 0:
        return ChannelSkew(channel, int(sends.size), 0, 0, "none")
    # Clamp at zero: when every receive already trails its send the
    # channel imposes no constraint.  The bound method clamps the same
    # way, keeping "bound >= exact" meaningful on such channels.
    skew = max(0, int((sends[: recvs.size] - recvs).max()))
    return ChannelSkew(
        channel, int(sends.size), int(recvs.size), skew, "exact"
    )


def minimum_skew_bound(code: CellCode, channel: Channel) -> ChannelSkew:
    """The paper's closed-form upper bound on the per-channel skew.

    Considers every (output statement, input statement) pair; statements
    inside the same loops share most of the computation through the
    five-vector characterisation.
    """
    outputs = [
        TimingFunction(c) for c in characterize_stream(code, output_stream(channel))
    ]
    inputs = [
        TimingFunction(c) for c in characterize_stream(code, input_stream(channel))
    ]
    return channel_skew_bound(channel, outputs, inputs)


def channel_skew_bound(
    channel: Channel,
    outputs: list[TimingFunction],
    inputs: list[TimingFunction],
) -> ChannelSkew:
    """:func:`minimum_skew_bound` from already-built timing functions of
    the channel's output and input statements."""
    n_sends = sum(o.char.total_executions for o in outputs)
    n_recvs = sum(i.char.total_executions for i in inputs)
    _check_conservation(channel, n_sends, n_recvs)
    if not inputs or not outputs:
        return ChannelSkew(channel, n_sends, n_recvs, 0, "none")
    numerators, denominator = time_difference_bounds(outputs, inputs)
    present = [n for row in numerators for n in row if n is not None]
    # Exact to the end: a float could round a bound just above an
    # integer down to it, and the ceiling would then be one cycle short.
    skew = max(0, -(-max(present) // denominator)) if present else 0
    return ChannelSkew(channel, n_sends, n_recvs, skew, "bound")


#: Each channel's send and receive cycles, as :func:`compute_skew`
#: walked them.
ChannelTimes = dict[Channel, tuple[np.ndarray, np.ndarray]]


def compute_skew(
    code: CellCode, n_cells: int = 2
) -> tuple[SkewResult, ChannelTimes]:
    """The array's exact inter-cell skew and the channel event times it
    was computed from, each stream walked once; the buffer sizes reuse
    them.  A channel whose receives outnumber its sends raises
    :class:`~repro.errors.MappingError` (X, then Y), then a stream past
    :data:`~repro.timing.events.MAX_STREAM_EVENTS` raises
    :class:`~repro.timing.events.TooManyEventsError` (X sends first, Y
    receives last), before any walk.  One cell has no inter-cell links
    (both neighbours are the host): no constraint applies and nothing is
    walked.
    """
    streams = {
        channel: (output_stream(channel), input_stream(channel))
        for channel in (Channel.X, Channel.Y)
    }
    counts = {
        stream: count_stream_events(code.items, stream)
        for pair in streams.values()
        for stream in pair
    }
    if n_cells == 1:
        # The true static counts, for downstream conservation checks.
        channels = tuple(
            ChannelSkew(channel, counts[sends], counts[recvs], 0, "none")
            for channel, (sends, recvs) in streams.items()
        )
        return SkewResult(skew=1, channels=channels), {}
    for channel, (sends, recvs) in streams.items():
        _check_conservation(channel, counts[sends], counts[recvs])
    for stream, total in counts.items():
        check_budget(stream, total, MAX_STREAM_EVENTS)
    times = {
        channel: tuple(stream_event_times(code, s, None) for s in pair)
        for channel, pair in streams.items()
    }
    channels = tuple(
        _exact_from_times(channel, *pair) for channel, pair in times.items()
    )
    skew = max([1] + [c.skew for c in channels])
    return SkewResult(skew=skew, channels=channels), times
