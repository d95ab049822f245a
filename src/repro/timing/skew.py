"""Minimum-skew computation (Section 6.2.1).

"To ensure that no underflow occurs, the initiation of the execution of
a cell is simply delayed with respect to the preceding cell until no
receive operations executed precede the corresponding send operations.
[...] the minimum skew is the maximum time difference between all
matching pairs of inputs and outputs":

    skew = max( tau_O(n) - tau_I(n) ),  0 <= n < number of inputs

Two implementations, cross-validated by property tests:

* the *exact* method enumerates both event streams (cheap with numpy up
  to millions of events);
* the *bound* method is the paper's: a closed-form upper bound per pair
  of (output statement, input statement) timing functions, maximising
  each term over its interval instead of solving the exact domain
  intersection.

The per-channel skews combine by max; a floor of 1 keeps the address
path (one-cycle hop per cell) ahead of every consumer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cellcodegen.emit import CellCode
from ..errors import MappingError
from ..lang.ast import Channel
from .events import TooManyEventsError, count_stream_events, stream_event_times
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


def _exact_from_times(channel, sends, recvs) -> ChannelSkew:
    if recvs.size > sends.size:
        raise MappingError(
            f"channel {channel}: a cell receives {recvs.size} items from "
            f"its left neighbour but the neighbour only sends {sends.size}"
        )
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
    if n_recvs > n_sends:
        raise MappingError(
            f"channel {channel}: a cell receives {n_recvs} items from its "
            f"left neighbour but the neighbour only sends {n_sends}"
        )
    if not inputs or not outputs:
        return ChannelSkew(channel, n_sends, n_recvs, 0, "none")
    numerators, denominator = time_difference_bounds(outputs, inputs)
    present = [n for row in numerators for n in row if n is not None]
    # Exact to the end: a float could round a bound just above an
    # integer down to it, and the ceiling would then be one cycle short.
    skew = max(0, -(-max(present) // denominator)) if present else 0
    return ChannelSkew(channel, n_sends, n_recvs, skew, "bound")


def compute_skew(
    code: CellCode,
    method: str = "auto",
    max_events: int = 2_000_000,
    n_cells: int = 2,
) -> SkewResult:
    """Compute the array's inter-cell skew.

    ``method``: ``'exact'``, ``'bound'``, or ``'auto'`` (exact while the
    event count fits ``max_events``, the paper's bound beyond that).
    ``n_cells``: with a single cell there are no inter-cell links — both
    neighbours are the host — so no skew or conservation constraint
    applies.
    """
    if n_cells == 1:
        # No inter-cell links, so no constraint — but report the true
        # static send/receive counts so downstream conservation checks
        # can still cross-check them.
        return SkewResult(
            skew=1,
            channels=tuple(
                ChannelSkew(
                    channel,
                    count_stream_events(code.items, output_stream(channel)),
                    count_stream_events(code.items, input_stream(channel)),
                    0,
                    "none",
                )
                for channel in (Channel.X, Channel.Y)
            ),
        )
    channels: list[ChannelSkew] = []
    for channel in (Channel.X, Channel.Y):
        if method == "bound":
            channels.append(minimum_skew_bound(code, channel))
            continue
        if method == "exact":
            channels.append(minimum_skew_exact(code, channel))
            continue
        try:
            sends = stream_event_times(
                code, output_stream(channel), max_events=max_events
            )
            recvs = stream_event_times(
                code, input_stream(channel), max_events=max_events
            )
        except TooManyEventsError:
            channels.append(minimum_skew_bound(code, channel))
        else:
            channels.append(_exact_from_times(channel, sends, recvs))
    skew = max([1] + [c.skew for c in channels])
    return SkewResult(skew=skew, channels=tuple(channels))
