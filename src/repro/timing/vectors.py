"""Five-vector characterisation of I/O statements (Section 6.2.1).

Every static send/receive statement is described by five vectors of
``k`` elements, one per enclosing loop (outermost first), where the
statement itself counts as an innermost single-iteration loop:

* ``R`` — number of iterations;
* ``N`` — number of I/Os *of the statement's stream* in one iteration;
* ``S`` — ordinal of the first stream I/O in the loop with respect to
  the enclosing loop;
* ``L`` — time of execution of one iteration;
* ``T`` — time the first iteration starts, relative to the enclosing
  loop.

A *stream* is one matching domain: e.g. all sends to the right on
channel X form the output stream that the right neighbour's
receives-from-left on X consume, ordinal by ordinal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..cellcodegen.emit import (
    CellCode,
    IOEvent,
    ScheduledBlock,
    ScheduledItem,
    block_runs,
)
from ..ir.dag import OpKind, QueueRef
from ..lang.ast import Channel, Direction


@dataclass(frozen=True)
class Stream:
    """A matching domain of I/O operations."""

    kind: OpKind  # RECV or SEND
    queue: QueueRef

    def matches(self, event: IOEvent) -> bool:
        return event.kind is self.kind and event.queue == self.queue

    def __str__(self) -> str:
        return f"{self.kind.value}({self.queue})"


def output_stream(channel: Channel) -> Stream:
    """Sends to the right neighbour on ``channel``."""
    return Stream(OpKind.SEND, QueueRef(Direction.RIGHT, channel))


def input_stream(channel: Channel) -> Stream:
    """Receives from the left neighbour on ``channel``."""
    return Stream(OpKind.RECV, QueueRef(Direction.LEFT, channel))


@dataclass(frozen=True)
class IOCharacterization:
    """The (R, N, S, L, T) vectors for one static I/O statement."""

    io_index: int
    stream: Stream
    R: tuple[int, ...]
    N: tuple[int, ...]
    S: tuple[int, ...]
    L: tuple[int, ...]
    T: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.R)

    @property
    def total_executions(self) -> int:
        total = 1
        for r in self.R:
            total *= r
        return total


def count_stream_events(items: list[ScheduledItem], stream: Stream) -> int:
    """Dynamic events of ``stream`` in one execution of ``items``."""
    return stream_event_counts(items, (stream,))[0]


def stream_event_counts(
    items: list[ScheduledItem], streams: Sequence[Stream]
) -> list[int]:
    """:func:`count_stream_events` of each of ``streams``, in one pass."""
    lookup = {(stream.kind, stream.queue): s for s, stream in enumerate(streams)}
    counts = [0] * len(streams)
    for block, runs in block_runs(items):
        for event in block.io_events:
            s = lookup.get((event.kind, event.queue))
            if s is not None:
                counts[s] += runs
    return counts


def characterize_stream(
    code: CellCode, stream: Stream
) -> list[IOCharacterization]:
    """Compute the five vectors of every static statement in ``stream``,
    in program order."""
    return characterize_streams(code, (stream,))[0]


def characterize_streams(
    code: CellCode, streams: Sequence[Stream]
) -> list[list[IOCharacterization]]:
    """:func:`characterize_stream` of each of ``streams``, from one walk
    of the loop tree: each loop's events per iteration and iteration
    length are summed once, as its body's walk returns."""
    lookup = {(stream.kind, stream.queue): s for s, stream in enumerate(streams)}
    # Per statement: (stream, io_index, enclosing loop frames, S, T).
    # A frame is [trip, per-stream S, T, per-stream N, L]; N and L are
    # filled in when the loop's body has been walked.
    found: list[tuple[int, int, tuple[list, ...], int, int]] = []

    def walk(items: list[ScheduledItem], loops: tuple[list, ...]):
        """One context (the program, or one loop-body iteration): its
        events of each stream and its cycles."""
        counts = [0] * len(streams)
        offset = 0
        for item in items:
            if isinstance(item, ScheduledBlock):
                for event in item.io_events:
                    s = lookup.get((event.kind, event.queue))
                    if s is not None:
                        found.append(
                            (s, event.io_index, loops, counts[s], offset + event.cycle)
                        )
                        counts[s] += 1
                offset += item.length
            else:
                frame = [item.trip, tuple(counts), offset]
                per_iter, iter_len = walk(item.body, (*loops, frame))
                frame += (per_iter, iter_len)
                for s, n in enumerate(per_iter):
                    counts[s] += item.trip * n
                offset += item.trip * iter_len
        return counts, offset

    walk(code.items, ())
    results: list[list[IOCharacterization]] = [[] for _ in streams]
    for s, io_index, loops, count, cycle in found:
        results[s].append(
            IOCharacterization(
                io_index=io_index,
                stream=streams[s],
                R=tuple(f[0] for f in loops) + (1,),
                N=tuple(f[3][s] for f in loops) + (1,),
                S=tuple(f[1][s] for f in loops) + (count,),
                L=tuple(f[4] for f in loops) + (1,),
                T=tuple(f[2] for f in loops) + (cycle,),
            )
        )
    return results
