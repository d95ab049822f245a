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

from ..cellcodegen.emit import (
    CellCode,
    IOEvent,
    ScheduledBlock,
    ScheduledItem,
    block_runs,
    pass_cycles,
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
    return sum(
        runs * sum(1 for e in block.io_events if stream.matches(e))
        for block, runs in block_runs(items)
    )


def characterize_stream(
    code: CellCode, stream: Stream
) -> list[IOCharacterization]:
    """Compute the five vectors of every static statement in ``stream``,
    in program order."""
    results: list[IOCharacterization] = []
    # Each stack entry describes one enclosing loop:
    # (trip, stream-events per iteration, S, iteration length, T).
    loop_stack: list[tuple[int, int, int, int, int]] = []

    def walk(items: list[ScheduledItem]) -> None:
        """Process one context (the program, or one loop-body iteration).
        ``count``/``offset`` track stream events seen and cycles elapsed
        within this context."""
        count = 0
        offset = 0
        for item in items:
            if isinstance(item, ScheduledBlock):
                for event in item.io_events:
                    if not stream.matches(event):
                        continue
                    results.append(
                        IOCharacterization(
                            io_index=event.io_index,
                            stream=stream,
                            R=tuple(e[0] for e in loop_stack) + (1,),
                            N=tuple(e[1] for e in loop_stack) + (1,),
                            S=tuple(e[2] for e in loop_stack) + (count,),
                            L=tuple(e[3] for e in loop_stack) + (1,),
                            T=tuple(e[4] for e in loop_stack)
                            + (offset + event.cycle,),
                        )
                    )
                    count += 1
                offset += item.length
            else:
                per_iter = count_stream_events(item.body, stream)
                iter_len = pass_cycles(item.body)
                loop_stack.append((item.trip, per_iter, count, iter_len, offset))
                walk(item.body)
                loop_stack.pop()
                count += item.trip * per_iter
                offset += item.trip * iter_len

    walk(code.items)
    return results
