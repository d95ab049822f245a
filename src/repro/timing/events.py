"""Exact enumeration of stream event times.

The ground truth against which the five-vector timing functions are
validated, and the input to the exact skew/buffer computations.  Loops
are expanded with numpy tiling, so enumeration is cheap up to millions
of events; callers bound the cost with ``max_events`` and fall back to
the analytic method beyond it.  The simulator's plan tiles each
block's transfer cycles with the same :func:`tile_events`.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

import numpy as np

from ..cellcodegen.emit import CellCode, ScheduledBlock, ScheduledItem
from ..cellcodegen.emit import _item_cycles
from ..errors import CompilationError
from .vectors import Stream, count_stream_events


class TooManyEventsError(CompilationError):
    """Enumeration would exceed the caller's budget.  Callers with an
    analytic method (the skew) fall back to it; the others (the queue
    sizes) refuse the program with this error."""


def stream_events(
    code: CellCode, stream: Stream, max_events: int | None = 2_000_000
) -> tuple[np.ndarray, np.ndarray]:
    """``(times, statements)`` of every dynamic event of ``stream``, in
    order: its absolute cycle and the ``io_index`` of its static
    statement, as int64 arrays."""
    _check_budget(code, stream, max_events)
    return tile_events(code.items, partial(_stream_offsets, stream, True))


def stream_event_times(
    code: CellCode, stream: Stream, max_events: int | None = 2_000_000
) -> np.ndarray:
    """Absolute cycle of every dynamic event of ``stream``, in order."""
    _check_budget(code, stream, max_events)
    return tile_events(code.items, partial(_stream_offsets, stream, False))[0]


def stream_times_by_statement(
    code: CellCode, stream: Stream, max_events: int | None = 2_000_000
) -> dict[int, np.ndarray]:
    """Per-static-statement event times, keyed by io_index.

    The ground truth each statement's tau function is validated against
    (by the verifier and the tests)."""
    return group_by_statement(*stream_events(code, stream, max_events))


def group_by_statement(
    times: np.ndarray, statements: np.ndarray
) -> dict[int, np.ndarray]:
    """Split :func:`stream_events` output into each statement's times,
    in stream order."""
    order = np.argsort(statements, kind="stable")
    keys, starts = np.unique(statements[order], return_index=True)
    parts = np.split(times[order], starts[1:])
    return {int(key): part for key, part in zip(keys, parts)}


def _check_budget(
    code: CellCode, stream: Stream, max_events: int | None
) -> None:
    total = count_stream_events(code.items, stream)
    if max_events is not None and total > max_events:
        raise TooManyEventsError(
            f"stream {stream} has {total} events (budget {max_events}); "
            "its timing is too long to enumerate exactly"
        )


def _stream_offsets(
    stream: Stream, labelled: bool, block: ScheduledBlock
) -> tuple[np.ndarray, np.ndarray]:
    """The cycles of ``stream``'s events in ``block`` and, when
    ``labelled``, their statements (the compile-time skew and buffer
    analyses need only the times, and the labels cost a second tiling)."""
    matched = [e for e in block.io_events if stream.matches(e)]
    return (
        np.array([e.cycle for e in matched], np.int64),
        np.array([e.io_index for e in matched] if labelled else [], np.int64),
    )


def tile_events(
    items: list[ScheduledItem],
    offsets: Callable[[ScheduledBlock], tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """The absolute cycles and labels of the events of one pass over
    ``items``, in order.  ``offsets(block)`` gives the cycle of each of a
    block's events from the block's start, and their labels (an empty
    array when the caller wants none); loops tile their body's events
    with NumPy, once per trip."""
    times: list[np.ndarray] = []
    labels: list[np.ndarray] = []
    offset = 0
    for item in items:
        if isinstance(item, ScheduledBlock):
            cycles, marks = offsets(item)
            if cycles.size:
                times.append(cycles + offset)
                labels.append(marks)
            offset += item.length
        else:
            body_times, body_labels = tile_events(item.body, offsets)
            iter_len = sum(_item_cycles(child) for child in item.body)
            if body_times.size:
                starts = offset + iter_len * np.arange(item.trip, dtype=np.int64)
                times.append((body_times[None, :] + starts[:, None]).ravel())
                labels.append(np.tile(body_labels, item.trip))
            offset += item.trip * iter_len
    return _concatenate(times), _concatenate(labels)


def _concatenate(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
