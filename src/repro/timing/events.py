"""Exact enumeration of static event streams: one walk of a loop tree.

Warp schedules are static and every host I/O offset and IU address is
affine in the loop indices (Sections 6.2.1 and 6.3), so a cell's
transfers, the host's words and the IU's emissions are each one
:func:`walk_events`: every block visited once, its events evaluated
over the enclosing loops' index grids with NumPy broadcasting.  Stream
events are the ground truth the five-vector timing functions are
validated against, and the input to the compiler's skew and buffer
sizes; callers bound their cost with ``max_events``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..cellcodegen.emit import CellCode, ScheduledBlock
from ..errors import CompilationError
from .vectors import Stream, count_stream_events

#: The most events the compiler enumerates in one stream; a longer
#: stream refuses the program with :class:`TooManyEventsError`.
MAX_STREAM_EVENTS = 2_000_000


class TooManyEventsError(CompilationError):
    """A stream has more events than the caller's enumeration budget.
    The compiler has no analytic fallback: it refuses the program with
    this error (the verifier notes the skip and goes on)."""


def check_budget(stream: Stream, total: int, max_events: int) -> None:
    """Raise :class:`TooManyEventsError` when ``stream``'s ``total``
    events exceed ``max_events``."""
    if total > max_events:
        raise TooManyEventsError(
            f"stream {stream} has {total} events (budget {max_events}); "
            "its timing is too long to enumerate exactly"
        )


def stream_event_times(
    code: CellCode, stream: Stream, max_events: int | None = MAX_STREAM_EVENTS
) -> np.ndarray:
    """Absolute cycle of every dynamic event of ``stream``, in order."""
    return _walk_stream(code, stream, max_events, labelled=False)[0]


def stream_times_by_statement(
    code: CellCode, stream: Stream, max_events: int | None = MAX_STREAM_EVENTS
) -> dict[int, np.ndarray]:
    """Per-static-statement event times, keyed by io_index: the ground
    truth each statement's tau function is checked against."""
    times, statements = _walk_stream(code, stream, max_events, labelled=True)
    order = np.argsort(statements, kind="stable")
    keys, starts = np.unique(statements[order], return_index=True)
    parts = np.split(times[order], starts[1:])
    return {int(key): part for key, part in zip(keys, parts)}


def _walk_stream(
    code: CellCode, stream: Stream, max_events: int | None, labelled: bool
) -> tuple[np.ndarray, ...]:
    """:func:`walk_streams` of ``stream`` alone, once its count is within
    ``max_events``."""
    if max_events is not None:
        check_budget(stream, count_stream_events(code.items, stream), max_events)
    return walk_streams(code, (stream,), labelled)[0]


def walk_streams(
    code: CellCode, streams: Sequence[Stream], labelled: bool = False
) -> list[tuple[np.ndarray, ...]]:
    """Each of ``streams``' events in order, from one walk of the loop
    tree: the absolute cycle of every event and, when ``labelled``, the
    ``io_index`` of its static statement, as int64 arrays.  There is no
    budget here: callers count the events first
    (:func:`~repro.timing.vectors.count_stream_events`)."""
    lookup = {(stream.kind, stream.queue): s for s, stream in enumerate(streams)}

    def rows(block: ScheduledBlock, _env: dict) -> list[np.ndarray] | None:
        matched = [
            (e.cycle, s, e.io_index)
            for e in block.io_events
            if (s := lookup.get((e.kind, e.queue))) is not None
        ]
        if not matched:
            return None
        return list(np.array(matched, np.int64).T)

    events = walk_events(code.items, rows, (True, False, False))
    kept = events[[0, 2] if labelled else [0]]
    order = np.argsort(events[1], kind="stable")
    bounds = np.cumsum(np.bincount(events[1], minlength=len(streams)))[:-1]
    return [tuple(part) for part in np.split(kept[:, order], bounds, axis=1)]


def walk_events(
    items: list, rows: Callable[..., list | None], times: tuple[bool, ...]
) -> np.ndarray:
    """The events of one pass over the loop tree ``items``, in order, as
    a ``(len(times), events)`` int64 array.

    A loop is an item with a ``body`` (``ScheduledLoop``, ``IULoop``); a
    block lasts ``length`` cycles.  ``rows(block, env)`` gives a block's
    events as ``len(times)`` rows (or None without any): an array of one
    static value per event, or a list of one value per event over
    ``env``, which maps each enclosing loop index to its values as an
    array broadcasting over the loops' trip axes, outermost first (as
    ``AffineIndex.evaluate(env)`` takes it).  The rows flagged in
    ``times`` are arrays of cycles from the block's start, to which the
    walk adds it.  Each block is visited once, whatever the trips."""
    k = len(times)
    timed = [r for r, is_time in enumerate(times) if is_time]

    def visit(items, nest: tuple, shape: tuple[int, ...]):
        """The events of ``items`` in the loops ``nest``, shaped ``(k,
        *shape, per trip)`` over their trips with times from the start
        of each trip, or None; and the cycles of one pass over
        ``items``."""
        env, parts, offset = _IndexGrids(nest), [], 0
        for item in items:
            if not hasattr(item, "body"):
                block = rows(item, env)
                if block is not None and len(block[0]):
                    parts.append(_fill(block, offset, shape, times))
                offset += item.length
                continue
            events, length = visit(item.body, (*nest, item), (*shape, item.trip))
            if events is not None:
                starts = offset + length * np.arange(item.trip, dtype=np.int64)
                for r in timed:
                    events[r] += starts[:, None]
                width = item.trip * events.shape[-1]
                parts.append(events.reshape(k, *shape, width))
            offset += item.trip * length
        if len(parts) > 1:
            return np.concatenate(parts, axis=-1), offset
        return (parts[0] if parts else None), offset

    events, _cycles = visit(items, (), ())
    return np.empty((k, 0), np.int64) if events is None else events


class _IndexGrids(dict):
    """The index values of ``loops`` (outermost first) by name, built
    on first read; an inner loop's index shadows an outer one's."""

    def __init__(self, loops: tuple):
        super().__init__()
        self.loops = loops

    def __missing__(self, name: str) -> np.ndarray:
        axes = [a for a, loop in enumerate(self.loops) if loop.var == name]
        if not axes:
            raise KeyError(name)
        loop, inner = self.loops[axes[-1]], len(self.loops) - 1 - axes[-1]
        values = loop.start + loop.step * np.arange(loop.trip, dtype=np.int64)
        self[name] = grid = values.reshape(loop.trip, *(1,) * inner)
        return grid


def _fill(rows: list, start: int, shape: tuple, times: tuple) -> np.ndarray:
    """One block's ``rows`` over the trip grid, shaped ``(len(rows),
    *shape, events)``, with ``start`` added to the time rows."""
    out = np.empty((len(rows), *shape, len(rows[0])), np.int64)
    for r, row in enumerate(rows):
        if not isinstance(row, np.ndarray):
            for j, value in enumerate(row):
                out[r, ..., j] = value
        elif times[r]:
            np.add(row, start, out=out[r])
        else:
            out[r] = row
    return out
