"""Exact enumeration of stream event times.

The ground truth against which the five-vector timing functions are
validated, and the input to the exact skew/buffer computations.  Loops
are expanded with numpy tiling, so enumeration is cheap up to millions
of events; callers bound the cost with ``max_events`` and fall back to
the analytic method beyond it.
"""

from __future__ import annotations

import numpy as np

from ..cellcodegen.emit import CellCode, ScheduledBlock, ScheduledItem
from .vectors import Stream, _item_cycles


class TooManyEventsError(Exception):
    """Enumeration would exceed the caller's budget."""


def count_stream_events(items: list[ScheduledItem], stream: Stream) -> int:
    total = 0
    for item in items:
        if isinstance(item, ScheduledBlock):
            total += sum(1 for e in item.io_events if stream.matches(e))
        else:
            total += item.trip * count_stream_events(item.body, stream)
    return total


def stream_events(
    code: CellCode, stream: Stream, max_events: int | None = 2_000_000
) -> tuple[np.ndarray, np.ndarray]:
    """``(times, statements)`` of every dynamic event of ``stream``, in
    order: its absolute cycle and the ``io_index`` of its static
    statement, as int64 arrays."""
    _check_budget(code, stream, max_events)
    return _events(code.items, stream, labelled=True)


def stream_event_times(
    code: CellCode, stream: Stream, max_events: int | None = 2_000_000
) -> np.ndarray:
    """Absolute cycle of every dynamic event of ``stream``, in order."""
    _check_budget(code, stream, max_events)
    return _events(code.items, stream, labelled=False)[0]


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
            f"stream {stream} has {total} events (budget {max_events})"
        )


def _events(
    items: list[ScheduledItem], stream: Stream, labelled: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Event times and, when ``labelled``, their statements (else an
    empty array: the compile-time skew and buffer analyses need only the
    times, and the labels cost a second tiling)."""
    times: list[np.ndarray] = []
    statements: list[np.ndarray] = []
    offset = 0
    for item in items:
        if isinstance(item, ScheduledBlock):
            matched = [e for e in item.io_events if stream.matches(e)]
            if matched:
                times.append(
                    np.asarray([e.cycle for e in matched], dtype=np.int64)
                    + offset
                )
                if labelled:
                    statements.append(
                        np.asarray(
                            [e.io_index for e in matched], dtype=np.int64
                        )
                    )
            offset += item.length
        else:
            body_times, body_statements = _events(item.body, stream, labelled)
            iter_len = sum(_item_cycles(child) for child in item.body)
            if body_times.size:
                starts = offset + iter_len * np.arange(item.trip, dtype=np.int64)
                times.append((body_times[None, :] + starts[:, None]).ravel())
                if labelled:
                    statements.append(np.tile(body_statements, item.trip))
            offset += item.trip * iter_len
    return _concatenate(times), _concatenate(statements)


def _concatenate(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
