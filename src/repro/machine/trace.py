"""Execution traces (Figure 4-2), read off a finished checked run.

Figure 4-2 shows the logical sequence of sends and receives on the first
two cells of the polynomial program, with arrows from each send to the
receive that consumes it.  :func:`trace_events` reads each cell's events
off the links' cycles and words once the last cell has run, and
:func:`format_two_cell_trace` renders the picture for any pair of cells."""

from __future__ import annotations

from dataclasses import dataclass

from ..lang.ast import Channel
from .host import QUIET_NAN
from .queue import TimedQueue


@dataclass(frozen=True)
class TraceEvent:
    """One observable I/O action, for execution traces (Figure 4-2)."""

    cell: int
    time: int
    kind: str  # 'send' | 'receive'
    queue: str
    value: float


def trace_events(
    links: list[dict[Channel, TimedQueue]], limit: int
) -> list[TraceEvent]:
    """Each cell's first ``limit`` transfers, cell by cell: cell ``c``
    receives link ``c``'s words at its receive cycles and sends link
    ``c + 1``'s at their send cycles.  Within a cycle, receives come
    before sends and X before Y: the order in which an instruction
    issues its transfers.  Each queue's cycles never decrease, so its
    first ``limit`` words are all a cell's first ``limit`` events can
    use.  A NaN word is recorded as :data:`~repro.machine.host.QUIET_NAN`,
    as in a run's outputs."""
    events: list[TraceEvent] = []
    for cell in range(len(links) - 1 if limit else 0):
        sides = (
            ("L", links[cell], "recv_times"),
            ("R", links[cell + 1], "send_times"),
        )
        transfers = sorted(
            (
                (time, side, str(channel), value)
                for side, link, times in sides
                for channel, queue in link.items()
                for time, value in zip(getattr(queue, times)[:limit], queue.values)
            ),
            key=lambda transfer: transfer[:3],  # "L" < "R", "X" < "Y"
        )
        events += (
            TraceEvent(cell, time, "send" if side == "R" else "receive",
                       f"{side}.{channel}",
                       QUIET_NAN if value != value else value)
            for time, side, channel, value in transfers[:limit]
        )
    return events


def format_two_cell_trace(
    trace: list[TraceEvent],
    max_rows: int = 24,
    cells: tuple[int, int] = (0, 1),
    annotation: str | None = None,
) -> str:
    """Two-column rendering of a cell pair's I/O events in time order.

    ``cells`` selects the pair (default the paper's cells 0 and 1); when
    the pair is adjacent, sends of the left cell on the rightward
    channels line up with the receives of the right cell that consume
    them.  If ``max_rows`` cuts events off, a final line reports how
    many were omitted.  ``annotation`` adds a provenance line above the
    header (e.g. the compile-cache status of the traced run, so a trace
    from a cached artefact is distinguishable from a fresh compile)."""
    left, right = cells
    rows: list[str] = []
    if annotation:
        rows.append(f"[{annotation}]")
    rows.append(f"{f'Cell {left}':<36}{f'Cell {right}'}")
    events = sorted(
        (e for e in trace if e.cell in (left, right)),
        key=lambda e: (e.time, e.cell, e.kind == "send"),
    )
    for event in events[:max_rows]:
        arrow = "->" if (event.cell == left and event.kind == "send") else "  "
        text = f"t={event.time:<4} {event.kind:<8} {event.queue} {event.value:<8.4g} {arrow}"
        if event.cell == left:
            rows.append(f"{text:<36}")
        else:
            rows.append(f"{'':<36}{text}")
    if len(events) > max_rows:
        rows.append(f"... {len(events) - max_rows} more events not shown")
    return "\n".join(rows)
