"""Chrome ``trace_event`` export.

Produces the JSON-array trace format consumed by ``chrome://tracing``
and Perfetto (https://ui.perfetto.dev): a list of event dicts with
``ph`` (phase), ``ts``/``dur`` (microseconds), ``pid``/``tid`` lanes and
``name``.  Two processes are emitted:

* **compiler** (pid 1) — one ``B``/``E`` pair per telemetry span, on a
  single driver lane, in wall-clock microseconds;
* **warp machine** (pid 2) — one lane per cell (``X`` complete events
  per executed block, up to ``MAX_BLOCK_SPANS // cells`` per lane), one
  lane per queue (``X`` events for item
  residency — the cycles a word waited between send and receive — plus
  ``C`` counter events tracking occupancy), an IU lane with the address
  stream and a host lane for feed/collect.  Machine timestamps map one
  cycle to one microsecond.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

import numpy as np

from .core import Telemetry
from .metrics import CellSpans, MachineMetrics

if TYPE_CHECKING:  # pragma: no cover
    from ..machine.array import SimulationResult

COMPILER_PID = 1
MACHINE_PID = 2

#: Per-lane cap on per-item events (queue waits, IU emissions) so traces
#: of long runs stay loadable; a cut lane ends with a ``…truncated`` span.
MAX_EVENTS_PER_LANE = 4000
#: Block spans a checked run keeps for its trace, shared evenly by the
#: cell lanes (each keeps its first ``MAX_BLOCK_SPANS // cells``).
MAX_BLOCK_SPANS = 200_000


def _meta(pid: int, name: str, tid: int | None = None) -> dict[str, Any]:
    event: dict[str, Any] = {
        "ph": "M",
        "pid": pid,
        "name": "process_name" if tid is None else "thread_name",
        "args": {"name": name},
    }
    if tid is not None:
        event["tid"] = tid
    return event


def compile_trace_events(telemetry: Telemetry) -> list[dict[str, Any]]:
    """``B``/``E`` span pairs for one compile, relative to its start.

    Events are emitted in properly nested order (a span's ``B``, its
    children recursively, then its ``E``), which also makes timestamps
    monotonic along the stream."""
    if not telemetry.spans:
        return []
    origin = min(span.start for span in telemetry.spans)
    children: dict[int, list[int]] = {}
    for index, span in enumerate(telemetry.spans):
        children.setdefault(span.parent, []).append(index)
    events: list[dict[str, Any]] = [
        _meta(COMPILER_PID, "compiler"),
        _meta(COMPILER_PID, "driver", tid=0),
    ]

    def emit(index: int) -> None:
        span = telemetry.spans[index]
        begin = (span.start - origin) * 1e6
        events.append(
            {
                "ph": "B",
                "pid": COMPILER_PID,
                "tid": 0,
                "name": span.name,
                "ts": begin,
                "args": dict(span.counters),
            }
        )
        for child in children.get(index, []):
            emit(child)
        events.append(
            {
                "ph": "E",
                "pid": COMPILER_PID,
                "tid": 0,
                "name": span.name,
                "ts": begin + span.duration * 1e6,
            }
        )

    for root in children.get(-1, []):
        emit(root)
    return events


def machine_trace_events(
    metrics: MachineMetrics,
    record: list[CellSpans] | None = None,
) -> list[dict[str, Any]]:
    """Lanes for cells, queues, IU and host from one simulated run."""
    events: list[dict[str, Any]] = [_meta(MACHINE_PID, "warp machine")]
    tid = 0

    def complete(
        tid: int, name: str, ts: int, dur: int, args: dict | None = None
    ) -> None:
        """Append an ``X`` event: ``dur`` cycles from ``ts`` on lane ``tid``."""
        event = {
            "ph": "X", "pid": MACHINE_PID, "tid": tid,
            "name": name, "ts": ts, "dur": dur,
        }
        if args is not None:
            event["args"] = args
        events.append(event)

    # Host lane -----------------------------------------------------------
    host_tid = tid
    events.append(_meta(MACHINE_PID, "host", tid=host_tid))
    tid += 1
    feed = [q for name, q in metrics.queues.items() if name.startswith("link0")]
    feed_items = sum(q.items_sent for q in feed)
    if feed_items:
        last = max(int(q.send_times.max()) for q in feed if q.send_times.size)
        complete(host_tid, "feed input queues", 0, last + 1, {"items": feed_items})
    complete(host_tid, "collect outputs", metrics.total_cycles, 1)

    # IU lane -------------------------------------------------------------
    iu_tid = tid
    events.append(_meta(MACHINE_PID, "IU address path", tid=iu_tid))
    tid += 1
    iu = metrics.iu
    if iu.addresses_emitted:
        complete(iu_tid, "address stream", iu.first_emit_cycle,
                 iu.emit_span_cycles, {"addresses": iu.addresses_emitted})

    # Cell lanes: a lane cut by the span cap ends with a marker -----------
    cell_tids: dict[int, int] = {}
    for cell in metrics.cells:
        cell_tids[cell.cell] = tid
        events.append(_meta(MACHINE_PID, f"cell {cell.cell}", tid=tid))
        tid += 1
    for lane in record or ():
        lane_tid = cell_tids[lane.cell]
        for block_id, start, length, issued in zip(
            lane.block_ids.tolist(), lane.starts.tolist(),
            np.maximum(lane.lengths, 1).tolist(), lane.issued_ops.tolist(),
        ):
            complete(lane_tid, f"block b{block_id}", start, length,
                     {"issued_ops": issued})
        if lane.omitted:
            complete(lane_tid, "…truncated", metrics.total_cycles, 1,
                     {"omitted_spans": lane.omitted})
    if not record:
        # No per-block record: one span covering each cell's execution.
        for cell in metrics.cells:
            complete(cell_tids[cell.cell], "execute", cell.start_cycle,
                     max(cell.active_cycles, 1),
                     {"busy_cycles": cell.busy_cycles,
                      "stall_cycles": cell.stall_cycles})

    # Queue lanes: item residency spans + occupancy counters --------------
    for name, queue in metrics.queues.items():
        queue_tid = tid
        events.append(_meta(MACHINE_PID, f"queue {name}", tid=queue_tid))
        tid += 1
        consumed = min(queue.send_times.size, queue.recv_times.size)
        truncated = consumed > MAX_EVENTS_PER_LANE
        for k in range(min(consumed, MAX_EVENTS_PER_LANE)):
            sent = int(queue.send_times[k])
            received = int(queue.recv_times[k])
            complete(queue_tid, "queue wait", sent,
                     max(received - sent, 0) + 1, {"item": k})
        times, occupancy = queue.occupancy_series()
        for t, level in zip(
            times.tolist()[:MAX_EVENTS_PER_LANE],
            occupancy.tolist()[:MAX_EVENTS_PER_LANE],
        ):
            events.append(
                {
                    "ph": "C",
                    "pid": MACHINE_PID,
                    "tid": queue_tid,
                    "name": f"occupancy {name}",
                    "ts": t,
                    "args": {"words": level},
                }
            )
        if truncated or times.size > MAX_EVENTS_PER_LANE:
            omitted = max(consumed - MAX_EVENTS_PER_LANE, 0)
            complete(queue_tid, "…truncated", metrics.total_cycles, 1,
                     {"omitted_items": omitted})
    return events


def simulation_trace_events(
    result: "SimulationResult", telemetry: Telemetry | None = None
) -> list[dict[str, Any]]:
    """Full trace of one run: machine lanes plus compile spans if given."""
    events: list[dict[str, Any]] = []
    if telemetry is not None and telemetry.spans:
        events.extend(compile_trace_events(telemetry))
    assert result.machine_metrics is not None
    events.extend(machine_trace_events(result.machine_metrics, result.record))
    return events


def trace_document(events: list[dict[str, Any]]) -> dict[str, Any]:
    """The standard JSON-object container for a trace-event list."""
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(path, events: list[dict[str, Any]]) -> None:
    """Write a ``chrome://tracing`` / Perfetto-loadable JSON file."""
    with open(path, "w") as handle:
        json.dump(trace_document(events), handle)
