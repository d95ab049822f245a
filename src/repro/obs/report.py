"""Human- and machine-readable renderings of telemetry and metrics.

* :func:`format_phase_table` — per-phase compile timing (spans indented
  by nesting depth, with each span's counters inline);
* :func:`format_counters` — the accumulated global counters;
* :func:`format_utilization` — per-cell busy/stall/idle breakdown and
  per-queue high-water table of one simulated run;
* :func:`format_compare` — compile-time performance prediction vs.
  measured machine metrics, with deltas;
* :func:`telemetry_to_json` / :func:`metrics_to_json` — the structured
  report written by ``--metrics-out``.
"""

from __future__ import annotations

from typing import Any

from .core import Telemetry
from .metrics import MachineMetrics


def format_phase_table(telemetry: Telemetry) -> str:
    """Render the compile-phase spans as an indented timing table."""
    total = telemetry.total_seconds or 1e-12
    header = f"{'phase':<36} {'time':>10} {'share':>7}"
    lines = [header, "-" * len(header)]
    for span in telemetry.spans:
        name = "  " * span.depth + span.name
        share = span.duration / total if span.parent == -1 else float("nan")
        share_text = f"{share:6.1%}" if span.parent == -1 else "      "
        counters = ", ".join(
            f"{key}={value}" for key, value in sorted(span.counters.items())
        )
        line = f"{name:<36} {span.duration * 1e3:>8.2f}ms {share_text:>7}"
        if counters:
            line += f"  [{counters}]"
        lines.append(line)
    lines.append(f"{'total':<36} {total * 1e3:>8.2f}ms {'100.0%':>7}")
    return "\n".join(lines)


def format_counters(telemetry: Telemetry) -> str:
    """Render the accumulated counters, one per line."""
    if not telemetry.counters:
        return "(no counters)"
    width = max(len(name) for name in telemetry.counters)
    return "\n".join(
        f"{name:<{width}} {value:>10}"
        for name, value in sorted(telemetry.counters.items())
    )


def format_utilization(metrics: MachineMetrics) -> str:
    """Per-cell cycle breakdown plus per-queue occupancy summary."""
    header = (
        f"{'cell':>4} {'busy':>8} {'stall':>8} {'idle':>8} {'util':>7} "
        f"{'FP ops':>8} {'recv wait':>9}"
    )
    lines = [
        f"{metrics.total_cycles} total cycles, skew {metrics.skew}, "
        f"array utilisation {metrics.array_utilization:.1%}",
        header,
        "-" * len(header),
    ]
    for cell in metrics.cells:
        lines.append(
            f"{cell.cell:>4} {cell.busy_cycles:>8} {cell.stall_cycles:>8} "
            f"{cell.idle_cycles:>8} {cell.utilization:>6.1%} "
            f"{cell.fp_ops:>8} {cell.receive_wait_cycles:>9}"
        )
    queue_header = (
        f"{'queue':<16} {'high-water':>10} {'capacity':>9} {'items':>7} "
        f"{'mean wait':>10}"
    )
    lines += ["", queue_header, "-" * len(queue_header)]
    for name, queue in sorted(metrics.queues.items()):
        capacity = "-" if queue.capacity is None else str(queue.capacity)
        lines.append(
            f"{name:<16} {queue.high_water:>10} {capacity:>9} "
            f"{queue.items_sent:>7} {queue.mean_residency:>9.1f}c"
        )
    return "\n".join(lines)


def format_compare(prediction, metrics: MachineMetrics) -> str:
    """Predicted (compile-time) vs. measured (simulated) side by side.

    ``prediction`` is a
    :class:`~repro.compiler.performance.PerformancePrediction`; per-cell
    operation counts are compared against measured cell 0.
    """
    cell0 = metrics.cells[0]
    rows = [
        ("total cycles", prediction.total_cycles, metrics.total_cycles),
        ("skew", prediction.skew, metrics.skew),
        (
            "cycles per cell",
            prediction.cycles_per_cell,
            cell0.end_cycle - cell0.start_cycle,
        ),
        ("ALU ops / cell", prediction.alu_ops, cell0.alu_ops),
        ("MPY ops / cell", prediction.mpy_ops, cell0.mpy_ops),
        ("memory reads / cell", prediction.mem_reads, cell0.mem_reads),
        ("memory writes / cell", prediction.mem_writes, cell0.mem_writes),
        ("receives / cell", prediction.receives, cell0.receives),
        ("sends / cell", prediction.sends, cell0.sends),
    ]
    header = f"{'metric':<22} {'predicted':>10} {'measured':>10} {'delta':>8}"
    lines = [header, "-" * len(header)]
    for name, predicted, measured in rows:
        delta = measured - predicted
        lines.append(
            f"{name:<22} {predicted:>10} {measured:>10} {delta:>+8}"
        )
    worst = max(abs(measured - predicted) for _, predicted, measured in rows)
    lines.append(
        "prediction exact"
        if worst == 0
        else f"largest absolute delta: {worst}"
    )
    return "\n".join(lines)


def format_cache_status(event: str | None, stats=None) -> str:
    """One-line compile-cache status for CLI reports.

    ``event`` is :attr:`repro.exec.CompileCache.last_event` (``None``
    means caching was disabled or never consulted); ``stats`` is the
    cache's :class:`~repro.exec.CacheStats`, summarised when given.
    """
    if event is None:
        return "compile cache: disabled"
    line = f"compile cache: {event}"
    if stats is not None:
        line += (
            f" ({stats.lookups} lookups: {stats.memory_hits} memory hits, "
            f"{stats.disk_hits} disk hits, {stats.misses} misses"
        )
        if stats.disk_errors:
            line += f", {stats.disk_errors} disk errors"
        line += ")"
    return line


def telemetry_to_json(telemetry: Telemetry) -> dict[str, Any]:
    origin = min((s.start for s in telemetry.spans), default=0.0)
    return {
        "spans": [
            {
                "name": span.name,
                "start_us": (span.start - origin) * 1e6,
                "duration_us": span.duration * 1e6,
                "parent": span.parent,
                "depth": span.depth,
                "counters": dict(span.counters),
            }
            for span in telemetry.spans
        ],
        "counters": dict(telemetry.counters),
        "total_seconds": telemetry.total_seconds,
    }


def metrics_to_json(
    metrics: MachineMetrics,
    prediction=None,
    telemetry: Telemetry | None = None,
    cache=None,
    batch=None,
) -> dict[str, Any]:
    """The structured metrics report (``--metrics-out``).

    ``cache`` is a :class:`~repro.exec.CompileCache` (its hit/miss
    accounting lands under ``"cache"``); ``batch`` is a
    :class:`~repro.exec.BatchResult` (aggregate throughput lands under
    ``"batch"``)."""
    document: dict[str, Any] = {
        "total_cycles": metrics.total_cycles,
        "skew": metrics.skew,
        "array_utilization": metrics.array_utilization,
        "cells": [
            {
                "cell": cell.cell,
                "start_cycle": cell.start_cycle,
                "end_cycle": cell.end_cycle,
                "busy_cycles": cell.busy_cycles,
                "stall_cycles": cell.stall_cycles,
                "idle_cycles": cell.idle_cycles,
                "utilization": cell.utilization,
                "alu_ops": cell.alu_ops,
                "mpy_ops": cell.mpy_ops,
                "mem_reads": cell.mem_reads,
                "mem_writes": cell.mem_writes,
                "receives": cell.receives,
                "sends": cell.sends,
                "receive_wait_cycles": cell.receive_wait_cycles,
            }
            for cell in metrics.cells
        ],
        "queues": {
            name: {
                "capacity": queue.capacity,
                "high_water": queue.high_water,
                "items_sent": queue.items_sent,
                "items_received": queue.items_received,
                "total_wait_cycles": queue.total_wait_cycles,
                "mean_residency": queue.mean_residency,
                "occupancy_histogram": {
                    str(level): cycles
                    for level, cycles in sorted(
                        queue.occupancy_histogram().items()
                    )
                },
            }
            for name, queue in metrics.queues.items()
        },
        "iu": {
            "addresses_emitted": metrics.iu.addresses_emitted,
            "first_emit_cycle": metrics.iu.first_emit_cycle,
            "last_emit_cycle": metrics.iu.last_emit_cycle,
        },
    }
    if prediction is not None:
        document["prediction"] = {
            "total_cycles": prediction.total_cycles,
            "cycles_per_cell": prediction.cycles_per_cell,
            "skew": prediction.skew,
            "alu_ops": prediction.alu_ops,
            "mpy_ops": prediction.mpy_ops,
            "mem_reads": prediction.mem_reads,
            "mem_writes": prediction.mem_writes,
            "receives": prediction.receives,
            "sends": prediction.sends,
            "delta_total_cycles": metrics.total_cycles
            - prediction.total_cycles,
        }
    if telemetry is not None and telemetry.spans:
        document["compile"] = telemetry_to_json(telemetry)
    if cache is not None:
        document["cache"] = dict(cache.stats.to_json())
        document["cache"]["last_event"] = cache.last_event
    if batch is not None:
        document["batch"] = {
            "items": batch.n_items,
            "processes": batch.processes,
            "total_cycles": batch.total_cycles,
            "cycles_per_item": batch.cycles_per_item,
            "wall_seconds": batch.wall_seconds,
            "items_per_second": batch.items_per_second,
            "value_items": batch.value_items,
            "fallback_items": batch.fallback_items,
        }
    return document
