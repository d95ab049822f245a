"""``repro.obs`` — the observability layer.

Structured compile telemetry (spans + counters), cycle-level machine
metrics, and exporters (terminal tables, structured JSON, Chrome
``trace_event`` files loadable in ``chrome://tracing`` / Perfetto).

The instrumentation contract: library code reports to
:func:`get_telemetry`, which is a shared no-op unless a tool opted in
via :func:`enable` / :func:`collecting` — so the disabled-mode overhead
is a function call per instrumentation point.
"""

from .core import (
    NULL_TELEMETRY,
    NullTelemetry,
    Span,
    Telemetry,
    collecting,
    disable,
    enable,
    get_telemetry,
)
from .chrome_trace import (
    compile_trace_events,
    machine_trace_events,
    simulation_trace_events,
    trace_document,
    write_chrome_trace,
)
from .metrics import (
    CellMetrics,
    CellSpans,
    IUMetrics,
    MachineMetrics,
    QueueMetrics,
    QueueTimes,
    queue_metrics,
)
from .report import (
    format_cache_status,
    format_compare,
    format_counters,
    format_phase_table,
    format_utilization,
    metrics_to_json,
    telemetry_to_json,
)

__all__ = [
    "CellMetrics",
    "CellSpans",
    "IUMetrics",
    "MachineMetrics",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "QueueMetrics",
    "QueueTimes",
    "Span",
    "Telemetry",
    "collecting",
    "compile_trace_events",
    "disable",
    "enable",
    "format_cache_status",
    "format_compare",
    "format_counters",
    "format_phase_table",
    "format_utilization",
    "get_telemetry",
    "machine_trace_events",
    "metrics_to_json",
    "queue_metrics",
    "simulation_trace_events",
    "telemetry_to_json",
    "trace_document",
    "write_chrome_trace",
]
