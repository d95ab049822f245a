"""The Warp machine simulator: cells, queues, IU address path, host
feeder/collector, plus the AST-level reference interpreter."""

from ..obs.metrics import CellMetrics, IUMetrics, MachineMetrics, QueueMetrics
from .array import SimulationResult, WarpMachine, simulate
from .cell import CellExecutor
from .config import DEFAULT_CONFIG, CellConfig, IUConfig, WarpConfig
from .host import QUIET_NAN, HostMemory, collect_outputs, feed_input_queues
from .iu_machine import IUMachine, run_iu_program
from .plan import ExecutionPlan
from .queue import TimedQueue
from .reference import interpret
from .trace import TraceEvent

__all__ = [
    "CellConfig",
    "CellExecutor",
    "CellMetrics",
    "DEFAULT_CONFIG",
    "ExecutionPlan",
    "HostMemory",
    "IUConfig",
    "IUMachine",
    "IUMetrics",
    "MachineMetrics",
    "QUIET_NAN",
    "QueueMetrics",
    "SimulationResult",
    "TimedQueue",
    "TraceEvent",
    "WarpConfig",
    "WarpMachine",
    "collect_outputs",
    "feed_input_queues",
    "interpret",
    "run_iu_program",
    "simulate",
]
