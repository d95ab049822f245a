"""Architecture parameters of the Warp machine (Section 2).

The numbers below come from the paper and its architecture reference
(Annaratone et al., "Warp Architecture and Implementation"):

* 10 identical cells in a linear array;
* two data paths (X and Y) between adjacent cells plus the address path;
* per-channel 128-word queues between neighbours;
* each cell: two 5-stage pipelined floating-point units, a 4K-word data
  memory able to serve two references per cycle, and a 32-word register
  file per floating-point unit;
* the IU: 16 registers, addition/subtraction only, a 32K-word table
  memory readable in sequential order only, and a 3-cycle loop-counter
  update/test.

Simplifications (documented in DESIGN.md): the two per-FPU register
files are modelled as one 64-word pool reachable from every functional
unit (the real crossbar made operands fully routable); one register-move
and one literal field per micro-instruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CellConfig:
    """Resources and latencies of one Warp cell."""

    #: Pipeline depth of both floating-point units (Section 2.4).
    fpu_stages: int = 5
    #: Issue-to-use latency of the adder/ALU unit.
    alu_latency: int = 5
    #: Issue-to-use latency of the multiplier unit.
    mpy_latency: int = 5
    #: Issue-to-use latency of a divide (iterative on the multiplier).
    div_latency: int = 10
    #: Data-memory words per cell.
    memory_words: int = 4096
    #: Memory references per cycle ("two memory references per cycle").
    mem_ports: int = 2
    #: Memory read latency (address to register).
    mem_read_latency: int = 2
    #: Queue-dequeue latency (queue to register via crossbar).
    queue_latency: int = 1
    #: Register-to-register move latency.
    move_latency: int = 1
    #: Register moves per cycle (one crossbar transfer field).
    move_ports: int = 1
    #: Distinct literal fields per micro-instruction.
    literal_ports: int = 1
    #: Total general registers (2 x 32-word register files, unified).
    n_registers: int = 64


@dataclass(frozen=True)
class IUConfig:
    """Resources of the interface unit (Section 6.3)."""

    n_registers: int = 16
    #: ALU operations (add/sub) per cycle.
    alu_ports: int = 1
    #: Addresses the IU can emit to the address path per cycle.
    emit_ports: int = 2
    #: Size of the sequential-access table memory.
    table_words: int = 32768
    #: Cycles needed to update and test a loop counter (Section 6.3.1).
    loop_test_cycles: int = 3


@dataclass(frozen=True)
class WarpConfig:
    """A whole Warp machine."""

    n_cells: int = 10
    queue_depth: int = 128
    #: Address/loop-signal queue depth per cell (same hardware FIFO).
    address_queue_depth: int = 128
    #: Propagation delay of the address path per cell hop.
    address_hop_latency: int = 1
    #: Per-cell watchdog slack: a cell running more than this many
    #: cycles past its statically predicted completion cycle is declared
    #: hung (:class:`~repro.errors.CellHangError`).  Schedules are
    #: data-independent, so a healthy cell finishes *exactly* on time
    #: and the watchdog can never fire on a clean run.
    watchdog_slack: int = 64
    #: Post-compile schedule verification level: ``"off"``, ``"quick"``,
    #: ``"full"``, or ``"default"`` (resolve through the ``REPRO_VERIFY``
    #: environment variable, falling back to quick).  See
    #: :mod:`repro.verify`.
    verify: str = "default"
    cell: CellConfig = field(default_factory=CellConfig)
    iu: IUConfig = field(default_factory=IUConfig)


DEFAULT_CONFIG = WarpConfig()
