"""Static, reusable simulation state derived from one compiled program.

Everything here is a pure function of the :class:`CompiledProgram` —
independent of the cell index, the input data and the run — so one
:class:`ExecutionPlan`, held on the program, serves every cell and run:

* **Compiled blocks.**  The schedule fixes the cycle of every issue
  and every register writeback, so each scheduled block becomes
  straight-line Python statements (:func:`_block_source`): nop cycles
  vanish (30–50% of instruction slots on the Table 7-1 programs), each
  register read names the value it sees, and each written register
  ends the block holding one named value.  In the timed form each
  queue transfer is one call, with its absolute cycle, to the queue's
  checking method; untimed, a block reads each input stream in one
  statement at its start (a long loop over one block reads each trip's
  words in its header), writes each output list once at its end, and
  writes its scalar arithmetic as Python operators.
* **Loop drivers.**  One generator (:func:`inline_driver`) builds every
  driver: per cell program, the scheduled loop tree as nested ``for``
  loops with each block's statements inline, so its size is the static
  code's, whatever the trip counts.  Clean runs only move values, under
  ``value_driver`` (``column_driver`` over NumPy columns for batches):
  registers are Python locals, and each block ends by assigning only
  its registers that are live after it.  ``driver``, built on first
  use, is the timed form of a checked run: each block loads and stores
  the register file, and the driver carries the cycle and the watchdog
  check.
* **The transfer timeline.**  Each block's transfer cycles, read off
  its instructions (:func:`_transfers`) in one walk of the loop tree
  (``transfers``, :func:`~repro.timing.events.walk_events`), give every
  queue's send and receive cycles in a clean run; one pass over them
  (:meth:`ExecutionPlan.timeline`) yields the metrics and the verdicts
  of every clean run (``facts``) without running a cell.
* **Block spans** of one cell run's first blocks, as read-only offsets
  built once from the loop tree; a lane adds its cell's start cycle.
  A clean run's lanes (cell ``c`` from ``c × skew``) are built once per
  lane cap (:meth:`ExecutionPlan.lanes`); a checked run moves them to
  its cells' measured starts (:meth:`ExecutionPlan.spans`).
* **Static counts.**  Per-block operation totals and one cell run's
  totals (``counts``, from
  :meth:`~repro.cellcodegen.emit.OpCounts.of_run`, which the
  compile-time performance prediction also calls), hence each link's
  per-run sends.
* **The IU address schedule** (``emission_times``, ``addresses``,
  sliced from :meth:`~repro.iucodegen.codegen.IUProgram.emission_times`;
  ``address_list`` as Python ints on first run)
  and its :class:`~repro.obs.metrics.IUMetrics`, identical for every cell
  up to the per-hop delay, rather than re-walked per run; with the
  literal addresses, it sizes each cell run's data memory
  (``memory_words``).
* **The host I/O streams**: per channel, the word offsets of the feed
  (one gather) and the collection (one scatter), derived in closed form
  by the host program and bounds-checked once, here.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import replace
from typing import Callable, NamedTuple, TYPE_CHECKING

import numpy as np

from ..analysis.local_opt import (
    SCALAR_EXPRESSIONS,
    column_evaluator,
    pure_evaluator,
)
from ..cellcodegen.emit import (
    CellCode, OpCounts, ScheduledBlock, ScheduledItem, ScheduledLoop,
)
from ..cellcodegen.isa import AddressSource, Lit, Operand, Reg
from ..config import CellConfig
from ..errors import SimulationError
from ..ir.dag import OpKind
from ..lang.ast import Channel, Direction
from ..obs.metrics import (
    CellMetrics, CellSpans, IUMetrics, MachineMetrics, QueueMetrics,
    QueueTimes, queue_metrics,
)
from ..timing.events import walk_events
from .host import Collection

if TYPE_CHECKING:  # pragma: no cover - circular import at run time
    from ..compiler.driver import CompiledProgram


#: The queues of a cell's transfers: receives on X and Y, sends on X
#: and Y, IU address receives.
TRANSFERS = ("rX", "rY", "sX", "sY", "ra")


def _transfers(block: ScheduledBlock, _env: dict) -> np.ndarray:
    """Two rows over ``block``'s transfers: each one's cycle from the
    block's start and its queue (an index into :data:`TRANSFERS`), read
    off the instructions: the compile-time timing analyses read the
    scheduler's ``io_events``, and the simulator stays a check on them."""
    transfers = [
        (cycle, TRANSFERS.index(queue))
        for cycle, instr in enumerate(block.instructions)
        for queue in (
            *(f"r{op.queue.channel}" for op in instr.deqs),
            *(
                "ra" for mem in instr.mem
                if mem.address_source is AddressSource.QUEUE
            ),
            *(f"s{op.queue.channel}" for op in instr.enqs),
        )
    ]
    return np.array(transfers, np.int64).reshape(-1, 2).T


class BlockSource(NamedTuple):
    """One block's straight-line code (see :func:`_block_source`)."""

    #: The statements, unindented.
    body: list[str]
    #: Registers the block reads before any write of its own lands.
    entry: list[int]
    #: Each written register's value at the block's end, by register.
    out: dict[int, str]
    #: The evaluators and literals the statements name, by name.
    constants: dict[str, object]
    #: Untimed: by input (``dx``, ``dy``, ``da``), the names its words
    #: land in, in order; read before ``body`` (:func:`_reads`).
    reads: dict[str, list[str]]
    #: Untimed: by output list (``ex``, ``ey``), the names of its words,
    #: in order; written after ``body`` (:func:`_sends`).
    sends: dict[str, list[str]]


def _block_source(
    block: ScheduledBlock,
    config: CellConfig,
    evaluate: Callable[[OpKind], Callable[..., float]],
    timed: bool,
    tag: str,
) -> BlockSource:
    """The statements of one block as straight-line Python.

    The schedule fixes the cycle of every issue and writeback, so the
    delayed register writeback is resolved here, once: a read of
    register ``r`` at block cycle ``c`` names the value of the write with
    the greatest ``(landing cycle, issue order)`` among the writes issued
    before ``c`` that land at or before ``c``, else the register's value
    on entry, ``r<r>``.  Every block drains (each write lands within its
    length), so each written register ends the block holding one named
    value (``out``); the statements themselves assign no register.

    The statements run against ``M`` (data memory) and the transfers
    ``dx``/``dy`` (receive from X/Y), ``ex``/``ey`` (send) and ``da``
    (IU addresses).  Timed, each transfer is one call with its absolute
    cycle first, where the instruction makes it: ``v = dx(t + c)``,
    ``ex(t + c, v)``, ``da(t + c)``; a checked cell binds them to its
    queues' checking methods (:class:`~repro.machine.queue.TimedQueue`),
    and ALU/MPY ops call ``evaluate(op)``.

    Untimed, a clean run only moves values, and every word a cell
    receives was sent before it runs while nothing reads what it sends
    until it ends.  So ``dx``, ``dy`` and ``da`` are iterators and
    ``ex``/``ey`` the output lists, and the statements hold no transfer:
    the block's words by input (``reads``) are taken before them, in one
    statement per input (:func:`_reads`, ``v0, v3 = next(dx),
    next(dx)``) or in the header of the loop around the block, and its
    sends by list (``sends``) are written after them, once per list
    (:func:`_sends`, ``ex.append(v1)`` or ``ex.extend((v1, v2))``).  Over
    ``pure_evaluator`` (the scalar form), every op but FDIV is written
    inline as the expression its function is compiled from
    (:data:`~repro.analysis.local_opt.SCALAR_EXPRESSIONS`; FDIV keeps its
    call, as a zero divisor raises in Python), so NaN operands may give
    a NaN of another sign or payload than the function would: a run's
    outputs carry one quiet NaN
    (:meth:`~repro.machine.host.HostMemory.outputs`).

    Called evaluators and literals are names, bound under
    ``e<tag><k>``/``l<tag><k>`` (``constants``).  Side effects keep the
    order of each instruction: dequeues, IU addresses in slot order,
    loads, stores, ALU, MPY, move, enqueues.
    """
    block_id, length = block.block_id, block.length
    inline = not timed and evaluate is pure_evaluator
    constants: dict[str, object] = {}
    body: list[str] = []
    entry: list[int] = []  # registers read before any in-block write
    visible: dict[int, str] = {}
    written: set[int] = set()
    #: ``(landing, issue order, register, value name)`` not yet landed.
    in_flight: list[tuple[int, int, int, str]] = []
    #: Untimed: by transfer, the names its words land in (receives) or
    #: come from (sends), in order.
    reads: dict[str, list[str]] = {}
    sends: dict[str, list[str]] = {}
    issue_order, names = itertools.count(), itertools.count()
    evaluators, literals = itertools.count(), itertools.count()

    def read(operand: Operand) -> str:
        if isinstance(operand, Lit):
            name = f"l{tag}{next(literals)}"
            constants[name] = operand.value
            return name
        name = visible.get(operand.index)
        if name is None:
            name = visible[operand.index] = f"r{operand.index}"
            entry.append(operand.index)
        return name

    def write(reg: Reg, landing: int, value: str) -> None:
        if landing > length:
            raise SimulationError(
                f"block {block_id}: the write of r{reg.index} lands at "
                f"cycle {landing}, after the block's {length}-cycle "
                "window — the schedule does not drain"
            )
        in_flight.append((landing, next(issue_order), reg.index, value))
        written.add(reg.index)

    def land(cycle: int) -> None:
        ready = sorted(w for w in in_flight if w[0] <= cycle)
        in_flight[:] = [w for w in in_flight if w[0] > cycle]
        for _landing, _order, reg, value in ready:
            visible[reg] = value

    def queue(ref, incoming: bool) -> str:
        if incoming:
            assert ref.direction is Direction.LEFT, (
                "compilable programs only receive from the left"
            )
            return "dx" if ref.channel is Channel.X else "dy"
        assert ref.direction is Direction.RIGHT, (
            "compilable programs only send to the right"
        )
        return "ex" if ref.channel is Channel.X else "ey"

    def receive(name: str, cycle: int) -> str:
        """The name of the next word of receive ``name``."""
        v = f"v{next(names)}"
        if timed:
            body.append(f"{v} = {name}(t + {cycle})")
        else:
            reads.setdefault(name, []).append(v)
        return v

    for c, ins in enumerate(block.instructions):
        if ins.is_nop():  # nop cycles generate no code
            continue
        land(c)
        for deq in ins.deqs:
            v = receive(queue(deq.queue, True), c)
            write(deq.dest, c + config.queue_latency, v)
        # IU addresses arrive in instruction-slot order (``addr_demands``
        # is stably sorted by cycle), though loads apply before stores.
        where = []
        for mem in ins.mem:
            if mem.address_source is AddressSource.LITERAL:
                where.append(str(mem.address))
            else:
                where.append(receive("da", c))
        for mem, address in zip(ins.mem, where):
            if mem.is_load:
                assert mem.reg is not None
                v = f"v{next(names)}"
                body.append(f"{v} = M[{address}]")
                write(mem.reg, c + config.mem_read_latency, v)
        for mem, address in zip(ins.mem, where):
            if not mem.is_load:
                assert mem.store_value is not None
                body.append(f"M[{address}] = {read(mem.store_value)}")
        units = []
        if ins.alu is not None:
            units.append((ins.alu, config.alu_latency))
        if ins.mpy is not None:
            div = ins.mpy.op is OpKind.FDIV
            latency = config.div_latency if div else config.mpy_latency
            units.append((ins.mpy, latency))
        for unit, latency in units:
            expression = SCALAR_EXPRESSIONS.get(unit.op) if inline else None
            if expression is None:
                fn = evaluate(unit.op)
                assert fn is not None, unit.op
                name = f"e{tag}{next(evaluators)}"
                constants[name] = fn
                args = ", ".join(read(s) for s in unit.sources)
                expression = f"{name}({args})"
            else:
                expression = expression.format(*map(read, unit.sources))
            v = f"v{next(names)}"
            body.append(f"{v} = {expression}")
            write(unit.dest, c + latency, v)
        if ins.move is not None:
            source = read(ins.move.source)
            write(ins.move.dest, c + config.move_latency, source)
        for enq in ins.enqs:
            send, value = queue(enq.queue, False), read(enq.source)
            if timed:
                body.append(f"{send}(t + {c}, {value})")
            else:
                sends.setdefault(send, []).append(value)
    land(length)
    out = {reg: visible[reg] for reg in sorted(written)}
    return BlockSource(body, entry, out, constants, reads, sends)


def _reads(reads: dict[str, list[str]]) -> list[str]:
    """One statement per input reading its words in order:
    ``v0, v3 = next(dx), next(dx)``."""
    return [
        f"{', '.join(words)} = {', '.join(f'next({name})' for _ in words)}"
        for name, words in reads.items()
    ]


def _sends(sends: dict[str, list[str]], tuples: dict[str, str]) -> list[str]:
    """One statement per output list appending its words in order; a
    list whose words are a tuple named in ``tuples`` (by list) extends
    by that tuple."""
    return [
        f"{name}.extend({tuples[name]})" if name in tuples
        else f"{name}.append({words[0]})" if len(words) == 1
        else f"{name}.extend(({', '.join(words)}))"
        for name, words in sends.items()
    ]


#: Loops one generated driver function nests at most.  Python refuses
#: more than 20 statically nested blocks in one function, so a deeper
#: loop continues in a function of its own.
MAX_NEST = 10

#: Words a loop over one block must read from one input per entry
#: (trips × the block's words from it) before the untimed driver takes
#: them in the loop's header rather than by ``next`` in its body: a
#: ``zip`` in the header costs a few tenths of a microsecond to set up
#: per entry and saves about 10 ns per word (docs/machine-model.md,
#: "Compiled blocks").
GROUPED_READS = 48


def inline_driver(
    code: CellCode,
    config: CellConfig,
    evaluate: Callable[[OpKind], Callable[..., float]],
    timed: bool = False,
) -> Callable:
    """The driver of ``code`` over ``evaluate``'s functions: untimed,
    ``drive((M, dx, dy, ex, ey, da))`` over input iterators and output
    lists; timed, ``drive((R, M, dx, dy, ex, ey, da), t,
    deadline, expired) -> end``.  See :func:`_inline_source`."""
    source, constants = _inline_source(code, config, evaluate, timed)
    return _factory(source)(constants)


def _inline_source(
    code: CellCode,
    config: CellConfig,
    evaluate: Callable[[OpKind], Callable[..., float]],
    timed: bool = False,
) -> tuple[str, list]:
    """Python source of the driver of one cell program, and the
    constants it binds.

    The paper keeps loop structure in the generated loop control
    (Section 6.3.1); so does the driver, so its size does not grow with
    trip counts: the :class:`~repro.cellcodegen.emit.ScheduledLoop` tree
    becomes nested ``for _ in range(trip):`` loops, and each block's
    statements (:func:`_block_source`, evaluators and literals tagged
    ``<id>_``) sit where the block runs, with no call per block.  A loop
    that runs no block (a zero-trip loop, say) generates no code.  The
    source defines ``make(C)``, which binds the constants ``C`` by
    position and returns ``drive``.  A loop :data:`MAX_NEST` deep in one
    function continues in a function of its own (``loop<k>``).

    Untimed, ``drive(ctx)`` unpacks ``ctx = (M, dx, dy, ex, ey, da)``
    once: ``dx``, ``dy`` and ``da`` iterate over the cell's input words
    and IU addresses, ``ex`` and ``ey`` are its output lists.  Each
    block reads its words from each iterator in one statement at its
    start, writes each list once at its end, and (over
    ``pure_evaluator``) computes with inline Python operators, so no
    op but FDIV is a call.  A loop of one block takes each trip's
    words from an input it reads at least :data:`GROUPED_READS` words
    from per entry in its header instead (see ``grouped`` below), and a
    one-trip loop is its body, pasted in place (timed too).
    Each register ``r<k>`` is one Python local, ``0.0`` on entry like a
    fresh register file.  A block ends, after its sends, with one
    parallel assignment of its registers that are live after it
    (:func:`_live_registers`); a dead write assigns nothing.  A split
    loop's function takes the registers live into the loop and returns
    those live after it.

    Timed, ``drive(ctx, t, deadline, expired) -> end`` runs against
    ``ctx = (R, M, dx, dy, ex, ey, da)``, ``R`` being the register file:
    each block loads its ``entry`` registers from ``R``, runs at cycle
    ``t`` and stores every register it writes back to ``R``, with no
    liveness, so the checked path stays a reference for it.  ``t`` then
    advances by the block's length, and once ``t`` passes ``deadline``
    the driver calls ``expired(t)`` (the watchdog, which raises).  A
    split loop's function takes and returns ``t``.
    """
    blocks = {
        block.block_id: _block_source(
            block, config, evaluate, timed, tag=f"{block.block_id}_"
        )
        for block in code.blocks()
    }
    live, entry = ({}, ()) if timed else _live_registers(code.items, blocks)
    unpack = "R, M, dx, dy, ex, ey, da" if timed else "M, dx, dy, ex, ey, da"
    functions: list[list[str]] = []

    def function(
        name: str, body: list[ScheduledItem], live_in=(), live_out=()
    ) -> tuple[str, str]:
        """Emit ``body`` as function ``name``, which takes the registers
        ``live_in`` and returns those ``live_out`` (untimed; ``drive``
        sets its ``live_in`` to ``0.0`` instead) or takes and returns
        the cycle (timed).  Returns its arguments and what it returns."""
        lines = []
        functions.append(lines)
        emit(body, lines, "        ", 0)
        params, results = sorted(live_in), sorted(live_out)
        returned = f"{_regs(results)}," if results else ""
        if timed:
            args, returned = "ctx, t, deadline, expired", "t"
        elif name == "drive":
            args = "ctx"
            if params:
                lines.insert(0, f"        {_regs(params, ' = ')} = 0.0")
        else:
            args = ", ".join(["ctx", *(f"r{reg}" for reg in params)])
        lines[:0] = [f"    def {name}({args}):", f"        {unpack} = ctx"]
        if returned:
            lines.append(f"        return {returned}")
        return args, returned

    def statements(
        item: ScheduledBlock,
        head: list[str] | None = None,
        tuples: dict[str, str] | None = None,
    ) -> list[str]:
        """``item``'s statements where it runs, with its register
        traffic and, timed, the clock's advance and the watchdog.
        Untimed, ``head`` replaces its reads (:func:`_reads`) and each
        output list named in ``tuples`` extends by that tuple."""
        block = blocks[item.block_id]
        if timed:
            return [
                *(f"r{reg} = R[{reg}]" for reg in block.entry),
                *block.body,
                *(f"R[{reg}] = {value}" for reg, value in block.out.items()),
                f"t += {item.length}",
                "if t > deadline: expired(t)",
            ]
        lines = [
            *(_reads(block.reads) if head is None else head),
            *block.body,
            *_sends(block.sends, tuples or {}),
        ]
        copy = {
            reg: value for reg, value in block.out.items()
            if reg in live[id(item)][1] and value != f"r{reg}"
        }
        if copy:
            lines.append(f"{_regs(list(copy))} = {', '.join(copy.values())}")
        return lines

    def grouped(loop: ScheduledLoop) -> list[str]:
        """The untimed ``loop`` over one block, each trip's words from
        every input it reads at least :data:`GROUPED_READS` words from
        per entry taken in its header (``for _, (v0, v2), v1 in
        zip(range(30), zip(*(dx,) * 2), dy):``; the ``range`` comes
        first, so the loop stops before reading past its trips) and
        any other input's by ``next`` in its body; an empty list when
        no input qualifies.  A trip that sends the words it read from
        one header input, in order, takes them as one tuple (``wdx``)
        and extends by it."""
        item = loop.body[0] if len(loop.body) == 1 else None
        if timed or not isinstance(item, ScheduledBlock):
            return []
        block = blocks[item.block_id]
        long = {
            name: names for name, names in block.reads.items()
            if loop.trip * len(names) >= GROUPED_READS
        }
        if not long:
            return []
        targets, sources = ["_"], [f"range({loop.trip})"]
        head = _reads({
            name: names for name, names in block.reads.items()
            if name not in long
        })
        tuples: dict[str, str] = {}
        for name, names in long.items():
            if len(names) == 1:
                targets.append(names[0])
                sources.append(name)
                continue
            sources.append(f"zip(*({name},) * {len(names)})")
            forwarded = [
                out for out, sent in block.sends.items() if sent == names
            ]
            if forwarded:
                targets.append(f"w{name}")
                tuples.update(dict.fromkeys(forwarded, f"w{name}"))
                head.append(f"{', '.join(names)} = w{name}")
            else:
                targets.append(f"({', '.join(names)})")
        return [
            f"for {', '.join(targets)} in zip({', '.join(sources)}):",
            *("    " + line for line in statements(item, head, tuples)),
        ]

    def emit(body, lines, pad, depth) -> None:
        for item in body:
            if isinstance(item, ScheduledBlock):
                lines.extend(pad + line for line in statements(item))
            elif not item.trip:
                continue
            elif item.trip == 1:  # runs its body once, in place
                emit(item.body, lines, pad, depth)
            elif depth == MAX_NEST:
                name = f"loop{len(functions)}"
                split = live.get(id(item), ())
                args, returned = function(name, [item], *split)
                call = f"{name}({args})"
                lines.append(
                    f"{pad}{returned} = {call}" if returned else f"{pad}{call}"
                )
            elif loop := grouped(item):
                lines.extend(pad + line for line in loop)
            else:
                inner: list[str] = []
                emit(item.body, inner, pad + "    ", depth + 1)
                if inner:
                    lines.append(f"{pad}for _ in range({item.trip}):")
                    lines.extend(inner)

    function("drive", code.items, entry)
    constants = {
        name: value for block in blocks.values()
        for name, value in block.constants.items()
    }
    lines = ["def make(C):"]
    if constants:
        lines.append(f"    {', '.join(constants)}, = C")
    for body in functions:
        lines.extend(body)
    lines.append("    return drive")
    return "\n".join(lines) + "\n", list(constants.values())


def _regs(registers: list[int], sep: str = ", ") -> str:
    """The locals of ``registers`` (``r<k>``), joined by ``sep``."""
    return sep.join(f"r{reg}" for reg in registers)


def _live_registers(
    items: list[ScheduledItem], blocks: dict[int, BlockSource]
) -> tuple[dict[int, tuple[frozenset[int], frozenset[int]]], frozenset[int]]:
    """By ``id`` of each block and loop of ``items``, the registers live
    into and after it, and those live on entry to ``items``.

    One backward pass: a block's live-in is its ``entry`` plus what is
    live after it and not written in it.  A loop of two or more trips
    whose body reads registers ``U`` before writing them (its
    upward-exposed uses, computed once per loop) has ``U`` live after
    its body too, since the next trip reads them; a one-trip loop is its
    body, and a zero-trip loop passes its live set through unchanged.
    """
    live: dict[int, tuple[frozenset[int], frozenset[int]]] = {}
    exposed: dict[int, frozenset[int]] = {}

    def walk(body: list[ScheduledItem], out: frozenset[int], record: bool):
        for item in reversed(body):
            after = out
            if isinstance(item, ScheduledBlock):
                code = blocks[item.block_id]
                out = out.difference(code.out).union(code.entry)
            elif item.trip == 1:
                out = walk(item.body, out, record)
            elif item.trip:
                key = id(item)
                if key not in exposed:
                    exposed[key] = walk(item.body, frozenset(), False)
                out = walk(item.body, out | exposed[key], record)
            if record:
                live[id(item)] = out, after
        return out

    return live, walk(items, frozenset(), True)


@functools.lru_cache(maxsize=1024)
def _factory(source: str) -> Callable:
    """The ``make`` function of one generated driver source, compiled
    once per distinct text (a recompiled program reuses them)."""
    namespace: dict = {}
    exec(compile(source, "<warp block>", "exec"), namespace)
    return namespace["make"]


class ExecutionPlan:
    """All static per-program simulation state, computed once."""

    def __init__(self, program: "CompiledProgram"):
        self._program = program
        #: Each scheduled block's operation totals of one pass, by id.
        self.blocks: dict[int, OpCounts] = {
            block.block_id: OpCounts.of(block)
            for block in program.cell_code.blocks()
        }
        #: The cycle and address (read-only arrays) of every dynamic IU
        #: emission: cell ``c`` receives ``addresses`` sent at
        #: ``emission_times + c × hop``, so no run enqueues them.
        emissions = program.iu_program.emission_times()
        self.emission_times = _read_only(emissions[:, 0])
        self.addresses = _read_only(emissions[:, 2])
        times = self.emission_times
        self.iu = IUMetrics(
            addresses_emitted=times.size,
            first_emit_cycle=int(times.min()) if times.size else 0,
            last_emit_cycle=int(times.max()) if times.size else 0,
        )
        #: Data-memory words one cell run allocates: one past the
        #: largest static address (literal or IU-emitted); every
        #: address is checked against the configured memory here.
        self.memory_words = _memory_words(
            program.cell_code, emissions[:, 2],
            program.config.cell.memory_words,
        )
        #: The metrics of every clean run, once its :meth:`timeline`
        #: passed (its verdicts hold for every clean run).
        self.facts: MachineMetrics | None = None
        # Per channel, the host word offsets fed into cell 0 and the
        # collection's scatter.  A host index out of bounds raises
        # HostDataError here, before the run starts.
        host = program.host_program
        self.feed = {
            channel: host.feed(channel) for channel in (Channel.X, Channel.Y)
        }
        self.collection: dict[Channel, Collection] = {
            channel: Collection.of(host.collection(channel), host.layout.discard)
            for channel in (Channel.X, Channel.Y)
        }
        #: Static operation counts of one cell run; the stream-accounting
        #: guard checks that every inter-cell link carries exactly
        #: ``counts.sends[channel]`` words.
        self.counts = OpCounts.of_run(program.cell_code, self.blocks)
        #: By lane cap, a clean run's block spans (:meth:`lanes`).
        self._lanes: dict[int, list[CellSpans]] = {}

    @functools.cached_property
    def address_list(self) -> list[int]:
        """:attr:`addresses` as Python ints, what every cell run reads
        (built on the first run, not with the plan)."""
        return self.addresses.tolist()

    @functools.cached_property
    def driver(self) -> Callable:
        """One checked cell run: ``driver(ctx, start, deadline, expired)``
        runs every block's timed statements inline, from cycle ``start``
        (:func:`inline_driver`)."""
        return self._inline(pure_evaluator, timed=True)

    @functools.cached_property
    def value_driver(self) -> Callable[[tuple], None]:
        """One untimed cell run: ``value_driver(ctx)`` runs every block's
        statements inline (:func:`inline_driver`)."""
        return self._inline(pure_evaluator)

    @functools.cached_property
    def column_driver(self) -> Callable[[tuple], None]:
        """:attr:`value_driver` over NumPy columns (built on first use)."""
        return self._inline(column_evaluator)

    def _inline(self, evaluate, timed: bool = False) -> Callable:
        program = self._program
        return inline_driver(
            program.cell_code, program.config.cell, evaluate, timed
        )

    @functools.cached_property
    def transfers(self) -> dict[str, np.ndarray]:
        """The cycles of one cell run's transfers from its start, by
        queue (:data:`TRANSFERS`): each block's, walked over the loop
        tree."""
        times, queues = walk_events(
            self._program.cell_code.items, _transfers, (True, False)
        )
        return {
            queue: _read_only(times[queues == k])
            for k, queue in enumerate(TRANSFERS)
        }

    def timeline(self) -> tuple[MachineMetrics, bool]:
        """The metrics of every clean run from static transfer times,
        and whether they pass every check of a checked run.  Clean cell
        ``c`` starts at ``c × skew``, runs ``cell_code.total_cycles``
        and transfers at its start plus :attr:`transfers`; word ``k``
        of link 0 arrives at cycle ``k``, and cell ``c``'s addresses at
        ``emission_times + c × hop``.  The verdict also needs the
        collection's word counts and a non-negative watchdog slack."""
        program, at = self._program, self.transfers
        config, skew = program.config, program.skew.skew
        run = program.cell_code.total_cycles
        starts = [cell * skew for cell in range(program.n_cells)]
        times = [
            QueueTimes(
                f"link0.{channel}", None,
                np.arange(len(self.feed[channel])), at[f"r{channel}"],
            )
            for channel in Channel
        ] + [
            QueueTimes(
                f"link{cell}.{channel}", config.queue_depth,
                at[f"s{channel}"] + start - skew, at[f"r{channel}"] + start,
            )
            for cell, start in enumerate(starts[1:], 1)
            for channel in Channel
        ] + [
            QueueTimes(
                f"adr{cell}", config.address_queue_depth,
                self.emission_times + cell * config.address_hop_latency,
                at["ra"] + start,
            )
            for cell, start in enumerate(starts)
        ]
        metrics, passed = queue_metrics(times)
        cells = [
            cell_metrics(cell, start, start + run, self.counts)
            for cell, start in enumerate(starts)
        ]
        passed = (
            passed.all()
            and config.watchdog_slack >= 0
            and all(
                self.collection[channel].words == at[f"s{channel}"].size
                for channel in Channel
            )
        )
        queues = {m.name: m for m in metrics}
        return self.machine_metrics(cells, queues), bool(passed)

    def machine_metrics(
        self, cells: list[CellMetrics], queues: dict[str, QueueMetrics]
    ) -> MachineMetrics:
        """A run's metrics from its cells' and its queues' (by name); a
        cell's receive wait is its input link's total wait."""
        end = max(cell.end_cycle for cell in cells)
        return MachineMetrics(
            total_cycles=end,
            skew=self._program.skew.skew,
            cells=[
                replace(
                    cell,
                    array_cycles=end,
                    receive_wait_cycles=sum(
                        queues[f"link{cell.cell}.{channel}"].total_wait_cycles
                        for channel in Channel
                    ),
                )
                for cell in cells
            ],
            queues=queues,
            iu=self.iu,
        )

    def lanes(self, limit: int) -> list[CellSpans]:
        """A clean run's block spans: each cell's first ``limit`` block
        executions from its start ``c × skew``, and how many more its
        run executes.  Built once per lane cap; each call returns a
        fresh list of the shared, immutable lanes."""
        lanes = self._lanes.get(limit)
        if lanes is None:
            head, skew = self._span_head(limit), self._program.skew.skew
            lanes = self._lanes[limit] = [
                replace(head, cell=cell, start_cycle=cell * skew)
                for cell in range(self._program.n_cells)
            ]
        return list(lanes)

    def spans(self, cells: list[CellMetrics], limit: int) -> list[CellSpans]:
        """Each cell's :meth:`lanes` lane from its measured start cycle
        (a stalled cell's spans move with it)."""
        lanes = self.lanes(limit)
        return [
            replace(lanes[cell.cell], start_cycle=cell.start_cycle)
            for cell in cells
        ]

    def _span_head(self, limit: int) -> CellSpans:
        """The first ``limit`` spans of a cell started at cycle 0."""
        block_ids, total = _head(self._program.cell_code.items, limit)
        size = max(self.blocks, default=-1) + 1
        length_of = np.zeros(size, np.int64)
        issued_of = np.zeros(size, np.int64)
        for block in self._program.cell_code.blocks():
            length_of[block.block_id] = block.length
            issued_of[block.block_id] = self.blocks[block.block_id].issued
        lengths = length_of[block_ids]
        return CellSpans(
            cell=0,
            start_cycle=0,
            block_ids=_read_only(block_ids),
            offsets=_read_only(np.cumsum(lengths) - lengths),
            lengths=_read_only(lengths),
            issued_ops=_read_only(issued_of[block_ids]),
            omitted=total - block_ids.size,
        )

    @property
    def skipped_slots(self) -> int:
        """Instruction slots the fast path never visits (nop cycles)."""
        return sum(
            block.length - self.blocks[block.block_id].issued
            for block in self._program.cell_code.blocks()
        )


def cell_metrics(
    cell: int, start: int, end: int, counts: OpCounts
) -> CellMetrics:
    """The :class:`CellMetrics` of a cell run from ``start`` to ``end``:
    its operation counts are the static per-run ``counts`` (a run either
    executes every block the schedule fixes or raises)."""
    return CellMetrics(
        cell=cell,
        start_cycle=start,
        end_cycle=end,
        busy_cycles=counts.issued,
        alu_ops=counts.alu_ops,
        mpy_ops=counts.mpy_ops,
        mem_reads=counts.mem_reads,
        mem_writes=counts.mem_writes,
        receives=sum(counts.receives.values()),
        sends=sum(counts.sends.values()),
    )


def _memory_words(code: CellCode, addresses: np.ndarray, size: int) -> int:
    """One past the largest data address a run of ``code`` touches: the
    literal addresses in its instructions and the IU's ``addresses``.
    An address outside the ``size``-word memory raises here, before any
    run."""
    literal = [
        mem.address
        for block in code.blocks()
        for instr in block.instructions
        for mem in instr.mem
        if mem.address_source is AddressSource.LITERAL
    ]
    used = np.concatenate([np.array(literal, np.int64), addresses])
    if not used.size:
        return 0
    low, high = int(used.min()), int(used.max())
    for address in (low, high):
        if not 0 <= address < size:
            raise SimulationError(
                f"static data address {address} lies outside the "
                f"{size}-word data memory"
            )
    return high + 1


def _head(items: list[ScheduledItem], limit: int) -> tuple[np.ndarray, int]:
    """The first ``limit`` block ids one pass over ``items`` executes,
    and how many it executes in all."""
    parts, total = [], 0
    for item in items:
        room = max(limit - total, 0)
        if isinstance(item, ScheduledBlock):
            ids, count = np.array([item.block_id], np.int64), 1
        else:
            body, per_trip = _head(item.body, room)
            count = per_trip * item.trip
            ids = np.tile(body, min(item.trip, -(-room // max(body.size, 1))))
        parts.append(ids[:room])
        total += count
    return np.concatenate(parts or [np.empty(0, np.int64)]), total


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array
