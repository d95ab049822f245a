"""Direct tests of the cell executor's pipeline semantics.

Hand-built micro-programs exercise the exact timing rules the scheduler
relies on: results land ``latency`` cycles after issue, reads before
writeback see the old value, loads observe pre-store memory within a
cycle, and queue transfers respect the one-cycle dequeue latency.

The executor resolves register writeback once per block, when it
generates the block's function.  A property test checks it bit for bit
against a small heap-based oracle that applies each write at run time,
in ``(landing cycle, issue order)`` order."""

import dataclasses
import heapq
import itertools
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cellcodegen.emit import CellCode, ScheduledBlock, ScheduledLoop
from repro.cellcodegen.isa import (
    AddressSource,
    AluOp,
    DeqOp,
    EnqOp,
    Lit,
    MemOp,
    MicroInstr,
    MoveOp,
    MpyOp,
    Reg,
)
from repro.cellcodegen.layout import MemoryLayout
from repro.config import CellConfig
from repro import DEFAULT_CONFIG, compile_w2
from repro.analysis.local_opt import evaluate_pure, pure_evaluator
from repro.errors import QueueUnderflowError, SimulationError
from repro.exec import BatchRunner
from repro.ir.dag import OpKind, QueueRef
from repro.lang.ast import Channel, Direction
from repro.machine import QUIET_NAN
from repro.machine.cell import CellExecutor
from repro.machine.queue import TimedQueue
from repro.programs import polynomial
from repro.verify import mutate

IN_X = QueueRef(Direction.LEFT, Channel.X)
IN_Y = QueueRef(Direction.LEFT, Channel.Y)
OUT_X = QueueRef(Direction.RIGHT, Channel.X)
OUT_Y = QueueRef(Direction.RIGHT, Channel.Y)
CFG = CellConfig()


def build_code(instructions, length=None):
    block = ScheduledBlock(
        block_id=0,
        instructions=instructions,
        length=length or len(instructions),
    )
    return CellCode(
        items=[block], layout=MemoryLayout(), pinned={}, config=CFG
    )


def run_cell(code, in_values=()):
    in_x = TimedQueue("in.x")
    for k, value in enumerate(in_values):
        in_x.enqueue(k, value)
    out_x = TimedQueue("out.x")
    executor = CellExecutor(
        code=code,
        config=CFG,
        cell_index=0,
        start_time=0,
        in_queues={Channel.X: in_x, Channel.Y: TimedQueue("in.y")},
        out_queues={Channel.X: out_x, Channel.Y: TimedQueue("out.y")},
        address_queue=TimedQueue("adr"),
    )
    stats = executor.run()
    return out_x, stats, executor


def instr(**fields):
    microinstruction = MicroInstr()
    for name, value in fields.items():
        setattr(microinstruction, name, value)
    return microinstruction


class TestPipelineTiming:
    def test_alu_result_lands_after_latency(self):
        # r0 := 1 + 2 at cycle 0; send r0 at alu_latency (new value) --
        # sending one cycle earlier must still see 0.0.
        instructions = [MicroInstr() for _ in range(CFG.alu_latency + 1)]
        instructions[0].alu = AluOp(OpKind.FADD, Reg(0), (Lit(1.0), Lit(2.0)))
        instructions[CFG.alu_latency].enqs = [EnqOp(OUT_X, Reg(0))]
        out, _, _ = run_cell(build_code(instructions))
        assert out.values == [3.0]

    def test_read_before_writeback_sees_old_value(self):
        instructions = [MicroInstr() for _ in range(CFG.alu_latency + 1)]
        instructions[0].alu = AluOp(OpKind.FADD, Reg(0), (Lit(1.0), Lit(2.0)))
        # One cycle before the writeback: still the initial 0.0.
        instructions[CFG.alu_latency - 1].enqs = [EnqOp(OUT_X, Reg(0))]
        out, _, _ = run_cell(build_code(instructions))
        assert out.values == [0.0]

    def test_mpy_div_latency(self):
        length = CFG.div_latency + 1
        instructions = [MicroInstr() for _ in range(length)]
        instructions[0].mpy = MpyOp(OpKind.FDIV, Reg(1), (Lit(9.0), Lit(2.0)))
        instructions[CFG.div_latency].enqs = [EnqOp(OUT_X, Reg(1))]
        out, _, _ = run_cell(build_code(instructions))
        assert out.values == [4.5]

    def test_move_latency(self):
        instructions = [MicroInstr() for _ in range(3)]
        instructions[0].move = MoveOp(Reg(2), Lit(7.0))
        instructions[1].enqs = [EnqOp(OUT_X, Reg(2))]
        out, _, _ = run_cell(build_code(instructions))
        assert out.values == [7.0]

    def test_deq_latency(self):
        instructions = [MicroInstr() for _ in range(3)]
        instructions[0].deqs = [DeqOp(IN_X, Reg(0))]
        instructions[CFG.queue_latency].enqs = [EnqOp(OUT_X, Reg(0))]
        out, _, _ = run_cell(build_code(instructions), in_values=[5.5])
        assert out.values == [5.5]

    def test_same_cycle_forward_sees_stale_register(self):
        instructions = [MicroInstr() for _ in range(2)]
        instructions[0].deqs = [DeqOp(IN_X, Reg(0))]
        instructions[0].enqs = [EnqOp(OUT_X, Reg(0))]  # same cycle!
        out, _, _ = run_cell(build_code(instructions), in_values=[5.5])
        assert out.values == [0.0]


class TestMemorySemantics:
    def test_load_sees_pre_store_value_same_cycle(self):
        instructions = [MicroInstr() for _ in range(CFG.mem_read_latency + 2)]
        # Cycle 0: store 9.0 to @3 AND load @3 -> the load wins the race
        # (reads pre-store memory), per the scheduler's WAR ordering.
        instructions[0].mem = [
            MemOp(True, AddressSource.LITERAL, 3, Reg(0)),
            MemOp(False, AddressSource.LITERAL, 3, None, Lit(9.0)),
        ]
        instructions[CFG.mem_read_latency].enqs = [EnqOp(OUT_X, Reg(0))]
        out, _, executor = run_cell(build_code(instructions))
        assert out.values == [0.0]
        assert executor._memory[3] == 9.0

    def test_store_then_load_next_cycle(self):
        length = CFG.mem_read_latency + 3
        instructions = [MicroInstr() for _ in range(length)]
        instructions[0].mem = [
            MemOp(False, AddressSource.LITERAL, 5, None, Lit(4.25))
        ]
        instructions[1].mem = [
            MemOp(True, AddressSource.LITERAL, 5, Reg(1))
        ]
        instructions[1 + CFG.mem_read_latency].enqs = [EnqOp(OUT_X, Reg(1))]
        out, _, _ = run_cell(build_code(instructions))
        assert out.values == [4.25]


class TestLoopsAndStats:
    def test_loop_repeats_block(self):
        body = ScheduledBlock(
            block_id=0,
            instructions=[
                instr(deqs=[DeqOp(IN_X, Reg(0))]),
                instr(enqs=[EnqOp(OUT_X, Reg(0))]),
            ],
            length=2,
        )
        loop = ScheduledLoop(
            loop_id=0, var="i", start=0, step=1, trip=3, body=[body]
        )
        code = CellCode(
            items=[loop], layout=MemoryLayout(), pinned={}, config=CFG
        )
        out, stats, _ = run_cell(code, in_values=[1.0, 2.0, 3.0])
        assert out.values == [1.0, 2.0, 3.0]
        assert out.send_times == [1, 3, 5]
        assert stats.receives == 3 and stats.sends == 3
        assert stats.end_cycle == 6

    def test_underflow_detected(self):
        instructions = [instr(deqs=[DeqOp(IN_X, Reg(0))])]
        with pytest.raises(QueueUnderflowError):
            run_cell(build_code(instructions), in_values=[])

    def test_op_statistics(self):
        instructions = [MicroInstr() for _ in range(CFG.alu_latency + 1)]
        instructions[0].alu = AluOp(OpKind.FADD, Reg(0), (Lit(1.0), Lit(1.0)))
        instructions[0].mpy = MpyOp(OpKind.FMUL, Reg(1), (Lit(2.0), Lit(2.0)))
        _, stats, _ = run_cell(build_code(instructions))
        assert stats.alu_ops == 1 and stats.mpy_ops == 1
        assert 0 < stats.flop_utilization <= 1

    def test_loop_driver_past_the_nesting_limit(self):
        """A nest deeper than ``MAX_NEST`` continues in functions of its
        own and keeps every trip count, in the timed driver and in the
        untimed one; a loop over no blocks runs nothing; the timed driver
        advances the cycle by each block's length and calls the watchdog
        once it passes the deadline."""
        from repro.machine.plan import MAX_NEST, inline_driver

        block = ScheduledBlock(
            block_id=0,
            instructions=[instr(enqs=[EnqOp(OUT_X, Lit(1.0))])],
            length=3,
        )
        items = [block]
        for depth in range(2 * MAX_NEST + 5):
            items = [
                ScheduledLoop(
                    loop_id=depth, var=f"i{depth}", start=0, step=1,
                    trip=2 if depth % 8 == 0 else 1, body=items,
                )
            ]
        items.append(
            ScheduledLoop(loop_id=99, var="j", start=0, step=1, trip=5)
        )
        code = CellCode(
            items=items, layout=MemoryLayout(), pinned={}, config=CFG
        )
        sent = []
        inline_driver(code, CFG, pure_evaluator)(
            ([], None, None, sent, None, None)
        )
        assert sent == [1.0] * 16  # four loops of two trips
        # The block sends at its first cycle, so each send names its start.
        starts = []
        timed = inline_driver(code, CFG, pure_evaluator, timed=True)
        ctx = ([], [], None, None, lambda t, v: starts.append(t), None, None)
        assert timed(ctx, 100, math.inf, None) == 100 + 16 * 3
        assert starts == [100 + 3 * k for k in range(16)]

        def expired(t):
            raise SimulationError(f"expired at {t}")

        with pytest.raises(SimulationError, match="expired at 9"):
            timed(ctx, 0, 7, expired)


class TestDrainGuard:
    def test_write_landing_after_the_block_is_rejected(self):
        """A schedule that does not drain (only reachable with
        ``verify="off"``) is refused when the block is generated, with
        the block, register and landing cycle named."""
        instructions = [MicroInstr() for _ in range(2)]
        instructions[0].alu = AluOp(OpKind.FADD, Reg(4), (Lit(1.0), Lit(2.0)))
        block = ScheduledBlock(block_id=7, instructions=instructions, length=2)
        code = CellCode(
            items=[block], layout=MemoryLayout(), pinned={}, config=CFG
        )
        with pytest.raises(SimulationError) as caught:
            run_cell(code)
        message = str(caught.value)
        assert "block 7" in message and "r4" in message
        assert f"cycle {CFG.alu_latency}" in message

    def test_batch_reports_the_drain_error_per_item(self):
        """An unverified swap_slots mutant whose block does not drain
        fails item by item, like any other simulation error."""
        config = dataclasses.replace(DEFAULT_CONFIG, verify="off")
        program = compile_w2(polynomial(16, 4), config=config)
        mutant = mutate(program, "swap_slots", 0)
        inputs = {"z": np.ones(16), "c": np.ones(4)}
        result = BatchRunner(mutant.program).run([inputs, inputs])
        assert [f.index for f in result.failures] == [0, 1]
        for failure in result.failures:
            assert failure.error_type == "SimulationError"
            assert "block 3" in failure.message and "r6" in failure.message

    def test_write_landing_on_the_last_cycle_drains(self):
        instructions = [MicroInstr() for _ in range(CFG.alu_latency)]
        instructions[0].alu = AluOp(OpKind.FADD, Reg(4), (Lit(1.0), Lit(2.0)))
        _, _, executor = run_cell(build_code(instructions))
        assert executor._registers[4] == 3.0


# Executor vs a heap-based oracle ---------------------------------------

SMALL = CellConfig(n_registers=4, memory_words=4)
SPECIAL = [0.0, -0.0, 1.0, -2.5, 3.0, 1e308, math.inf, -math.inf, math.nan]
ALU_ARITY = {
    OpKind.FADD: 2,
    OpKind.FSUB: 2,
    OpKind.FNEG: 1,
    OpKind.CMP_LT: 2,
    OpKind.BAND: 2,
    OpKind.SELECT: 3,
}


def _latencies(ins, config):
    """``(unit, dest, latency)`` of the ALU/MPY ops ``ins`` issues."""
    units = []
    if ins.alu is not None:
        units.append((ins.alu, config.alu_latency))
    if ins.mpy is not None:
        div = ins.mpy.op is OpKind.FDIV
        latency = config.div_latency if div else config.mpy_latency
        units.append((ins.mpy, latency))
    return units


def heap_oracle(block, trips, config, inputs, addresses):
    """The writeback semantics the generated functions must keep: each
    write is queued with its landing cycle and applied, in ``(landing,
    issue order)`` order, before the first issue at or after it."""
    regs = [0.0] * config.n_registers
    mem = [0.0] * config.memory_words
    pending, order = [], itertools.count()
    queues = {channel: deque(values) for channel, values in inputs.items()}
    addresses = deque(addresses)
    sent = {Channel.X: [], Channel.Y: []}

    def read(operand):
        if isinstance(operand, Lit):
            return operand.value
        return regs[operand.index]

    def later(time, reg, value):
        heapq.heappush(pending, (time, next(order), reg.index, value))

    for trip in range(trips):
        for offset, ins in enumerate(block.instructions):
            if ins.is_nop():
                continue
            now = trip * block.length + offset
            while pending and pending[0][0] <= now:
                _, _, reg, value = heapq.heappop(pending)
                regs[reg] = value
            for deq in ins.deqs:
                value = queues[deq.queue.channel].popleft()
                later(now + config.queue_latency, deq.dest, value)
            queued = {
                id(m): addresses.popleft()
                for m in ins.mem
                if m.address_source is AddressSource.QUEUE
            }
            where = [queued.get(id(m), m.address) for m in ins.mem]
            for m, address in zip(ins.mem, where):
                if m.is_load:
                    later(now + config.mem_read_latency, m.reg, mem[address])
            for m, address in zip(ins.mem, where):
                if not m.is_load:
                    mem[address] = read(m.store_value)
            for unit, latency in _latencies(ins, config):
                args = [read(s) for s in unit.sources]
                later(now + latency, unit.dest, evaluate_pure(unit.op, args))
            if ins.move is not None:
                value = read(ins.move.source)
                later(now + config.move_latency, ins.move.dest, value)
            for enq in ins.enqs:
                sent[enq.queue.channel].append((now, read(enq.source)))
    for _, _, reg, value in sorted(pending):
        regs[reg] = value
    return regs, mem, sent


REGS = st.builds(Reg, st.integers(0, SMALL.n_registers - 1))
OPERANDS = st.one_of(REGS, st.builds(Lit, st.sampled_from(SPECIAL)))
ADDRESS = st.integers(0, SMALL.memory_words - 1)
LITERAL, QUEUE = st.just(AddressSource.LITERAL), st.just(AddressSource.QUEUE)
MEM_OPS = st.one_of(
    st.builds(MemOp, st.just(True), LITERAL, ADDRESS, REGS),
    st.builds(MemOp, st.just(True), QUEUE, st.none(), REGS),
    st.builds(MemOp, st.just(False), LITERAL, ADDRESS, st.none(), OPERANDS),
    st.builds(MemOp, st.just(False), QUEUE, st.none(), st.none(), OPERANDS),
)


def _drain(ins, config):
    """Cycles from issue until the last write of ``ins`` lands."""
    return max(
        [1, config.move_latency if ins.move else 0]
        + [config.queue_latency] * bool(ins.deqs)
        + [config.mem_read_latency] * any(m.is_load for m in ins.mem)
        + [latency for _unit, latency in _latencies(ins, config)]
    )


@st.composite
def straight_line_blocks(draw):
    """A random drained block, a loop trip count, and the input queue
    values and IU addresses the loop consumes."""
    cycles = draw(
        st.lists(st.integers(0, 11), min_size=1, max_size=7, unique=True)
    )
    instructions = [MicroInstr() for _ in range(max(cycles) + 1)]
    for cycle in cycles:
        ins = instructions[cycle]
        if draw(st.booleans()):
            op = draw(st.sampled_from(sorted(ALU_ARITY, key=str)))
            sources = tuple(draw(OPERANDS) for _ in range(ALU_ARITY[op]))
            ins.alu = AluOp(op, draw(REGS), sources)
        if draw(st.booleans()):
            op = draw(st.sampled_from([OpKind.FMUL, OpKind.FDIV]))
            ins.mpy = MpyOp(op, draw(REGS), (draw(OPERANDS), draw(OPERANDS)))
        if draw(st.booleans()):
            ins.move = MoveOp(draw(REGS), draw(OPERANDS))
        queues = st.sampled_from([IN_X, IN_Y])
        ins.deqs = draw(st.lists(st.builds(DeqOp, queues, REGS), max_size=2))
        queues = st.sampled_from([OUT_X, OUT_Y])
        ins.enqs = draw(
            st.lists(st.builds(EnqOp, queues, OPERANDS), max_size=2)
        )
        ins.mem = draw(st.lists(MEM_OPS, max_size=2))
    length = max(c + _drain(ins, SMALL) for c, ins in enumerate(instructions))
    length += draw(st.integers(0, 2))
    instructions += [MicroInstr() for _ in range(length - len(instructions))]
    block = ScheduledBlock(
        block_id=0, instructions=instructions, length=length
    )
    trips = draw(st.integers(1, 3))
    inputs = {}
    for channel in Channel:
        n = trips * sum(
            d.queue.channel is channel
            for ins in instructions
            for d in ins.deqs
        )
        inputs[channel] = draw(
            st.lists(st.sampled_from(SPECIAL), min_size=n, max_size=n)
        )
    n = trips * sum(
        m.address_source is AddressSource.QUEUE
        for ins in instructions
        for m in ins.mem
    )
    addresses = draw(st.lists(ADDRESS, min_size=n, max_size=n))
    return block, trips, inputs, addresses


def _tie_block():
    """A same-landing write-after-write tie, reads exactly at the landing
    cycle, and a load and a store to one address in one cycle."""
    instructions = [MicroInstr() for _ in range(CFG.alu_latency + 1)]
    instructions[0].alu = AluOp(OpKind.FADD, Reg(1), (Lit(1.0), Lit(2.0)))
    instructions[0].mem = [
        MemOp(False, AddressSource.QUEUE, None, None, Lit(9.0)),
        MemOp(True, AddressSource.QUEUE, None, Reg(2)),
    ]
    instructions[CFG.alu_latency - 1].move = MoveOp(Reg(1), Lit(4.0))
    instructions[CFG.alu_latency].enqs = [
        EnqOp(OUT_X, Reg(1)),
        EnqOp(OUT_Y, Reg(2)),
    ]
    block = ScheduledBlock(
        block_id=0, instructions=instructions, length=len(instructions)
    )
    return block, 2, {Channel.X: [], Channel.Y: []}, [2, 2, 3, 2]


def _two_nan_product_block():
    """A loop that multiplies -NaN by +NaN…01 and stores and sends the
    product.  CPython's generic float multiply returns one of the two
    NaNs and its specialised one (from an instruction's eighth run) the
    other, so the inline driver, cold, and the evaluator lambda that the
    heap oracle and the timed executor share, hot after other tests,
    disagree on which.  Three trips keep the oracle's and the timed
    executor's six products on one side of the switch when the lambda
    starts cold."""
    trips = 3
    nans = np.array([0xFFF8_0000_0000_0000, 0x7FF8_0000_0000_0001], np.uint64)
    x, y = nans.view(np.float64).tolist()
    mpy = SMALL.queue_latency
    store = mpy + SMALL.mpy_latency
    instructions = [MicroInstr() for _ in range(store + 1)]
    instructions[0].deqs = [DeqOp(IN_X, Reg(0)), DeqOp(IN_Y, Reg(1))]
    instructions[mpy].mpy = MpyOp(OpKind.FMUL, Reg(2), (Reg(0), Reg(1)))
    instructions[store].mem = [
        MemOp(False, AddressSource.LITERAL, 0, None, Reg(2))
    ]
    instructions[store].enqs = [EnqOp(OUT_X, Reg(2))]
    block = ScheduledBlock(
        block_id=0, instructions=instructions, length=len(instructions)
    )
    return block, trips, {Channel.X: [x] * trips, Channel.Y: [y] * trips}, []


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


def _canonical_bits(values):
    """:func:`_bits` with every NaN the one quiet NaN.  The NaN rule
    defines which NaN an output carries, not a memory or sent word:
    which NaN a product of two NaNs is differs between CPython's generic
    and its specialised float multiply."""
    array = np.array(values, dtype=np.float64)
    array[np.isnan(array)] = QUIET_NAN
    return _bits(array)


class TestAgainstHeapOracle:
    @settings(max_examples=300, deadline=None)
    @given(straight_line_blocks())
    @example(_tie_block())
    @example(_two_nan_product_block())
    def test_generated_block_matches_heap_writeback(self, case):
        block, trips, inputs, addresses = case
        expected = heap_oracle(block, trips, SMALL, inputs, addresses)
        loop = ScheduledLoop(
            loop_id=0, var="i", start=0, step=1, trip=trips, body=[block]
        )
        code = CellCode(
            items=[loop], layout=MemoryLayout(), pinned={}, config=SMALL
        )
        in_queues = {}
        for channel, values in inputs.items():
            in_queues[channel] = TimedQueue(f"in.{channel}")
            for value in values:
                in_queues[channel].enqueue(0, value)
        out = {channel: TimedQueue(f"out.{channel}") for channel in Channel}
        executor = CellExecutor(
            code=code,
            config=SMALL,
            cell_index=0,
            start_time=0,
            in_queues=in_queues,
            out_queues=out,
            address_queue=TimedQueue(
                "adr", send_times=[0] * len(addresses), values=addresses
            ),
        )
        stats = executor.run()
        regs, mem, sent = expected
        assert _bits(executor._registers) == _bits(regs)
        assert _bits(executor._memory) == _bits(mem)
        for channel in Channel:
            assert out[channel].send_times == [t for t, _ in sent[channel]]
            assert _bits(out[channel].values) == _bits(
                [v for _, v in sent[channel]]
            )
        assert stats.end_cycle == trips * block.length
        assert stats.sends == sum(map(len, sent.values()))
        # The inline value driver moves the same values, NaNs aside.
        from repro.machine.plan import inline_driver

        memory, words = [0.0] * SMALL.memory_words, {c: [] for c in Channel}
        inline_driver(code, SMALL, pure_evaluator)((
            memory,
            *(iter(inputs[c]) for c in Channel),
            *(words[c] for c in Channel),
            iter(addresses),
        ))
        assert _canonical_bits(memory) == _canonical_bits(mem)
        for channel in Channel:
            assert _canonical_bits(words[channel]) == _canonical_bits(
                [v for _, v in sent[channel]]
            )


# The inline value driver's register liveness ---------------------------


def _block(block_id, length, **at):
    """A block of ``length`` cycles; ``at`` maps ``"<field>_<cycle>"`` to
    that instruction's field, e.g. ``alu_0=AluOp(...)``."""
    instructions = [MicroInstr() for _ in range(length)]
    for key, value in at.items():
        field, cycle = key.rsplit("_", 1)
        setattr(instructions[int(cycle)], field, value)
    return ScheduledBlock(
        block_id=block_id, instructions=instructions, length=length
    )


def _loop(trip, *body, loop_id=0):
    return ScheduledLoop(
        loop_id=loop_id, var="i", start=0, step=1, trip=trip, body=list(body)
    )


def _send(block_id, reg):
    return _block(block_id, 1, enqs_0=[EnqOp(OUT_X, Reg(reg))])


def _receive(block_id, reg):
    return _block(block_id, CFG.queue_latency, deqs_0=[DeqOp(IN_X, Reg(reg))])


def _set(block_id, reg, value):
    return _block(
        block_id, CFG.move_latency, move_0=MoveOp(Reg(reg), Lit(value))
    )


def _accumulate(block_id, reg, source):
    """``reg := reg + source``."""
    return _block(
        block_id, CFG.alu_latency,
        alu_0=AluOp(OpKind.FADD, Reg(reg), (Reg(reg), Reg(source))),
    )


class TestInlineLiveness:
    """The inline driver against the timed driver over the same blocks:
    each register a later block reads keeps its value across blocks,
    loops and ``MAX_NEST`` splits, bit for bit."""

    WORDS = [1.5, -2.25, 1e300, -0.0, 7.0, math.nan, 3.0, 0.1]

    def run_both(self, items, words=WORDS):
        from repro.machine.plan import _inline_source, inline_driver

        code = CellCode(
            items=items, layout=MemoryLayout(), pinned={}, config=CFG
        )
        timed, _, _ = run_cell(code, words)
        sent = []
        inline_driver(code, CFG, pure_evaluator)(
            ([], iter(words), None, sent, None, None)
        )
        assert _bits(sent) == _bits(timed.values)
        assert sent, "the case sends nothing"
        return sent, _inline_source(code, CFG, pure_evaluator)[0]

    def test_written_in_a_loop_read_after_it(self):
        sent, _ = self.run_both([_loop(3, _receive(0, 1)), _send(1, 1)])
        assert sent == [1e300]

    def test_loop_carried_register(self):
        """Each trip sends the sum of the trips before it: only the next
        trip reads the sum, nothing after the loop does."""
        sent, _ = self.run_both([
            _set(0, 2, 0.5),
            _loop(4, _receive(1, 0), _send(2, 2), _accumulate(3, 2, 0)),
        ])
        assert sent == [0.5, 2.0, -0.25, 1e300]

    def test_zero_trip_loop_leaves_registers(self):
        sent, source = self.run_both([
            _set(0, 3, 5.0),
            _loop(0, _set(1, 3, 7.0), _receive(2, 3)),
            _send(3, 3),
        ])
        assert sent == [5.0]
        assert "7.0" not in source and "next(dx)" not in source

    def test_dead_write_assigns_nothing(self):
        sent, source = self.run_both([
            _receive(0, 4),  # dead: overwritten before any read
            _set(1, 4, 2.0),
            _send(2, 4),
            _receive(3, 5),  # dead: never read
        ])
        assert sent == [2.0]
        assert "r5" not in source
        assert source.count("r4 = ") == 1

    def test_timed_driver_stores_dead_writes(self):
        """The timed driver uses no liveness: every block stores each
        register it writes to ``R``, dead writes included, so the
        checked path stays an independent reference for the untimed
        driver's liveness."""
        from repro.machine.plan import _inline_source

        code = CellCode(
            items=[
                _receive(0, 4), _set(1, 4, 2.0), _send(2, 4), _receive(3, 5)
            ],
            layout=MemoryLayout(), pinned={}, config=CFG,
        )
        source, _ = _inline_source(code, CFG, pure_evaluator, timed=True)
        assert source.count("R[4] = ") == 2
        assert source.count("R[5] = ") == 1
        _, _, executor = run_cell(code, self.WORDS)
        assert executor._registers[5] == self.WORDS[1]

    def test_register_carried_across_the_nesting_split(self):
        from repro.machine.plan import MAX_NEST

        # Two-trip loops: a one-trip loop is pasted in place, no nesting.
        nest = [_receive(1, 6), _accumulate(2, 7, 6), _send(3, 7)]
        for depth in range(MAX_NEST + 1):
            nest = [_loop(2, *nest, loop_id=depth + 1)]
        trips = 2 ** (MAX_NEST + 1)
        words = (self.WORDS * trips)[:trips]
        sent, source = self.run_both(
            [_set(0, 7, 1.0), *nest, _accumulate(4, 7, 6), _send(5, 7)],
            words,
        )
        assert len(sent) == trips + 1
        # r7 goes in and out of the split loop; r6 comes out of it.
        assert "r6, r7, = loop1(ctx, r7)" in source
