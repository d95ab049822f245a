"""Regression tests for bugs found during development (mostly by the
property-based fuzzers).  Each test documents the failure mode."""

import dataclasses

import numpy as np
import pytest

from repro.compiler import compile_w2
from repro.config import DEFAULT_CONFIG
from repro.lang import analyze, parse_module
from repro.machine import interpret, simulate
from repro.programs import binop, passthrough


def check(source, inputs):
    expected = interpret(analyze(parse_module(source)), inputs)
    result = simulate(compile_w2(source), inputs)
    for name in result.outputs:
        assert np.allclose(result.outputs[name], expected[name]), name
    return result


class TestFoldReachabilityCycle:
    def test_shift_chain(self):
        """Found by the end-to-end fuzzer: ``v1 := v2; v2 := v0`` with a
        use of both new values created a cycle between the recv folded
        onto v2's register and the adder consuming v2's old value."""
        source = """
module fuzz (a in, b out)
float a[1];
float b[1];
cellprogram (cid : 0 : 0)
begin
    float v0, v1, v2;
    int i;
    v1 := 0.0;
    v2 := 0.0;
    for i := 0 to 0 do begin
        receive (L, X, v0, a[i]);
        v1 := v2;
        v2 := v0;
        send (R, X, v0 + v1 + v2, b[i]);
    end;
end
"""
        check(source, {"a": np.array([2.0])})


class TestRegisterSwap:
    def test_two_way_swap(self):
        """``a := b; b := a`` through pinned registers forms an
        anti-dependence cycle; the scheduler must break it with a saving
        move (a parallel-copy temporary)."""
        source = """
module swap (din in, dout out)
float din[6];
float dout[6];
cellprogram (cid : 0 : 0)
begin
    float a, b, t, x;
    int i;
    a := 1.0;
    b := 2.0;
    for i := 0 to 5 do begin
        receive (L, X, x, din[i]);
        send (R, X, x + a - b, dout[i]);
        t := a;
        a := b;
        b := t;
    end;
end
"""
        result = check(source, {"din": np.arange(6.0)})
        assert list(result.outputs["dout"]) == [-1.0, 2.0, 1.0, 4.0, 3.0, 6.0]

    def test_three_way_rotation(self):
        source = """
module rot (din in, dout out)
float din[6];
float dout[6];
cellprogram (cid : 0 : 0)
begin
    float a, b, c, t, x;
    int i;
    a := 1.0;
    b := 2.0;
    c := 3.0;
    for i := 0 to 5 do begin
        receive (L, X, x, din[i]);
        send (R, X, x*a + b - c, dout[i]);
        t := a;
        a := b;
        b := c;
        c := t;
    end;
end
"""
        check(source, {"din": np.linspace(-1, 1, 6)})


class TestSharedLoopVariable:
    def test_two_loops_one_index(self):
        """Found by the IU register-machine equivalence test: two loops
        driven by the same declared ``int i`` merged their induction
        updates when keyed by variable name; IR loop variables are now
        unique per loop."""
        source = """
module m (a in, b out)
float a[24];
float b[24];
cellprogram (cid : 0 : 0)
begin
    float t, w[24];
    int i, j;
    for i := 0 to 5 do
        for j := 0 to 3 do begin
            receive (L, X, t, a[4*i + j]);
            w[4*i + j] := t;
        end;
    for i := 0 to 23 do
        send (R, X, w[i], b[i]);
end
"""
        rng = np.random.default_rng(0)
        data = rng.standard_normal(24)
        result = check(source, {"a": data})
        assert np.allclose(result.outputs["b"], data)

        # And the lowered IU machine agrees with the plan.
        from repro.iucodegen import lower_iu_program
        from repro.machine.iu_machine import run_iu_program

        program = compile_w2(source)
        lowered = lower_iu_program(program.iu_program)
        expected = [addr for _, _, addr in program.iu_program.emission_times()]
        assert run_iu_program(lowered) == expected


def _exact_check(source, inputs):
    """Compiled and interpreted outputs have NaNs and signs at the same
    positions, and agree to rounding elsewhere (height reduction
    reassociates sums)."""
    expected = interpret(analyze(parse_module(source)), inputs)
    result = simulate(compile_w2(source), inputs)
    for name, data in result.outputs.items():
        want = expected[name]
        assert np.array_equal(np.isnan(data), np.isnan(want)), (data, want)
        assert np.array_equal(np.signbit(data), np.signbit(want)), (
            data, want
        )
        assert np.allclose(data, want, equal_nan=True), (data, want)
    return result


class TestIEEEExactFolds:
    """Local optimisation folded ``x - x`` and ``x * 0`` to 0 (NaN when
    ``x`` is inf or NaN) and ``x + 0.0`` to ``x`` (``-0.0 + 0.0`` is
    ``+0.0``), so compiled code and the interpreter disagreed."""

    PIPELINE = """
module fuzz (a in, b out)
float a[5];
float b[5];
cellprogram (cid : 0 : 9)
begin
    float v0, v1, v2, v3;
    int i;
    v1 := 0.0;
    v2 := 0.0;
    v3 := 0.0;
    for i := 0 to 4 do begin
        receive (L, X, v0, a[i]);
        v2 := {body};
        send (R, X, v0 + v1 + v2 + v3, b[i]);
    end;
end
"""

    def test_sub_self_of_an_overflow_is_nan(self):
        """Found by the end-to-end fuzzer: ``v2`` overflows to inf by
        the second point, after which ``v2 - v2`` is NaN."""
        source = self.PIPELINE.replace(
            "{body}",
            "(((v0 + v0) + (v2 - v2)) + ((v0 + v2) * (v0 + v2)))",
        )
        inputs = {"a": np.random.default_rng(0).uniform(-2, 2, 5)}
        out = _exact_check(source, inputs).outputs["b"]
        assert np.isinf(out[1]) and np.isnan(out[2:]).all(), out

    def test_inf_times_zero_is_nan(self):
        source = self.PIPELINE.replace("{body}", "(v0 * v2 * 0.0) + v0 * v0")
        inputs = {"a": np.array([1e200, 1.0, 2.0, -1.0, 0.5])}
        out = _exact_check(source, inputs).outputs["b"]
        assert np.isnan(out[1:]).all(), out

    def test_negative_zero_plus_zero_is_positive_zero(self):
        source = """
module negzero (a in, b out)
float a[2];
float b[2];
cellprogram (cid : 0 : 1)
begin
    float v0;
    int i;
    for i := 0 to 1 do begin
        receive (L, X, v0, a[i]);
        send (R, X, v0 + 0.0, b[i]);
    end;
end
"""
        out = _exact_check(source, {"a": np.array([-0.0, 1.0])})
        assert not np.signbit(out.outputs["b"][0])

    def test_signed_zero_constants_stay_apart(self):
        """``-0.0`` folds to the constant -0.0, which value numbering by
        ``==`` merged with a ``0.0`` made earlier, so ``v0 * -0.0`` lost
        its sign: constants are numbered, and literal fields told apart,
        by bits."""
        source = """
module negzero (a in, b out)
float a[2];
float b[2];
cellprogram (cid : 0 : 0)
begin
    float v0;
    int i;
    for i := 0 to 1 do begin
        receive (L, X, v0, a[i]);
        send (R, X, v0 * -0.0, b[i]);
    end;
end
"""
        inputs = {"a": np.array([1.0, -2.0])}
        expected = interpret(analyze(parse_module(source)), inputs)["b"]
        got = simulate(compile_w2(source), inputs).outputs["b"]
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
        assert list(np.signbit(got)) == [True, False]


class TestIfConversionOldValue:
    def test_one_sided_if_on_fresh_block_variable(self):
        """A variable assigned in only one arm, not yet read in the
        block, must keep its register value on the other path (an early
        version selected the new value unconditionally)."""
        source = """
module m (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 0)
begin
    float v, cnt;
    int i;
    cnt := 0.0;
    for i := 0 to 3 do begin
        receive (L, X, v, a[i]);
        if v > 0.0 then
            cnt := cnt + 1.0;
        send (R, X, cnt, b[i]);
    end;
end
"""
        result = check(source, {"a": np.array([1.0, -1.0, 2.0, -2.0])})
        assert list(result.outputs["b"]) == [1.0, 1.0, 2.0, 2.0]


class TestSameCycleMachineOrdering:
    """PR 3 bug-class sweep (ISSUE 5): every same-cycle ordering decision
    in the machine layer, pinned at the executor level so a refactor of
    plan.py/cell.py/array.py cannot silently flip one.

    Audit result: IU-supplied addresses are resolved up front in
    instruction-slot order (not loads-before-stores); all register
    writes are deferred, so intra-cycle read order is immaterial; loads
    observe pre-store memory (the verifier's ``hazard.mem_conflict``
    guarantees no same-cycle same-address ambiguity is ever emitted);
    and a dequeue at the exact send cycle is legal — the same boundary
    the skew/occupancy analyses assume."""

    def test_same_cycle_addresses_consumed_in_slot_order(self):
        from repro.cellcodegen.emit import CellCode, ScheduledBlock
        from repro.cellcodegen.isa import (
            AddressSource,
            EnqOp,
            Lit,
            MemOp,
            MicroInstr,
            Reg,
        )
        from repro.cellcodegen.layout import MemoryLayout
        from repro.config import CellConfig
        from repro.ir.dag import QueueRef
        from repro.lang.ast import Channel, Direction
        from repro.machine.cell import CellExecutor
        from repro.machine.queue import TimedQueue

        config = CellConfig()
        instructions = [MicroInstr() for _ in range(4)]
        # Cycle 0: seed memory[4] with a sentinel via a literal store.
        instructions[0].mem = [
            MemOp(False, AddressSource.LITERAL, 4, None, Lit(42.0))
        ]
        # Cycle 1: store @q in the EARLIER slot, load @q in the later
        # one.  The IU emits same-cycle addresses in slot order, so the
        # store must take the first queued address (3) and the load the
        # second (4).  A loads-first executor hands each the other's.
        instructions[1].mem = [
            MemOp(False, AddressSource.QUEUE, None, None, Lit(9.0)),
            MemOp(True, AddressSource.QUEUE, None, Reg(0)),
        ]
        instructions[1 + config.mem_read_latency].enqs = [
            EnqOp(QueueRef(Direction.RIGHT, Channel.X), Reg(0))
        ]
        block = ScheduledBlock(
            block_id=0, instructions=instructions, length=len(instructions)
        )
        code = CellCode(
            items=[block], layout=MemoryLayout(), pinned={}, config=config
        )
        addresses = TimedQueue("adr")
        addresses.enqueue(0, 3)
        addresses.enqueue(0, 4)
        out_x = TimedQueue("out.x")
        executor = CellExecutor(
            code=code,
            config=config,
            cell_index=0,
            start_time=0,
            in_queues={c: TimedQueue(f"in.{c}") for c in Channel},
            out_queues={Channel.X: out_x, Channel.Y: TimedQueue("out.y")},
            address_queue=addresses,
        )
        executor.run()
        assert out_x.values == [42.0], (
            "the load consumed the store's address: same-cycle IU "
            "addresses left slot order"
        )
        assert executor._memory[3] == 9.0 and executor._memory[4] == 42.0

    def test_dequeue_at_the_send_cycle_is_legal(self):
        """The boundary every layer shares: an item is available at the
        instant it was sent (occupancy counts it, skew allows it) — one
        cycle earlier underflows."""
        import pytest as _pytest

        from repro.errors import QueueUnderflowError
        from repro.machine.queue import TimedQueue

        queue = TimedQueue("link")
        queue.enqueue(5, 1.25)
        assert queue.dequeue(5) == 1.25
        queue.enqueue(9, 2.5)
        with _pytest.raises(QueueUnderflowError, match="sent at"):
            queue.dequeue(8)

    def test_verifier_rejects_same_cycle_slot_reorder(self):
        """The historical delay-line shape (store @q; load @q in one
        cycle at unroll 3): reordering the slots must be flagged by the
        independent verifier, not only by a lucky differential run."""
        import dataclasses

        from repro.config import DEFAULT_CONFIG
        from repro.verify import mutate, verify_program

        source = """
module delayline (a in, b out)
float a[12];
float b[12];
cellprogram (cid : 0 : 0)
begin
    float xin, old;
    float buf[6];
    int r, c;
    for r := 0 to 1 do
        for c := 0 to 5 do begin
            receive (L, X, xin, a[r*6 + c]);
            old := buf[c];
            buf[c] := xin;
            send (R, X, old, b[r*6 + c]);
        end;
end
"""
        config = dataclasses.replace(DEFAULT_CONFIG, verify="off")
        program = compile_w2(source, config=config, unroll=3)
        mutant = mutate(program, "swap_slots", 0)
        assert mutant is not None
        report = verify_program(mutant.program, level="full")
        assert not report.ok
        assert any(
            check.startswith(("slot_order.", "hazard.", "stream.", "iu."))
            for check in report.failed_checks()
        ), report.format()


class TestSkewEdgeCases:
    """ISSUE 5 satellite: residual accounting and clamping edge cases in
    the timing analyses."""

    def test_exact_skew_clamps_at_zero(self):
        """A channel whose sends all precede their receives imposes no
        constraint: the exact method reports 0 (not a negative skew),
        matching the bound method's clamp."""
        import numpy as np_

        from repro.lang import Channel
        from repro.timing.skew import _exact_from_times

        sends = np_.asarray([0, 1, 2], dtype=np_.int64)
        recvs = np_.asarray([5, 6, 7], dtype=np_.int64)
        entry = _exact_from_times(Channel.X, sends, recvs)
        assert entry.skew == 0 and entry.method == "exact"

    def test_single_cell_skew_reports_true_counts(self):
        """method='none' channels of a single-cell program still carry
        the real static send/receive counts (the verifier's conservation
        checks read them), with the global skew floored at 1."""
        from repro.programs import passthrough

        program = compile_w2(passthrough(8, 1))
        assert program.n_cells == 1
        assert program.skew.skew == 1
        from repro.lang import Channel

        entry = program.skew.channel(Channel.X)
        assert entry.method == "none" and entry.skew == 0
        assert entry.n_sends == 8 and entry.n_receives == 8

    def test_occupancy_counts_unconsumed_residual(self):
        """Sends that are never received stay in the queue: occupancy is
        bounded below by the residual, even at huge skew."""
        import numpy as np_

        from repro.timing.buffers import occupancy_requirement

        sends = np_.asarray([0, 3, 6, 9], dtype=np_.int64)
        recvs = np_.asarray([0, 3], dtype=np_.int64)
        assert occupancy_requirement(sends, recvs, skew=100) >= 2
        assert occupancy_requirement(sends, np_.asarray([], dtype=np_.int64), 0) == 4


class TestConservationPad:
    def test_unconsumed_pads_are_legal(self):
        """The Figure 4-1 idiom sends one extra item per distribution
        round; the last cell's pads are never consumed and must not trip
        any audit."""
        from repro.programs import polynomial

        rng = np.random.default_rng(1)
        program = compile_w2(polynomial(8, 4))
        result = simulate(
            program,
            {"z": rng.uniform(-1, 1, 8), "c": rng.standard_normal(4)},
        )
        assert result.total_cycles > 0


class TestDeadReceive:
    SOURCE = """
module dead (xs in, ys in, zs out)
float xs[4];
float ys[4];
float zs[4];
cellprogram (cid : 0 : 1)
begin
    float x, y;
    int i;
    for i := 0 to 3 do begin
        receive (L, X, x, xs[i]);
        receive (L, Y, y, ys[i]);
        send (R, X, y, zs[i]);
        send (R, Y, y);
    end;
end
"""

    @pytest.mark.parametrize("level", ["quick", "full"])
    def test_dead_receive_keeps_its_register_until_it_lands(self, level):
        """``x`` is received and never read.  The allocator used to free
        its register at issue, so the ``y`` receive issued in the same
        cycle took it too and the verifier refused the program
        (``register.waw_same_cycle``, deq and deq)."""
        config = dataclasses.replace(DEFAULT_CONFIG, verify=level)
        program = compile_w2(self.SOURCE, config=config)
        inputs = {"xs": np.arange(4.0), "ys": np.arange(10.0, 14.0)}
        expected = interpret(analyze(parse_module(self.SOURCE)), inputs)
        result = simulate(program, inputs)
        assert np.array_equal(result.outputs["zs"], expected["zs"])
        assert np.array_equal(result.outputs["zs"], inputs["ys"])


HOST_OOB = """
module oob (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 1)
begin
    float t;
    int i;
    for i := 0 to 3 do begin
        receive (L, X, t, {receive});
        send (R, X, t, {send});
    end;
end
"""


class TestHostIndexOutOfBounds:
    """A host index past its array compiles (the host program is only
    evaluated when a run is planned) and fails every run with the same
    message as the reference interpreter's."""

    @pytest.mark.parametrize(
        "receive, send, message, interpreted",
        [
            ("a[i+1]", "b[i]", "input reference a[4] is out of bounds",
             "a[4] out of bounds"),
            ("a[i]", "b[i+1]", "output binding b[4] is out of bounds",
             "b[4] out of bounds"),
        ],
        ids=["input", "output"],
    )
    def test_every_path_reports_it(self, receive, send, message, interpreted):
        from repro.errors import HostDataError
        from repro.exec import BatchRunner

        source = HOST_OOB.format(receive=receive, send=send)
        program = compile_w2(source)  # must not raise
        inputs = {"a": np.arange(4.0)}
        with pytest.raises(HostDataError) as error:
            simulate(program, inputs)
        assert str(error.value) == message
        batch = BatchRunner(program).run([inputs, inputs, {}])
        assert batch.results == [None, None, None]
        assert [f.index for f in batch.failures] == [0, 1, 2]
        for failure in batch.failures:
            assert failure.error_type == "HostDataError"
            assert failure.message == message
        with pytest.raises(HostDataError) as error:
            interpret(analyze(parse_module(source)), inputs)
        assert str(error.value) == interpreted


    def test_stream_with_literals_names_the_array_word(self):
        from repro.errors import HostDataError

        source = """
module oob (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 1)
begin
    float t, u;
    int i;
    for i := 0 to 3 do begin
        receive (L, X, u, 2.0);
        receive (L, X, t, a[i+1]);
        send (R, X, t + u, b[i]);
        send (R, X, u);
    end;
end
"""
        with pytest.raises(HostDataError) as error:
            simulate(compile_w2(source), {"a": np.arange(4.0)})
        assert str(error.value) == "input reference a[4] is out of bounds"


class TestZeroIndexDivisor:
    """An index divisor must fold to a nonzero constant: semantic
    analysis refuses a zero one on both the compiler's and the
    reference interpreter's path, so the interpreter's integer ``//``
    never sees a zero."""

    @pytest.mark.parametrize("index", ["i/0", "4/0", "0/0"])
    @pytest.mark.parametrize("subscripted", ["host", "local"])
    def test_refused_on_both_paths(self, index, subscripted):
        from repro.lang import UnsupportedProgramError

        host, local = (
            (f"m[{index}]", "i") if subscripted == "host" else ("m[i]", index)
        )
        source = f"""
module zdiv (m in, b out)
float m[8];
float b[4];
cellprogram (cid : 0 : 0)
begin
    float t;
    float w[8];
    int i;
    for i := 0 to 3 do begin
        receive (L, X, t, {host});
        w[{local}] := t;
        send (R, X, w[i], b[i]);
    end;
end
"""
        match = "division in array subscripts must fold to a constant"
        with pytest.raises(UnsupportedProgramError, match=match):
            compile_w2(source)
        with pytest.raises(UnsupportedProgramError, match=match):
            interpret(analyze(parse_module(source)), {})


class TestDeepLoopNest:
    """Python allows at most 20 statically nested blocks in one
    function, so code generated for a cell's loop tree must not nest
    one ``for`` per W2 loop without bound: a 25-deep nest of one-trip
    loops once failed with ``SyntaxError: too many statically nested
    blocks``."""

    @pytest.mark.parametrize("unroll", [1, "auto"])
    def test_every_path_matches_the_interpreter(self, unroll, assert_same_run):
        from repro.exec import BatchRunner
        from repro.programs import deep_nest

        from conftest import checked_run

        source = deep_nest(depth=25)
        program = compile_w2(source, unroll=unroll)
        items = [{"din": np.arange(4.0) + k} for k in range(3)]
        for inputs in items:
            want = interpret(analyze(parse_module(source)), inputs)["dout"]
            clean = simulate(program, inputs)
            recorded = simulate(program, inputs, record=True)
            reference = checked_run(program, inputs)
            for got in (clean, recorded, reference):
                assert np.array_equal(got.outputs["dout"], want)
            assert recorded.record is not None
            for got in (clean, recorded):
                assert_same_run(got, reference)
        batch = BatchRunner(program).run(items)
        assert batch.ok and batch.value_items == len(items)
        for inputs, result in zip(items, batch.results):
            assert np.array_equal(
                result.outputs["dout"], simulate(program, inputs).outputs["dout"]
            )


class TestStaticAddressBounds:
    """Every data address a cell run touches is static, so the plan
    checks them all against the data memory once and sizes each run's
    memory to the largest: an address outside it is a structured error
    before any run (a negative one used to wrap silently, a large one
    to raise a raw ``IndexError``)."""

    @pytest.fixture
    def program(self):
        from repro.programs import fir_bank

        # One literal address (4) and IU addresses 0..7.
        return compile_w2(fir_bank(16, 3, 4))

    def test_plan_sizes_memory_to_the_largest_address(self, program):
        assert program.execution_plan.memory_words == 8

    def test_address_past_the_memory(self, program):
        from repro.errors import SimulationError

        cell = dataclasses.replace(program.config.cell, memory_words=6)
        program.config = dataclasses.replace(program.config, cell=cell)
        with pytest.raises(SimulationError) as error:
            simulate(program, {})
        assert str(error.value) == (
            "static data address 7 lies outside the 6-word data memory"
        )

    def test_negative_literal_address(self, program):
        from repro.cellcodegen.isa import AddressSource
        from repro.errors import SimulationError

        (instr, k), = [
            (instr, k)
            for block in program.cell_code.blocks()
            for instr in block.instructions
            for k, mem in enumerate(instr.mem)
            if mem.address_source is AddressSource.LITERAL
        ]
        instr.mem[k] = dataclasses.replace(instr.mem[k], address=-1)
        with pytest.raises(SimulationError) as error:
            simulate(program, {})
        assert str(error.value) == (
            "static data address -1 lies outside the 4096-word data memory"
        )


def _mutated(source: str, old: str, new: str) -> str:
    assert old in source
    return source.replace(old, new)


def huge_loop_source() -> str:
    """``polynomial(16, 8)`` whose data loop runs a billion times."""
    from repro.programs import polynomial

    return _mutated(
        polynomial(16, 8), "for i := 0 to 15", "for i := 0 to 999999999"
    )


def index_after_loop_source() -> str:
    """``fir_bank(64, 10, 8)`` whose inner Y loop body is a bare
    ``receive``, so the following ``send`` names ``j`` after its loop."""
    from repro.programs import fir_bank

    return _mutated(
        fir_bank(64, 10, 8),
        """            for j := 1 to 9 do begin
                receive (L, Y, t1, 0.0);
                send (R, Y, t1, y[9 - j, i]);
            end;""",
        """            for j := 1 to 1 do receive (L, Y, t1, 0.0);
                send (R, Y, t1, y[9 - j, i]);""",
    )


#: Each cell receives two words on X per word it sends.
OUTRUN_SOURCE = """
module m (a in, b out)
float a[{n}];
float b[{n}];
cellprogram (cid : 0 : 1)
begin
    float t, u;
    int i;
    for i := 0 to {last} do begin
        receive (L, X, t, a[i]);
        receive (L, X, u, a[i]);
        send (R, X, t + u, b[i]);
    end;
end
"""


class TestTooManyTimingEvents:
    """Found by mutating bundled sources: a loop bound of ``999999999``
    gave streams too long to enumerate, and the buffer check let the
    enumerator's raw ``TooManyEventsError`` escape ``compile_w2``."""

    def test_compile_refuses_with_a_compilation_error(self):
        from repro.errors import CompilationError

        with pytest.raises(CompilationError, match="too long to enumerate"):
            compile_w2(huge_loop_source())

    @pytest.mark.parametrize(
        "source, message",
        [
            (
                lambda: passthrough(3_000_000, 2),
                "stream send(R.X) has 3000000 events (budget 2000000); "
                "its timing is too long to enumerate exactly",
            ),
            (
                huge_loop_source,
                "stream send(R.X) has 1000000008 events (budget 2000000); "
                "its timing is too long to enumerate exactly",
            ),
            (
                lambda: binop(1400, 1400),
                "stream send(R.X) has 3920000 events (budget 2000000); "
                "its timing is too long to enumerate exactly",
            ),
        ],
        ids=["passthrough", "huge_loop", "binop"],
    )
    def test_refusal_messages(self, source, message):
        from repro.timing import TooManyEventsError

        with pytest.raises(TooManyEventsError) as excinfo:
            compile_w2(source())
        assert str(excinfo.value) == message

    def test_one_cell_stream_past_the_budget_compiles(self):
        """One cell has no inter-cell queue, so nothing is walked."""
        program = compile_w2(passthrough(3_000_000, 1))
        assert program.buffers == []
        assert program.skew.channels[0].n_sends == 3_000_000

    @pytest.mark.parametrize("channel", ["X", "Y"])
    def test_receives_outrunning_sends_refused_before_the_budget(
        self, channel
    ):
        """A channel whose receives outnumber its sends is unmappable,
        whatever the length of its streams."""
        from repro.errors import MappingError

        source = OUTRUN_SOURCE.format(n=3_000_000, last=2_999_999)
        with pytest.raises(MappingError) as excinfo:
            compile_w2(source.replace("X", channel))
        assert str(excinfo.value) == (
            f"channel {channel}: a cell receives 6000000 items from its "
            "left neighbour but the neighbour only sends 3000000"
        )

    def test_variable_skew_plan_refuses_alike(self, monkeypatch):
        from repro.errors import CompilationError
        from repro.lang.ast import Channel
        from repro.timing import events, plan_variable_skew, variable_skew

        program = compile_w2(
            _mutated(huge_loop_source(), "999999999", "15"),
        )
        plan_variable_skew(program.cell_code, Channel.X, program.skew.skew)
        monkeypatch.setattr(
            variable_skew,
            "stream_event_times",
            lambda code, stream: events.stream_event_times(code, stream, 2),
        )
        with pytest.raises(CompilationError, match="budget 2"):
            plan_variable_skew(program.cell_code, Channel.X, program.skew.skew)


class TestLoopIndexAfterItsLoop:
    """Found by mutating bundled sources: a host subscript naming a loop
    index after its loop compiled, then the host I/O program failed with
    a raw ``KeyError: 'bank$1.j'``; subscripts may only name the indices
    of enclosing loops."""

    def test_compile_and_interpreter_refuse(self):
        from repro.lang.errors import SemanticError

        source = index_after_loop_source()
        match = "'j' is not the index of an enclosing loop"
        with pytest.raises(SemanticError, match=match):
            compile_w2(source)
        with pytest.raises(SemanticError, match=match):
            interpret(analyze(parse_module(source)), {})

    def test_cell_subscript_after_its_loop_is_refused(self):
        from repro.lang.errors import SemanticError

        source = """
module m (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 0)
begin
    float t, w[4];
    int i;
    for i := 0 to 3 do receive (L, X, t, a[i]);
    w[i] := t;
    send (R, X, w[0], b[0]);
end
"""
        with pytest.raises(SemanticError, match="enclosing loop"):
            compile_w2(source)


CALLER_INDEX_SOURCE = """
module m (a in, b out)
float a[8];
float b[8];
cellprogram (cid : 0 : 2)
begin
    float t, w[8];
    int i;
    function step
    begin
        float u[2];
        int k;

        receive (L, X, t, a[i]);
        for k := 0 to 1 do u[k] := t + 1.0;
        w[7 - i] := u[1];
        send (R, X, w[7 - i] * 2.0, b[i]);
    end
    for i := 0 to 7 do call step;
end
"""


class TestFunctionSubscriptsCallerIndex:
    """A function body may subscript with the index of a loop around its
    call: it is inlined at the call site, where that index is open.  The
    body used to be inlined without the caller's loop renaming, so the
    machine run failed with a raw ``KeyError: 'i'``."""

    @pytest.mark.parametrize("unroll", [1, 2, 4, "auto"])
    def test_matches_the_interpreter(self, unroll):
        source = CALLER_INDEX_SOURCE
        program = compile_w2(source, unroll=unroll)
        inputs = {"a": np.arange(8.0) - 3.0}
        want = interpret(analyze(parse_module(source)), inputs)["b"]
        for record in (False, True):
            got = simulate(program, inputs, record=record).outputs["b"]
            assert np.array_equal(got, want)

    def test_call_outside_the_loop_is_refused(self):
        from repro.lang.errors import SemanticError

        source = _mutated(
            CALLER_INDEX_SOURCE,
            "for i := 0 to 7 do call step;",
            "for i := 0 to 7 do call step;\n    call step;",
        )
        with pytest.raises(
            SemanticError, match="'i' is not the index of an enclosing loop"
        ):
            compile_w2(source)

    @pytest.mark.parametrize(
        "old, new",
        [
            # The function's loop would overwrite the caller's index.
            ("for k := 0 to 1 do u[k]", "for i := 0 to 1 do u[i]"),
            # A nested loop would, too.
            ("for i := 0 to 7 do call", "for i := 0 to 7 do for i := 0 to 0 do call"),
        ],
    )
    def test_reusing_an_open_index_is_refused(self, old, new):
        from repro.lang.errors import SemanticError

        source = _mutated(CALLER_INDEX_SOURCE, old, new)
        with pytest.raises(SemanticError, match="already the index"):
            compile_w2(source)


@pytest.mark.parametrize(
    "make_source", [huge_loop_source, index_after_loop_source]
)
def test_cli_compile_ends_in_a_structured_error(make_source, tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "mutant.w2"
    path.write_text(make_source())
    assert main(["compile", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[") and "Traceback" not in err
