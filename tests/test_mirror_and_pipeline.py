"""Tests for right-to-left mirroring and the pipelining-headroom
(ResMII) analysis."""

import dataclasses

import numpy as np
import pytest

from repro.cellcodegen import pipelining_report, resource_min_interval
from repro.compiler import compile_w2
from repro.compiler.mirror import flows_right_to_left, mirror_module
from repro.errors import MappingError
from repro.lang import Direction, analyze, format_module, parse_module
from repro.machine import interpret, simulate
from repro.programs import deep_nest, mandelbrot, polynomial

from conftest import small_program_suite

#: Every bundled program at its test size, with inputs.
SUITE = [
    (name, source, inputs)
    for name, source, inputs, _reference in small_program_suite(
        np.random.default_rng(20261021)
    )
] + [("deep_nest", deep_nest(), {"x": np.arange(4.0) - 1.5})]


def mirrored_source(source: str) -> str:
    return format_module(mirror_module(parse_module(source)))


def assert_bitwise_equal(got: dict, expected: dict) -> None:
    assert got.keys() <= expected.keys()
    for name, data in got.items():
        assert np.array_equal(
            data.view(np.uint64), expected[name].view(np.uint64)
        ), name

RL_PIPELINE = """
module rl (din in, dout out)
float din[8];
float dout[8];
cellprogram (cid : 0 : 2)
begin
    float t;
    int i;
    for i := 0 to 7 do begin
        receive (R, X, t, din[i]);
        send (L, X, t + 1.0, dout[i]);
    end;
end
"""


class TestMirroring:
    def test_mirror_flips_every_direction(self):
        module = parse_module(RL_PIPELINE)
        mirrored = mirror_module(module)
        loop = mirrored.cellprogram.body[0]
        recv, send = loop.body.statements[0], loop.body.statements[1]
        assert recv.direction is Direction.LEFT
        assert send.direction is Direction.RIGHT

    def test_mirrored_module_reanalyzes(self):
        analyze(mirror_module(parse_module(RL_PIPELINE)))

    def test_rl_program_compiles_and_runs(self):
        program = compile_w2(RL_PIPELINE)
        assert program.mirrored
        data = np.arange(8.0)
        result = simulate(program, {"din": data})
        assert np.allclose(result.outputs["dout"], data + 3.0)  # 3 cells

    def test_lr_program_not_mirrored(self):
        program = compile_w2(polynomial(8, 3))
        assert not program.mirrored

    def test_double_mirror_is_identity(self):
        from repro.lang import format_module

        module = parse_module(RL_PIPELINE)
        twice = mirror_module(mirror_module(module))
        assert format_module(twice) == format_module(module)

    def test_bidirectional_still_rejected(self):
        from repro.programs import bidirectional_cycle

        with pytest.raises(MappingError):
            compile_w2(bidirectional_cycle())

    def test_mirror_inside_if_and_functions(self):
        src = """
module m (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 1)
begin
    function f
    begin
        float t, u;
        int i;
        for i := 0 to 3 do begin
            receive (R, X, t, a[i]);
            if t < 0.0 then u := 0.0; else u := t;
            send (L, X, u, b[i]);
        end;
    end
    call f;
end
"""
        program = compile_w2(src)
        assert program.mirrored
        result = simulate(program, {"a": np.array([-1.0, 2.0, -3.0, 4.0])})
        assert list(result.outputs["b"]) == [0.0, 2.0, 0.0, 4.0]


class TestMirrorIsExact:
    """A program's mirror image compiles to the same machine: the same
    metrics, skew and buffers, and bitwise the same outputs."""

    @pytest.mark.parametrize(
        "name, source, inputs", SUITE, ids=[case[0] for case in SUITE]
    )
    def test_mirror_image_matches(self, name, source, inputs):
        # Both sides canonically formatted, so W2 line counts agree.
        forward = compile_w2(format_module(parse_module(source)))
        mirrored = compile_w2(mirrored_source(source))
        assert not forward.mirrored and mirrored.mirrored
        assert dataclasses.replace(
            mirrored.metrics, compile_seconds=0.0
        ) == dataclasses.replace(forward.metrics, compile_seconds=0.0)
        assert mirrored.skew == forward.skew
        assert mirrored.buffers == forward.buffers
        assert_bitwise_equal(
            simulate(mirrored, inputs).outputs,
            simulate(forward, inputs).outputs,
        )


ONE_CELL_RL = """
module rl1 (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 0)
begin
    float t;
    int i;
    for i := 0 to 3 do begin
        receive (R, X, t, a[i]);
        send (L, X, t * t - 1.0, b[i]);
    end;
end
"""


class TestDirectionDecision:
    """The front end decides the direction once, before any code is
    built, at every cell count."""

    @pytest.mark.parametrize(
        "source, inputs",
        [
            (ONE_CELL_RL, {"a": np.array([1.0, -2.0, 0.5, 3.0])}),
            (
                mirrored_source(mandelbrot(8, 8, 4)),
                {
                    "cx": np.random.default_rng(1).uniform(-2, 1, 64),
                    "cy": np.random.default_rng(2).uniform(-1.5, 1.5, 64),
                },
            ),
        ],
        ids=["four-words", "mandelbrot"],
    )
    def test_one_cell_right_to_left_runs(self, source, inputs):
        program = compile_w2(source)
        assert program.mirrored and program.n_cells == 1
        expected = interpret(analyze(parse_module(source)), inputs)
        assert_bitwise_equal(simulate(program, inputs).outputs, expected)

    def test_one_cell_mixed_direction_refused(self):
        source = ONE_CELL_RL.replace("send (L,", "send (R,")
        assert not flows_right_to_left(parse_module(source))
        with pytest.raises(MappingError, match="unidirectional"):
            compile_w2(source)

    UNCALLED = """
module uncalled (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 2)
begin
    float t;
    int i;
    function unused
    begin
        send ({unused}, Y, 0.0);
    end
    for i := 0 to 3 do begin
        receive ({recv}, X, t, a[i]);
        send ({send}, X, t + 1.0, b[i]);
    end;
end
"""

    @pytest.mark.parametrize(
        "recv, send, unused, mirrored",
        [("L", "R", "L", False), ("R", "L", "R", True)],
        ids=["left-to-right", "right-to-left"],
    )
    def test_uncalled_function_does_not_flip_the_decision(
        self, recv, send, unused, mirrored
    ):
        source = self.UNCALLED.format(recv=recv, send=send, unused=unused)
        assert flows_right_to_left(parse_module(source)) is mirrored
        program = compile_w2(source)
        assert program.mirrored is mirrored
        data = np.arange(4.0)
        assert list(simulate(program, {"a": data}).outputs["b"]) == list(
            data + 3.0
        )

    def test_no_transfers_is_not_mirrored(self):
        source = ONE_CELL_RL.replace(
            "receive (R, X, t, a[i]);", "t := 1.0;"
        ).replace("send (L, X, t * t - 1.0, b[i]);", "t := t + 1.0;")
        assert not flows_right_to_left(parse_module(source))

    @pytest.mark.parametrize("unroll, builds", [(1, 1), ("auto", 4)])
    def test_right_to_left_builds_ir_once_per_factor(
        self, monkeypatch, unroll, builds
    ):
        from repro.compiler import driver

        calls = []
        build_ir = driver.build_ir

        def counted(*args, **kwargs):
            calls.append(kwargs["unroll_factor"])
            return build_ir(*args, **kwargs)

        monkeypatch.setattr(driver, "build_ir", counted)
        source = mirrored_source(polynomial(16, 8))
        assert compile_w2(source, unroll=unroll).mirrored
        assert len(calls) == builds
        assert len(set(calls)) == builds


class TestPipeliningReport:
    def test_resmii_is_queue_bound_for_polynomial(self):
        program = compile_w2(polynomial(48, 4))
        stats = max(pipelining_report(program.cell_code), key=lambda s: s.trip)
        # Per iteration: 2 deq on X? No — one deq each on X and Y, one
        # enq each; one mul, one add.  Every resource needs 1 slot.
        assert stats.resource_min_interval == 1
        assert stats.achieved_interval > stats.resource_min_interval

    def test_unrolling_closes_headroom(self):
        headrooms = []
        for unroll in (1, 4):
            program = compile_w2(polynomial(48, 4), unroll=unroll)
            stats = max(
                pipelining_report(program.cell_code), key=lambda s: s.trip
            )
            headrooms.append(stats.headroom)
        assert headrooms[1] < headrooms[0]

    def test_resource_min_interval_counts_ports(self):
        from repro.cellcodegen.emit import ScheduledBlock
        from repro.cellcodegen.isa import (
            AddressSource,
            MemOp,
            MicroInstr,
            Reg,
        )
        from repro.config import CellConfig

        instr = MicroInstr()
        for _ in range(4):
            instr.mem.append(
                MemOp(True, AddressSource.LITERAL, 0, Reg(0))
            )
        block = ScheduledBlock(0, [instr], length=1)
        interval, usage = resource_min_interval([block], CellConfig())
        assert interval == 2  # 4 references / 2 ports
        assert usage["mem"] == (4, 2)

    def test_bottleneck_named(self):
        program = compile_w2(polynomial(48, 4))
        stats = max(pipelining_report(program.cell_code), key=lambda s: s.trip)
        assert stats.bottleneck  # some resource is the binding one
