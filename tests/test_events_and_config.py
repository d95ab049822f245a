"""Tests for stream-event enumeration budgets, configuration objects,
and the error hierarchy."""

import dataclasses

import numpy as np
import pytest

from repro import errors
from repro.compiler import compile_w2
from repro.config import DEFAULT_CONFIG, CellConfig, IUConfig, WarpConfig
from repro.lang import Channel
from repro.programs import passthrough, polynomial
from repro.timing import (
    TooManyEventsError,
    count_stream_events,
    stream_event_times,
    stream_times_by_statement,
)
from repro.timing.synthetic import block, build_program, loop
from repro.timing.vectors import input_stream, output_stream


class TestEventBudgets:
    def test_budget_enforced(self):
        code = build_program(loop(1000, block(2, ("in", 0))))
        with pytest.raises(TooManyEventsError):
            stream_event_times(code, input_stream(Channel.X), max_events=100)

    def test_budget_none_means_unlimited(self):
        code = build_program(loop(1000, block(2, ("in", 0))))
        times = stream_event_times(code, input_stream(Channel.X), max_events=None)
        assert times.size == 1000

    def test_by_statement_budget(self):
        code = build_program(loop(1000, block(2, ("in", 0))))
        with pytest.raises(TooManyEventsError):
            stream_times_by_statement(
                code, input_stream(Channel.X), max_events=10
            )

    def test_counts_are_cheap_and_exact(self):
        code = build_program(
            loop(7, loop(11, block(3, ("in", 0), ("out", 2)))),
            block(2, ("out", 1)),
        )
        assert count_stream_events(code.items, input_stream(Channel.X)) == 77
        assert count_stream_events(code.items, output_stream(Channel.X)) == 78

    def test_empty_stream(self):
        code = build_program(block(3))
        assert stream_event_times(code, input_stream(Channel.X)).size == 0

    def test_bound_covers_compiled_skew(self):
        """The paper's closed-form bound per channel is at least the
        exact skew the compiler chose, and a program run at the bound's
        (possibly larger) skew still simulates cleanly."""
        from repro.machine import simulate
        from repro.timing import minimum_skew_bound

        program = compile_w2(polynomial(40, 4))
        bounds = [
            minimum_skew_bound(program.cell_code, channel)
            for channel in (Channel.X, Channel.Y)
        ]
        for bound in bounds:
            assert bound.method in ("bound", "none")
            exact = program.skew.channel(bound.channel)
            assert bound.skew >= exact.skew
            assert (bound.n_sends, bound.n_receives) == (
                exact.n_sends,
                exact.n_receives,
            )
        bounded = max([1] + [b.skew for b in bounds])
        assert bounded >= program.skew.skew
        object.__setattr__(program.skew, "skew", bounded)
        rng = np.random.default_rng(0)
        simulate(
            program,
            {"z": rng.uniform(-1, 1, 40), "c": rng.standard_normal(4)},
        )


class TestOneWalkPerStream:
    """A compile walks each channel's send and receive streams once:
    the skew and the buffer sizes share the walk."""

    @pytest.mark.parametrize(
        "source, verify, walks",
        [
            (polynomial(40, 4), "quick", 4),
            (polynomial(40, 4), "full", 8),
            (passthrough(8, 1), "quick", 0),
        ],
        ids=["multi-cell-quick", "multi-cell-full", "one-cell-quick"],
    )
    def test_walks_per_compile(self, monkeypatch, source, verify, walks):
        """At ``full`` the verifier walks its own four labelled streams."""
        from repro.timing import events

        calls = []
        walk = events._walk_stream

        def counted(*args, **kwargs):
            calls.append(args[1])
            return walk(*args, **kwargs)

        monkeypatch.setattr(events, "_walk_stream", counted)
        config = dataclasses.replace(DEFAULT_CONFIG, verify=verify)
        compile_w2(source, config=config)
        assert len(calls) == walks

    def test_skew_and_buffers_share_the_times(self):
        from repro.timing import check_buffers, compute_skew

        program = compile_w2(polynomial(40, 4))
        skew, times = compute_skew(program.cell_code, n_cells=4)
        assert skew == program.skew
        assert list(times) == [Channel.X, Channel.Y]
        for channel, (sends, receives) in times.items():
            assert sends.size == skew.channel(channel).n_sends
            assert receives.size == skew.channel(channel).n_receives
        buffers = check_buffers(times, skew.skew, DEFAULT_CONFIG.queue_depth)
        assert buffers == program.buffers


class TestConfigs:
    def test_defaults_match_paper(self):
        assert DEFAULT_CONFIG.n_cells == 10
        assert DEFAULT_CONFIG.queue_depth == 128
        assert DEFAULT_CONFIG.cell.memory_words == 4096
        assert DEFAULT_CONFIG.cell.fpu_stages == 5
        assert DEFAULT_CONFIG.iu.n_registers == 16
        assert DEFAULT_CONFIG.iu.table_words == 32768
        assert DEFAULT_CONFIG.iu.loop_test_cycles == 3

    def test_configs_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_CONFIG.n_cells = 5  # type: ignore[misc]
        with pytest.raises(dataclasses.FrozenInstanceError):
            DEFAULT_CONFIG.cell.alu_latency = 1  # type: ignore[misc]

    def test_custom_config_flows_through(self):
        config = WarpConfig(cell=CellConfig(alu_latency=2, mpy_latency=2))
        program = compile_w2(polynomial(12, 3), config=config)
        baseline = compile_w2(polynomial(12, 3))
        assert program.cell_code.total_cycles < baseline.cell_code.total_cycles

    def test_machine_config_reexport(self):
        from repro.machine.config import CellConfig as ReExported

        assert ReExported is CellConfig


class TestErrorHierarchy:
    def test_compilation_errors(self):
        for cls in (
            errors.MappingError,
            errors.MemoryOverflowError,
            errors.IUDeadlineError,
            errors.TableOverflowError,
        ):
            assert issubclass(cls, errors.CompilationError)
        assert issubclass(errors.RegisterPressureError, errors.CompilationError)
        assert issubclass(errors.QueueOverflowError, errors.CompilationError)

    def test_simulation_errors(self):
        for cls in (
            errors.QueueUnderflowError,
            errors.QueueCapacityError,
            errors.HostDataError,
        ):
            assert issubclass(cls, errors.SimulationError)

    def test_queue_overflow_message(self):
        error = errors.QueueOverflowError("X", required=200, capacity=128)
        assert "200" in str(error) and "128" in str(error)

    def test_register_pressure_fields(self):
        error = errors.RegisterPressureError(needed=70, available=64)
        assert error.needed == 70 and error.available == 64
