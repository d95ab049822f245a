"""The bulk (array) timing evaluations equal their scalar references.

``TimingFunction.evaluate_domain``, ``time_difference_bounds`` and the
tiled ``stream_times_by_statement`` are what the verifier runs; the
scalar ``in_domain``/``__call__``, the per-pair
``max_time_difference_bound`` and a per-iteration walk stay the
references they are checked against here.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellcodegen.emit import ScheduledBlock, pass_cycles
from repro.compiler import compile_w2
from repro.lang import Channel
from repro.timing import (
    IOCharacterization,
    TimingFunction,
    input_stream,
    max_time_difference_bound,
    output_stream,
    stream_times_by_statement,
)
from repro.timing.skew import channel_skew_bound
from repro.timing.tau import time_difference_bounds


@st.composite
def characterizations(draw, stream=output_stream(Channel.X)):
    """Random five vectors: one to three enclosing loops with varied
    trips, per-iteration counts and ``S`` offsets, then the statement
    itself as the innermost single-iteration level."""
    depth = draw(st.integers(min_value=0, max_value=3))
    levels = [
        (
            draw(st.integers(1, 5)),  # R
            draw(st.integers(1, 6)),  # N
            draw(st.integers(0, 5)),  # S
            draw(st.integers(0, 40)),  # L
            draw(st.integers(0, 60)),  # T
        )
        for _ in range(depth)
    ]
    levels.append((1, 1, draw(st.integers(0, 5)), 1, draw(st.integers(0, 60))))
    R, N, S, L, T = (tuple(column) for column in zip(*levels))
    return IOCharacterization(
        io_index=draw(st.integers(0, 50)), stream=stream, R=R, N=N, S=S, L=L, T=T
    )


class TestEvaluateDomain:
    @given(characterizations())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_reference(self, char):
        tau = TimingFunction(char)
        domain, times = tau.evaluate_domain()
        assert domain.dtype == np.int64 and times.dtype == np.int64
        expected = [
            n for n in range(tau.n_min(), tau.n_max() + 1) if tau.in_domain(n)
        ]
        assert domain.tolist() == expected == tau.domain()
        assert times.tolist() == [tau(n) for n in expected]

    def test_multi_level_example(self):
        # Two outer iterations of three stream events each; the statement
        # is the second of them, 4 cycles into a 10-cycle iteration.
        char = IOCharacterization(
            io_index=0,
            stream=input_stream(Channel.X),
            R=(2, 1),
            N=(3, 1),
            S=(0, 1),
            L=(10, 1),
            T=(5, 4),
        )
        domain, times = TimingFunction(char).evaluate_domain()
        assert domain.tolist() == [1, 4]
        assert times.tolist() == [9, 19]


class TestPairBounds:
    @given(
        st.lists(characterizations(), min_size=1, max_size=4),
        st.lists(
            characterizations(stream=input_stream(Channel.X)),
            min_size=1,
            max_size=4,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_grid_equals_per_pair_fraction_formula(self, outs, ins):
        outputs = [TimingFunction(c) for c in outs]
        inputs = [TimingFunction(c) for c in ins]
        numerators, denominator = time_difference_bounds(outputs, inputs)
        for i, output in enumerate(outputs):
            for j, input_ in enumerate(inputs):
                expected = max_time_difference_bound(output, input_)
                got = numerators[i][j]
                if expected is None:
                    assert got is None
                else:
                    assert Fraction(got, denominator) == expected

    def test_skew_rounds_up_exactly(self):
        """A bound just above a large integer must round up to the next
        cycle; through a float it would round down to the integer."""
        output = IOCharacterization(
            io_index=0,
            stream=output_stream(Channel.X),
            R=(2, 1),
            N=(2, 1),
            S=(0, 0),
            L=(3, 1),
            T=(2**54, 0),
        )
        input_ = IOCharacterization(
            io_index=1,
            stream=input_stream(Channel.X),
            R=(2,),
            N=(1,),
            S=(0,),
            L=(1,),
            T=(0,),
        )
        outputs, inputs = [TimingFunction(output)], [TimingFunction(input_)]
        bound = max_time_difference_bound(outputs[0], inputs[0])
        assert bound == Fraction(2**55 + 1, 2)
        assert math.ceil(float(bound)) == 2**54  # the float route is short
        skew = channel_skew_bound(Channel.X, outputs, inputs)
        assert skew.skew == 2**54 + 1


def _walk_times_by_statement(code, stream):
    """The per-iteration reference: visit every loop iteration in turn."""
    result: dict[int, list[int]] = {}

    def walk(items, offset):
        for item in items:
            if isinstance(item, ScheduledBlock):
                for event in item.io_events:
                    if stream.matches(event):
                        result.setdefault(event.io_index, []).append(
                            offset + event.cycle
                        )
                offset += item.length
            else:
                iter_len = pass_cycles(item.body)
                for i in range(item.trip):
                    walk(item.body, offset + i * iter_len)
                offset += item.trip * iter_len
        return offset

    walk(code.items, 0)
    return result


@pytest.mark.parametrize("unroll", [1, 2, 4, "auto"])
def test_tiled_times_by_statement_equal_the_walk(program_suite, unroll):
    for name, source, _inputs, _ref in program_suite:
        code = compile_w2(source, unroll=unroll).cell_code
        for channel in (Channel.X, Channel.Y):
            for stream in (input_stream(channel), output_stream(channel)):
                tiled = stream_times_by_statement(code, stream)
                walked = _walk_times_by_statement(code, stream)
                assert {k: v.tolist() for k, v in tiled.items()} == walked, (
                    f"{name} unroll={unroll} {stream}"
                )
