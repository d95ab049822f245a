"""Property-based tests of the timing theory over random program shapes.

Random loop trees with random I/O placements drive the five-vector
characterisation, the tau functions and the skew/buffer analyses; every
analytic result is checked against brute-force event enumeration.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import Channel
from repro.timing import (
    TimingFunction,
    characterize_stream,
    count_stream_events,
    input_stream,
    minimum_buffer_sizes,
    minimum_skew_bound,
    minimum_skew_exact,
    occupancy_requirement,
    output_stream,
    stream_event_times,
    stream_times_by_statement,
)
from repro.timing.synthetic import SynthBlock, SynthLoop, build_program

from conftest import replay_peak


@st.composite
def synth_blocks(draw):
    length = draw(st.integers(min_value=1, max_value=6))
    n_events = draw(st.integers(min_value=0, max_value=min(3, length)))
    cycles = sorted(
        draw(
            st.lists(
                st.integers(0, length - 1),
                min_size=n_events,
                max_size=n_events,
                unique=True,
            )
        )
    )
    events = [
        (draw(st.sampled_from(["in", "out"])), cycle) for cycle in cycles
    ]
    return SynthBlock(length=length, events=events)


@st.composite
def synth_items(draw, depth=0):
    if depth >= 2 or draw(st.booleans()):
        return draw(synth_blocks())
    trip = draw(st.integers(min_value=1, max_value=4))
    n_children = draw(st.integers(min_value=1, max_value=2))
    body = [draw(synth_items(depth=depth + 1)) for _ in range(n_children)]
    return SynthLoop(trip=trip, body=body)


@st.composite
def synth_programs(draw):
    n_items = draw(st.integers(min_value=1, max_value=4))
    items = [draw(synth_items()) for _ in range(n_items)]
    return build_program(*items)


class TestTimingFunctionProperties:
    @given(synth_programs())
    @settings(max_examples=120, deadline=None)
    def test_tau_equals_enumeration(self, code):
        for stream in (input_stream(Channel.X), output_stream(Channel.X)):
            per_statement = stream_times_by_statement(code, stream)
            for char in characterize_stream(code, stream):
                tau = TimingFunction(char)
                domain = tau.domain()
                times = per_statement.get(char.io_index)
                assert times is not None
                assert [tau(n) for n in domain] == list(times)

    @given(synth_programs())
    @settings(max_examples=120, deadline=None)
    def test_statement_domains_partition_the_stream(self, code):
        """Every stream ordinal belongs to exactly one statement."""
        for stream in (input_stream(Channel.X), output_stream(Channel.X)):
            total = count_stream_events(code.items, stream)
            seen: set[int] = set()
            for char in characterize_stream(code, stream):
                domain = set(TimingFunction(char).domain())
                assert not (domain & seen)
                seen |= domain
            assert seen == set(range(total))

    @given(synth_programs())
    @settings(max_examples=120, deadline=None)
    def test_event_times_strictly_increasing(self, code):
        for stream in (input_stream(Channel.X), output_stream(Channel.X)):
            times = stream_event_times(code, stream)
            assert (np.diff(times) > 0).all() if times.size > 1 else True


class TestSkewProperties:
    @given(synth_programs())
    @settings(max_examples=150, deadline=None)
    def test_bound_dominates_exact(self, code):
        sends = stream_event_times(code, output_stream(Channel.X))
        recvs = stream_event_times(code, input_stream(Channel.X))
        if recvs.size > sends.size or recvs.size == 0:
            return  # unbalanced programs are rejected elsewhere
        exact = minimum_skew_exact(code, Channel.X)
        bound = minimum_skew_bound(code, Channel.X)
        assert exact.skew >= 0  # clamped: a no-constraint channel is 0
        assert bound.skew >= exact.skew

    @given(synth_programs())
    @settings(max_examples=150, deadline=None)
    def test_exact_skew_is_minimal(self, code):
        """At the exact skew every receive follows its send; one cycle
        less and some receive precedes it."""
        sends = stream_event_times(code, output_stream(Channel.X))
        recvs = stream_event_times(code, input_stream(Channel.X))
        if recvs.size > sends.size or recvs.size == 0:
            return
        skew = minimum_skew_exact(code, Channel.X).skew
        matched = sends[: recvs.size]
        assert (matched <= recvs + skew).all()
        if skew > 0:
            # Minimality only when the zero-clamp did not engage: at
            # skew 0 the channel may have slack (all sends early).
            assert not (matched <= recvs + skew - 1).all()

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_occupancy_residual_accounting(self, data):
        """Direct-array occupancy with strictly fewer receives than
        sends: the residual items left behind are accounted exactly."""
        sends = np.asarray(
            sorted(
                data.draw(
                    st.lists(
                        st.integers(0, 50),
                        min_size=1,
                        max_size=12,
                        unique=True,
                    ),
                    label="sends",
                )
            ),
            dtype=np.int64,
        )
        m = data.draw(st.integers(0, sends.size - 1), label="n_recvs")
        recvs = np.asarray(
            sorted(
                data.draw(
                    st.lists(
                        st.integers(0, 50),
                        min_size=m,
                        max_size=m,
                        unique=True,
                    ),
                    label="recvs",
                )
            ),
            dtype=np.int64,
        )
        extra = data.draw(st.integers(0, 8), label="extra_skew")
        feasible = max(0, int((sends[:m] - recvs).max())) if m else 0
        skew = feasible + extra
        required = occupancy_requirement(sends, recvs, skew)
        assert required >= sends.size - recvs.size  # the residual floor
        assert replay_peak(sends, recvs, skew) == required

    @given(synth_programs(), st.integers(min_value=0, max_value=10))
    @settings(max_examples=100, deadline=None)
    def test_buffer_requirement_is_exact(self, code, extra_skew):
        """The computed occupancy is achieved and never exceeded in an
        explicit queue replay."""
        sends = stream_event_times(code, output_stream(Channel.X))
        recvs = stream_event_times(code, input_stream(Channel.X))
        if recvs.size > sends.size or recvs.size == 0 or sends.size == 0:
            return
        skew = minimum_skew_exact(code, Channel.X).skew + extra_skew
        required = occupancy_requirement(sends, recvs, skew)
        assert replay_peak(sends, recvs, skew) == required
