"""Tests for the compile-time synchronisation theory (Section 6.2).

Includes exact reproductions of the paper's worked examples:
Figure 6-2 / Table 6-1 (straight-line, minimum skew 3) and
Figure 6-4 / Tables 6-2, 6-3, 6-4 (loops, minimum skew 18).
"""

import numpy as np
import pytest

from repro.lang import Channel
from repro.timing import (
    TimingFunction,
    compute_skew,
    characterize_stream,
    check_buffers,
    input_stream,
    max_time_difference_bound,
    minimum_buffer_sizes,
    minimum_skew_bound,
    minimum_skew_exact,
    occupancy_requirement,
    output_stream,
    stream_event_times,
    stream_times_by_statement,
)
from repro.timing.synthetic import (
    block,
    build_program,
    figure_6_2_program,
    figure_6_4_program,
    loop,
)
from repro.errors import QueueOverflowError


class TestTable61Straightline:
    """Figure 6-2 / Table 6-1 / Figure 6-3."""

    def test_timing_table(self):
        code = figure_6_2_program()
        outs = stream_event_times(code, output_stream(Channel.X))
        ins = stream_event_times(code, input_stream(Channel.X))
        assert list(outs) == [0, 5]  # tau_O
        assert list(ins) == [1, 2]  # tau_I
        assert list(outs - ins) == [-1, 3]  # tau_O - tau_I column

    def test_minimum_skew_is_3(self):
        code = figure_6_2_program()
        assert minimum_skew_exact(code, Channel.X).skew == 3
        assert minimum_skew_bound(code, Channel.X).skew == 3

    def test_figure_6_3_two_cell_execution(self):
        """With skew 3, no input of cell 2 precedes the matching output
        of cell 1."""
        code = figure_6_2_program()
        outs = stream_event_times(code, output_stream(Channel.X))
        ins = stream_event_times(code, input_stream(Channel.X)) + 3
        assert (outs <= ins).all()
        # And skew 2 would break it:
        assert not (outs <= ins - 1).all()


class TestTable63Vectors:
    """The five-vector characterisation of Figure 6-4's statements."""

    @pytest.fixture(scope="class")
    def code(self):
        return figure_6_4_program()

    def test_input_vectors(self, code):
        chars = characterize_stream(code, input_stream(Channel.X))
        assert len(chars) == 2
        i0, i1 = chars
        assert (i0.R, i0.N, i0.S, i0.L, i0.T) == (
            (5, 1), (2, 1), (0, 0), (3, 1), (1, 0)
        )
        assert (i1.S, i1.T) == ((0, 1), (1, 1))

    def test_output_vectors(self, code):
        chars = characterize_stream(code, output_stream(Channel.X))
        assert len(chars) == 5
        o0, o1, o2, o3, o4 = chars
        assert (o0.R, o0.N, o0.S, o0.L, o0.T) == (
            (2, 1), (2, 1), (0, 0), (2, 1), (18, 0)
        )
        assert (o1.S, o1.T) == ((0, 1), (18, 1))
        assert (o2.R, o2.N, o2.S, o2.L, o2.T) == (
            (2, 1), (3, 1), (4, 0), (5, 1), (24, 0)
        )
        assert (o3.S, o3.T) == ((4, 1), (24, 1))
        assert (o4.S, o4.T) == ((4, 2), (24, 2))


class TestTable64TimingFunctions:
    """tau values and domains of Figure 6-4's statements."""

    @pytest.fixture(scope="class")
    def functions(self):
        code = figure_6_4_program()
        ins = [
            TimingFunction(c)
            for c in characterize_stream(code, input_stream(Channel.X))
        ]
        outs = [
            TimingFunction(c)
            for c in characterize_stream(code, output_stream(Channel.X))
        ]
        return ins, outs

    def test_i0_closed_form(self, functions):
        ins, _ = functions
        # tau(n) = 1 + 3/2 n - 1/2 (n mod 2), domain n even in [0, 8].
        assert ins[0].domain() == [0, 2, 4, 6, 8]
        for n in ins[0].domain():
            assert ins[0](n) == 1 + (3 * n) // 2  # n even

    def test_i1_domain(self, functions):
        ins, _ = functions
        assert ins[1].domain() == [1, 3, 5, 7, 9]
        assert ins[1](1) == 2 and ins[1](9) == 14

    def test_o0_values(self, functions):
        _, outs = functions
        assert outs[0].domain() == [0, 2]
        assert [outs[0](n) for n in (0, 2)] == [18, 20]

    def test_o2_values(self, functions):
        _, outs = functions
        # tau(n) = 52/3 + 5/3 n - 2/3 ((n-4) mod 3) on n in {4, 7}.
        assert outs[2].domain() == [4, 7]
        assert [outs[2](n) for n in (4, 7)] == [24, 29]

    def test_disjoint_domains(self, functions):
        """I(0) and O(1): even vs odd ordinals never intersect — but the
        interval bound is still finite (the paper's relaxation ignores
        the mod constraints)."""
        ins, outs = functions
        assert not (set(ins[0].domain()) & set(outs[1].domain()))

    def test_completely_overlapped_bound(self, functions):
        """O(0)'s domain is inside I(0)'s; max difference <= 17."""
        ins, outs = functions
        bound = max_time_difference_bound(outs[0], ins[0])
        exact = max(
            outs[0](n) - ins[0](n)
            for n in set(outs[0].domain()) & set(ins[0].domain())
        )
        assert exact == 17
        assert bound >= exact

    def test_partially_overlapped_bound(self, functions):
        """O(4) vs I(0): the paper bounds the difference by 17 + 2/3."""
        ins, outs = functions
        bound = max_time_difference_bound(outs[4], ins[0])
        assert bound is not None
        assert float(bound) <= 17 + 2 / 3 + 1e-9


class TestTable62Skew:
    def test_minimum_skew_is_18(self):
        code = figure_6_4_program()
        assert minimum_skew_exact(code, Channel.X).skew == 18

    def test_bound_at_least_exact(self):
        code = figure_6_4_program()
        bound = minimum_skew_bound(code, Channel.X).skew
        assert bound >= 18
        # The relaxation is tight within one cycle here.
        assert bound <= 19

    def test_per_event_table(self):
        """Reproduce the full (tau_O - tau_I) column of Table 6-2."""
        code = figure_6_4_program()
        outs = stream_event_times(code, output_stream(Channel.X))
        ins = stream_event_times(code, input_stream(Channel.X))
        assert list(outs) == [18, 19, 20, 21, 24, 25, 26, 29, 30, 31]
        assert list(ins) == [1, 2, 4, 5, 7, 8, 10, 11, 13, 14]
        assert list(outs - ins) == [17, 17, 16, 16, 17, 17, 16, 18, 17, 17]


class TestTauAgainstEnumeration:
    """tau functions must agree with brute-force enumeration on every
    statement of every shape we can build."""

    SHAPES = [
        build_program(block(4, ("out", 0), ("in", 2))),
        build_program(loop(7, block(3, ("in", 0), ("out", 2)))),
        build_program(
            block(2, ("in", 1)),
            loop(3, block(2, ("in", 0)), loop(4, block(3, ("out", 1)))),
            block(5, ("out", 4)),
        ),
        build_program(
            loop(2, loop(3, loop(4, block(2, ("in", 0), ("out", 1)))))
        ),
    ]

    @pytest.mark.parametrize("index", range(len(SHAPES)))
    def test_tau_matches_events(self, index):
        code = self.SHAPES[index]
        for stream in (input_stream(Channel.X), output_stream(Channel.X)):
            per_statement = stream_times_by_statement(code, stream)
            for char in characterize_stream(code, stream):
                tau = TimingFunction(char)
                times = per_statement[char.io_index]
                domain = tau.domain()
                assert len(domain) == len(times)
                assert [tau(n) for n in domain] == list(times)
                assert tau.n_min() == domain[0]
                assert tau.n_max() == domain[-1]

    @pytest.mark.parametrize("index", range(len(SHAPES)))
    def test_bound_dominates_exact(self, index):
        code = self.SHAPES[index]
        exact = minimum_skew_exact(code, Channel.X)
        bound = minimum_skew_bound(code, Channel.X)
        if exact.method == "none":
            return
        assert bound.skew >= exact.skew


class TestBuffers:
    def test_occupancy_simple(self):
        sends = np.array([0, 1, 2, 3])
        recvs = np.array([0, 1, 2, 3])
        # With skew 2, two items wait before the first receive fires.
        assert occupancy_requirement(sends, recvs, skew=0) == 1
        assert occupancy_requirement(sends, recvs, skew=2) == 3

    def test_residual_items_counted(self):
        sends = np.array([0, 1, 2, 3, 4])
        recvs = np.array([0, 1])
        assert occupancy_requirement(sends, recvs, skew=0) >= 3

    def test_no_receives(self):
        assert occupancy_requirement(np.array([1, 2]), np.array([]), 0) == 2

    def test_buffer_grows_with_skew(self):
        _skew, times = compute_skew(figure_6_4_program())
        small = minimum_buffer_sizes(times, skew=18)
        large = minimum_buffer_sizes(times, skew=40)
        x_small = next(b for b in small if b.channel is Channel.X)
        x_large = next(b for b in large if b.channel is Channel.X)
        assert x_large.required >= x_small.required

    def test_overflow_reported(self):
        _skew, times = compute_skew(figure_6_4_program())
        with pytest.raises(QueueOverflowError) as excinfo:
            check_buffers(times, skew=18, queue_depth=1)
        assert excinfo.value.required > 1

    def test_paper_queue_fits(self):
        _skew, times = compute_skew(figure_6_4_program())
        requirements = check_buffers(times, skew=18, queue_depth=128)
        assert all(r.required <= 128 for r in requirements)
