"""Tests for global flow summaries and communication-cycle analysis."""

import dataclasses
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import programs

from repro.analysis import (
    analyze_communication,
    analyze_global_flow,
    eliminate_dead_writes,
)
from repro.analysis.comm_graph import strongly_connected_components
from repro.ir import build_ir
from repro.ir.dag import OpKind
from repro.lang import analyze, parse_module
from repro.programs import (
    TABLE_7_1_PROGRAMS,
    bidirectional_cycle,
    bidirectional_exchange,
    passthrough,
    polynomial,
)


def lower(source):
    return build_ir(analyze(parse_module(source)))


class TestGlobalFlow:
    def test_read_write_summaries(self):
        ir = lower(polynomial(8, 3))
        info = analyze_global_flow(ir.tree)
        # coeff is written before the main loop and read inside it.
        coeff = next(n for n in info.read_scalars if n.endswith("coeff"))
        assert coeff in info.written_scalars

    def test_dead_writes_detected_and_removed(self):
        ir = lower(passthrough(6, 2))
        info = analyze_global_flow(ir.tree)
        assert info.dead_written_scalars  # 't' is written, never read
        removed = eliminate_dead_writes(ir.tree)
        assert removed == len(info.dead_written_scalars)
        info_after = analyze_global_flow(ir.tree)
        assert not info_after.written_scalars

    def test_live_write_preserved(self):
        # conv1d's xold is loop-carried: written and read in the loop.
        from repro.programs import conv1d

        ir = lower(conv1d(8, 3))
        eliminate_dead_writes(ir.tree)
        info = analyze_global_flow(ir.tree)
        assert any(n.endswith("xold") for n in info.written_scalars)

    def test_array_summaries(self):
        from repro.programs import matmul

        ir = lower(matmul(4, 2))
        info = analyze_global_flow(ir.tree)
        bcol = next(a for a in info.array_stores if a.endswith("bcol"))
        assert bcol in info.array_loads


class TestCommunicationGraph:
    def test_figure_5_1_program_a_no_cycles(self):
        """Unrelated bidirectional traffic: acyclic, hence mappable."""
        ir = lower(bidirectional_exchange())
        report = analyze_communication(ir.tree)
        assert not report.has_right_cycles
        assert not report.has_left_cycles
        assert report.is_mappable
        assert report.is_bidirectional

    def test_figure_5_1_program_b_both_cycles(self):
        """Forwarding in both directions: right and left cycles, not
        mappable onto the skewed model."""
        ir = lower(bidirectional_cycle())
        report = analyze_communication(ir.tree)
        assert report.has_right_cycles
        assert report.has_left_cycles
        assert not report.is_mappable

    def test_pipeline_has_right_cycle_only(self):
        ir = lower(passthrough(6, 3))
        report = analyze_communication(ir.tree)
        assert report.has_right_cycles
        assert not report.has_left_cycles
        assert report.is_mappable
        assert report.is_unidirectional_lr

    @pytest.mark.parametrize("name", list(TABLE_7_1_PROGRAMS))
    def test_paper_programs_unidirectional(self, name):
        ir = lower(TABLE_7_1_PROGRAMS[name]())
        report = analyze_communication(ir.tree)
        assert report.is_unidirectional_lr
        assert report.is_mappable

    def test_cycle_through_memory_flow(self):
        """A value forwarded through a cell array still forms a right
        cycle (store -> load flow is tracked)."""
        src = """
module m (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 1)
begin
    float t, buf[2];
    int i;
    for i := 0 to 3 do begin
        receive (L, X, t, a[i]);
        buf[0] := t;
        send (R, X, buf[0] + 0.0, b[i]);
    end;
end
"""
        ir = lower(src)
        report = analyze_communication(ir.tree)
        assert report.has_right_cycles

    def test_constant_sender_no_cycle(self):
        src = """
module m (a in, b out)
float a[4];
float b[4];
cellprogram (cid : 0 : 1)
begin
    float t;
    int i;
    for i := 0 to 3 do begin
        receive (L, X, t, a[i]);
        send (R, X, 1.0, b[i]);
    end;
end
"""
        ir = lower(src)
        report = analyze_communication(ir.tree)
        assert not report.has_right_cycles
        assert not report.has_left_cycles


#: Each bundled program's CommReport at its default size, as
#: (has_right_cycles, has_left_cycles, sends_right, sends_left,
#: receives_from_left, receives_from_right).
BUNDLED_REPORTS = {
    "bidirectional_cycle": (1, 1, 1, 1, 1, 1),
    "bidirectional_exchange": (0, 0, 1, 1, 1, 1),
    **{
        name: (1, 0, 1, 0, 1, 0)
        for name in (
            "binop", "colorseg", "conv1d", "conv2d", "deep_nest",
            "fir_bank", "mandelbrot", "matmul", "passthrough", "polynomial",
        )
    },
}


#: Random digraphs as ``(nodes, edges)`` over nodes ``0..nodes-1``.
DIGRAPHS = st.integers(0, 25).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
        max_size=3 * n if n else 0,
    ).map(lambda edges: (n, edges))
)


class TestStronglyConnectedComponents:
    @pytest.mark.parametrize("name", sorted(BUNDLED_REPORTS))
    def test_bundled_reports(self, name):
        report = analyze_communication(lower(getattr(programs, name)()).tree)
        assert dataclasses.astuple(report) == BUNDLED_REPORTS[name]

    @pytest.mark.parametrize(
        "graph, components",
        [
            ({}, []),
            # A self-loop is its own component, as is a node without one.
            ({"a": {"a"}, "b": set()}, [{"a"}, {"b"}]),
            # Nested and overlapping cycles merge; an edge out of one
            # cycle into another does not merge them.
            (
                {
                    "a": {"b"}, "b": {"c"}, "c": {"a", "d"}, "d": {"c"},
                    "e": {"f"}, "f": {"e", "a"},
                },
                [{"a", "b", "c", "d"}, {"e", "f"}],
            ),
            # Cross edges into finished components, from a later root
            # and from a sibling in the same search tree.
            (
                {"x": {"y"}, "y": {"x"}, "r": {"p", "q"}, "p": set(),
                 "q": {"p", "x"}},
                [{"x", "y"}, {"r"}, {"p"}, {"q"}],
            ),
        ],
    )
    def test_hand_written_graphs(self, graph, components):
        got = strongly_connected_components(graph)
        assert sorted(map(sorted, got)) == sorted(map(sorted, components))

    @pytest.mark.parametrize("back_edge", [False, True])
    def test_long_chain_does_not_recurse(self, back_edge):
        """A 10^4-node chain is far deeper than Python's recursion
        limit; with a back edge from its end it is one component."""
        n = 10_000
        graph = {str(k): {str(k + 1)} for k in range(n - 1)}
        graph[str(n - 1)] = {"0"} if back_edge else set()
        got = strongly_connected_components(graph)
        if back_edge:
            assert got == [set(graph)]
        else:
            assert sorted(map(sorted, got)) == [[node] for node in sorted(graph)]

    @given(DIGRAPHS)
    @settings(max_examples=200, deadline=None)
    def test_components_are_mutual_reachability(self, case):
        """Two nodes share a component iff each reaches the other."""
        n, edges = case
        graph = {str(node): set() for node in range(n)}
        for source, target in edges:
            graph[str(source)].add(str(target))
        reach = {}
        for node in graph:
            seen, todo = {node}, [node]
            while todo:
                for successor in graph[todo.pop()] - seen:
                    seen.add(successor)
                    todo.append(successor)
            reach[node] = seen
        expected = {
            frozenset(u for u in graph if u in reach[v] and v in reach[u])
            for v in graph
        }
        got = strongly_connected_components(graph)
        assert sorted(map(sorted, got)) == sorted(map(sorted, expected))

    @given(DIGRAPHS)
    @settings(max_examples=200, deadline=None)
    def test_components_equal_networkx(self, case):
        nx = pytest.importorskip("networkx")
        n, edges = case
        graph = {str(node): set() for node in range(n)}
        reference = nx.DiGraph()
        reference.add_nodes_from(graph)
        for source, target in edges:
            graph[str(source)].add(str(target))
            reference.add_edge(str(source), str(target))
        mine = strongly_connected_components(graph)
        assert sorted(map(sorted, mine)) == sorted(
            map(sorted, nx.strongly_connected_components(reference))
        )

    def test_import_leaves_networkx_out(self):
        code = "import sys, repro; assert 'networkx' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
