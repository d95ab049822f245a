"""The one loop-tree event walker (``repro.timing.events.walk_events``).

Cell transfers, host words and IU emissions are each one walk: every
block is visited once and its events are evaluated over the enclosing
loops' index grids.  The property below checks the walker against a
per-trip Python walk of random loop trees; the counts check that an
emission's address is evaluated once per static emission.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_w2
from repro.lang.semantic import AffineIndex
from repro.programs import conv2d, matmul
from repro.timing.events import walk_events

ROW_KINDS = ("time", "label", "affine")


@dataclass
class Event:
    cycle: int
    label: int
    expression: AffineIndex


@dataclass
class Block:
    length: int
    events: list[Event]


@dataclass
class Loop:
    var: str
    start: int
    step: int
    trip: int
    body: list = field(default_factory=list)


@st.composite
def affine(draw, names: tuple[str, ...]):
    coefficients = {
        name: draw(st.integers(-4, 4))
        for name in draw(st.lists(st.sampled_from(names), unique=True))
    } if names else {}
    return AffineIndex(
        draw(st.integers(-20, 20)),
        tuple(sorted((n, c) for n, c in coefficients.items() if c)),
    )


@st.composite
def trees(draw, names: tuple[str, ...] = (), depth: int = 0):
    """A loop body: blocks with and without events, and loops (nested,
    zero-trip, negative steps, indices that shadow an outer one)."""
    items = []
    for _ in range(draw(st.integers(0 if depth else 1, 3))):
        if depth < 3 and draw(st.booleans()):
            var = draw(st.sampled_from(("i", "j", "k")))
            items.append(
                Loop(
                    var,
                    draw(st.integers(-5, 5)),
                    draw(st.integers(-3, 3)),
                    draw(st.integers(0, 3)),
                    draw(trees((*names, var), depth + 1)),
                )
            )
        else:
            length = draw(st.integers(0, 6))
            events = [
                Event(
                    draw(st.integers(0, length)),
                    draw(st.integers(0, 9)),
                    draw(affine(tuple(dict.fromkeys(names)))),
                )
                for _ in range(draw(st.integers(0, 3)))
            ]
            items.append(Block(length, events))
    return items


def _rows(kinds, block: Block, env: dict) -> list | None:
    if not block.events:
        return None
    rows = []
    for kind in kinds:
        if kind == "time":
            rows.append(np.array([e.cycle for e in block.events], np.int64))
        elif kind == "label":
            rows.append(np.array([e.label for e in block.events], np.int64))
        else:
            rows.append([e.expression.evaluate(env) for e in block.events])
    return rows


def _reference(kinds, items) -> np.ndarray:
    """Every trip of every loop in Python, one event at a time."""
    out: list[list[int]] = []
    env: dict[str, int] = {}

    def walk(items, offset: int) -> int:
        for item in items:
            if isinstance(item, Block):
                for e in item.events:
                    values = {
                        "time": offset + e.cycle,
                        "label": e.label,
                        "affine": e.expression.evaluate(env),
                    }
                    out.append([values[kind] for kind in kinds])
                offset += item.length
            else:
                outer = env.get(item.var)
                for i in range(item.trip):
                    env[item.var] = item.start + i * item.step
                    offset = walk(item.body, offset)
                if outer is None:
                    env.pop(item.var, None)
                else:
                    env[item.var] = outer
        return offset

    walk(items, 0)
    return np.array(out, np.int64).reshape(-1, len(kinds)).T


class TestWalkEvents:
    @given(
        trees(),
        st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_a_per_trip_walk(self, items, kinds):
        times = tuple(kind == "time" for kind in kinds)
        walked = walk_events(
            items, lambda block, env: _rows(kinds, block, env), times
        )
        expected = _reference(kinds, items)
        assert walked.dtype == np.int64
        assert walked.shape == expected.shape
        assert np.array_equal(walked, expected)

    def test_a_loop_without_events_is_visited_once(self):
        visits = []
        items = [Loop("i", 0, 1, 10**9, [Block(3, [])])]

        def rows(block, env):
            visits.append(block)
            return None

        assert walk_events(items, rows, (True,)).shape == (1, 0)
        assert len(visits) == 1


class TestEmissionTimes:
    @pytest.mark.parametrize(
        "source, calls, emissions",
        [(matmul(8, 4), 4, 336), (conv2d(16, 12), 2, 384)],
        ids=["matmul(8,4)", "conv2d(16,12)"],
    )
    def test_one_evaluation_per_static_emission(
        self, monkeypatch, source, calls, emissions
    ):
        iu = compile_w2(source).iu_program
        evaluated = []
        evaluate = AffineIndex.evaluate

        def counting(self, env):
            evaluated.append(self)
            return evaluate(self, env)

        monkeypatch.setattr(AffineIndex, "evaluate", counting)
        rows = iu.emission_times()
        assert len(rows) == emissions
        assert len(evaluated) == calls

    def test_rows_are_an_int64_array(self):
        rows = compile_w2(matmul(8, 4)).iu_program.emission_times()
        assert isinstance(rows, np.ndarray)
        assert rows.dtype == np.int64
        assert rows.shape == (336, 3)
        assert (rows[:, 0] <= rows[:, 1]).all()
