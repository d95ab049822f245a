"""Queue checks, and the static timeline of clean runs.

:func:`repro.obs.metrics.queue_metrics` measures and checks every queue
a result reports, each on its own, by the occupancy rule the compiler
and the verifier share
(:func:`repro.timing.buffers.occupancy_requirement`).  A clean run gets
its metrics and verdicts from it over the plan's static transfer
timeline (:meth:`repro.machine.plan.ExecutionPlan.timeline`), not from
running any cell on timed queues; the checked path
(``conftest.checked_run``, fault-injected runs) runs every cell on the
queues' checking methods.  These tests pin that its peaks agree with
an explicit event replay, that the timeline and the checked path give
the same run, and that a program whose timeline fails raises the
checked path's exact error.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import compile_w2, obs
from repro.faults import FaultInjector, InjectionPlan
from repro.lang.ast import Channel
from repro.machine import simulate
from repro.obs.metrics import QueueTimes, queue_metrics
from repro.programs import matmul, polynomial

from conftest import checked_run, replay_peak, small_program_suite

SUITE = small_program_suite(np.random.default_rng(20261018))

#: Sorted cycles, sometimes past ``2**41``.
cycles = st.builds(
    lambda times, base: [base + t for t in sorted(times)],
    st.lists(st.integers(0, 60), max_size=12),
    st.sampled_from([0, 2**41]),
)


@st.composite
def queue_times(draw):
    sends, recvs = draw(cycles), draw(cycles)
    if draw(st.booleans()):
        sends = np.array(sends, np.int64)
    if draw(st.booleans()):
        recvs = np.array(recvs, np.int64)
    capacity = draw(st.none() | st.integers(0, 12))
    return QueueTimes("q", capacity, sends, recvs)


class TestBatchedPass:
    @given(st.lists(queue_times(), max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_queue_definitions(self, queues):
        """On non-decreasing send and receive cycles, each queue's peak
        is an explicit event replay's and its wait the per-word sum, and
        it passes exactly when no receive precedes its word's send or
        takes a word never sent and its peak fits."""
        metrics, passed = queue_metrics(queues)
        assert len(metrics) == len(passed) == len(queues)
        for queue, got, ok in zip(queues, metrics, passed):
            sends = np.asarray(queue.send_times, np.int64)
            recvs = np.asarray(queue.recv_times, np.int64)
            pairs = min(sends.size, recvs.size)
            assert got.high_water == replay_peak(sends, recvs)
            assert got.total_wait_cycles == int(
                (recvs[:pairs] - sends[:pairs]).sum()
            )
            assert (got.items_sent, got.items_received) == (
                sends.size, recvs.size
            )
            assert np.array_equal(got.send_times, sends)
            assert np.array_equal(got.recv_times, recvs)
            assert not got.send_times.flags.writeable
            in_order = recvs.size <= sends.size and bool(
                (recvs[:pairs] >= sends[:pairs]).all()
            )
            fits = queue.capacity is None or got.high_water <= queue.capacity
            assert bool(ok) == (in_order and fits)

    def test_flags_each_failing_queue_alone(self):
        metrics, passed = queue_metrics([
            QueueTimes("early", None, [0, 5], [3, 4]),
            QueueTimes("never sent", None, [0], [1, 2]),
            QueueTimes("backwards", None, [4, 2], []),
            QueueTimes("empty", 0, [], []),
            QueueTimes("unread", 2, np.array([0, 1], np.int64), []),
        ])
        assert passed.tolist() == [False, False, False, True, True]
        assert [m.high_water for m in metrics[3:]] == [0, 2]


def _same_observables(got, want, assert_same_run, context):
    assert_same_run(got, want, context)
    assert got.trace == want.trace, context
    assert all(type(event.time) is int for event in got.trace), context


@pytest.mark.parametrize("unroll", [1, 2, 4, "auto"])
@pytest.mark.parametrize("case", SUITE, ids=[case[0] for case in SUITE])
def test_timeline_equals_the_checked_run(assert_same_metrics, case, unroll):
    """The plan's timeline passes and its metrics equal the checked
    run's field by field, time arrays included."""
    name, source, inputs, _reference = case
    program = compile_w2(source, unroll=unroll)
    facts, passed = program.execution_plan.timeline()
    assert passed, name
    assert_same_metrics(facts, checked_run(program, inputs).machine_metrics, name)


@pytest.mark.parametrize("unroll", [1, 2, 4, "auto"])
@pytest.mark.parametrize("case", SUITE, ids=[case[0] for case in SUITE])
def test_clean_and_checked_bindings_agree(assert_same_run, case, unroll):
    """A clean traced and recorded run (values from the value path,
    cycles from the timeline), the checked path's reference run and a
    fault-free injected run give the same outputs bit for bit, metrics,
    trace (``int`` cycles) and spans, at every trace length."""
    name, source, inputs, _reference = case
    program = compile_w2(source, unroll=unroll)
    for limit in (1, 5, 10_000):
        context = f"{name} trace_limit={limit}"
        checked = checked_run(program, inputs, trace_limit=limit)
        with obs.collecting() as telemetry:
            clean = simulate(program, inputs, record=True, trace_limit=limit)
        assert telemetry.counters == {"machine.runs.value": 1}, context
        _same_observables(clean, checked, assert_same_run, context)
        injected = simulate(
            program, inputs, faults=FaultInjector(InjectionPlan()),
            record=True, trace_limit=limit,
        )
        _same_observables(injected, checked, assert_same_run, context)


def _polynomial():
    return compile_w2(polynomial(12, 4))


def _shallow(program):
    program.config = dataclasses.replace(program.config, queue_depth=1)


def _lower_skew(program):
    program.skew = dataclasses.replace(program.skew, skew=program.skew.skew - 1)


def _short_feed(program):
    feed = program.execution_plan.feed
    feed[Channel.X] = feed[Channel.X][:-1]


def _no_watchdog_slack(program):
    program.config = dataclasses.replace(program.config, watchdog_slack=-1)


@pytest.mark.parametrize(
    "break_program, error, message",
    [
        (
            _shallow,
            "QueueCapacityError",
            r"^link1\.X: peak occupancy 5 exceeds the 1-word queue$",
        ),
        (
            _lower_skew,
            "QueueUnderflowError",
            r"^link1\.Y: dequeue at cycle 18 of an item sent at cycle 19 — "
            r"the skew guarantee failed$",
        ),
        (
            _short_feed,
            "QueueUnderflowError",
            r"^link0\.X: dequeue at cycle \d+ but only 15 items were ever sent$",
        ),
        (_no_watchdog_slack, "CellHangError", r"^cell 0: watchdog expired"),
    ],
    ids=["capacity", "skew", "exhausted", "watchdog"],
)
@pytest.mark.parametrize("record", [True, False], ids=["record", "clean"])
def test_failing_run_raises_the_checked_error_once(
    break_program, error, message, record
):
    """A clean run of a program whose timeline fails raises the checked
    path's exact class and message, counts the fault once and keeps no
    facts."""
    program = _polynomial()
    break_program(program)
    assert not program.execution_plan.timeline()[1]
    inputs = {"z": np.linspace(-1, 1, 12), "c": np.ones(4)}
    with pytest.raises(Exception) as checked:
        simulate(program, inputs, faults=FaultInjector(InjectionPlan()))
    assert type(checked.value).__name__ == error
    with obs.collecting() as telemetry:
        with pytest.raises(type(checked.value), match=message) as got:
            simulate(program, inputs, record=record)
    assert str(got.value) == str(checked.value)
    assert telemetry.counters["fault.detected"] == 1
    assert program.execution_plan.facts is None


def test_each_address_queue_is_measured_once(monkeypatch):
    """The checked path's metrics keep each address queue's audit
    measurement instead of measuring the queue again, also when the
    queue carries more words than it holds."""
    from repro.machine import array

    measured = []

    def spy(queues):
        measured.extend(queue.name for queue in queues)
        return queue_metrics(queues)

    monkeypatch.setattr(array, "queue_metrics", spy)
    program = compile_w2(matmul(4, 2))
    program.config = dataclasses.replace(program.config, address_queue_depth=4)
    assert len(program.execution_plan.addresses) > 4
    inputs = {"a": np.ones((4, 4)), "b": np.ones((4, 4))}
    for _run in range(2):
        measured.clear()
        queues = checked_run(program, inputs).machine_metrics.queues
        assert sorted(measured) == sorted(queues)
        assert [name for name in queues if name.startswith("adr")] == [
            "adr0", "adr1"
        ]
