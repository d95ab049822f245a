"""The value path: a clean run only moves values.

Schedules are data-independent, so the plan of a program checks its
static transfer timeline once and keeps its verdicts and static facts;
every clean run runs untimed block functions and reuses them, recorded
and traced runs included (their block spans come from the plan, their
trace cycles from the timeline).  Every test here compares the value
path with the checked path (``conftest.checked_run``), outputs bit for
bit.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import numpy as np
import pytest

from repro import compile_w2, obs
from repro.cli import main
from repro.config import DEFAULT_CONFIG
from repro.errors import SimulationError
from repro.exec import BatchRunner, CompileCache
from repro.exec.keys import cache_key
from repro.faults import FaultKind, FaultSpec, InjectionPlan
from repro.machine import ExecutionPlan, WarpMachine, simulate
from repro.obs.core import NULL_TELEMETRY
from repro.programs import polynomial

from conftest import checked_run, small_program_suite

SUITE = small_program_suite(np.random.default_rng(20261017))


def _items(n, seed=3):
    rng = np.random.default_rng(seed)
    return [
        {"z": rng.standard_normal(12), "c": rng.standard_normal(4)}
        for _ in range(n)
    ]


@pytest.mark.parametrize("unroll", [1, 2, 4, "auto"])
@pytest.mark.parametrize("case", SUITE, ids=[case[0] for case in SUITE])
def test_bundled_programs_match_checked_path(assert_same_run, case, unroll):
    """One-shot and column runs of every bundled program equal the
    checked run, item for item."""
    name, source, inputs, _reference = case
    program = compile_w2(source, unroll=unroll)
    other = {key: -2.0 * value for key, value in inputs.items()}
    expected = [checked_run(program, inputs), checked_run(program, other)]
    for _call in range(2):  # the plan's first clean run, then a warm one
        assert_same_run(simulate(program, inputs), expected[0], name)
    recorded = simulate(program, inputs, record=True)
    assert recorded.record is not None
    assert_same_run(recorded, expected[0], name)
    batched = BatchRunner(program).run([inputs, other])
    assert batched.value_items == 2, name
    for got, want in zip(batched.results, expected):
        assert_same_run(got, want, name)


class TestPlanOnTheProgram:
    def test_one_plan_per_program(self):
        program = compile_w2(polynomial(12, 4))
        plan = program.execution_plan
        simulate(program, _items(1)[0])
        runner = BatchRunner(program)
        runner.run(_items(2))
        assert runner.machine.plan is plan
        assert program.execution_plan is plan
        assert plan.facts is not None

    @pytest.mark.timeout(120)
    def test_plan_stays_out_of_pickles(self, tmp_path, assert_same_run):
        """A program pickles byte-identically before and after it ran, so
        the pool ships it and the disk cache stores it unchanged."""
        program = compile_w2(polynomial(12, 4))
        before = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
        items = _items(3)
        simulate(program, items[0])
        BatchRunner(program).run(items)
        assert "execution_plan" in vars(program)
        after = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
        assert after == before
        key = cache_key(program.source, DEFAULT_CONFIG, "auto", 1, True)
        CompileCache(cache_dir=tmp_path).put(key, program)
        disk = CompileCache(cache_dir=tmp_path)
        loaded = disk.get(key)
        assert disk.last_event == "disk-hit"
        assert "execution_plan" not in vars(loaded)
        pooled = BatchRunner(program, processes=2).run(items)
        assert pooled.ok
        for inputs, got in zip(items, pooled.results):
            expected = checked_run(program, inputs)
            assert_same_run(simulate(loaded, inputs), expected)
            assert_same_run(got, expected)

    def test_results_do_not_alias(self, assert_same_run):
        """Results reuse the plan's static facts; mutating one result
        leaves the next call's result alone."""
        program = compile_w2(polynomial(12, 4))
        inputs = _items(1)[0]
        expected = checked_run(program, inputs)
        for first in (
            simulate(program, inputs),
            BatchRunner(program).run([inputs]).results[0],
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                first.machine_metrics.cells[0].alu_ops += 1
            first.machine_metrics.cells.pop()
            first.machine_metrics.queues.clear()
            assert_same_run(simulate(program, inputs), expected)
            batched = BatchRunner(program).run([inputs])
            assert_same_run(batched.results[0], expected)
        metrics = simulate(program, inputs).machine_metrics
        queue = next(iter(metrics.queues.values()))
        with pytest.raises(ValueError):
            queue.send_times[0] = -1


#: Cell 3 (the last of polynomial(12, 4)) starts 10 cycles late.
STALL = InjectionPlan((FaultSpec(FaultKind.STALL_CELL, cell=3, cycles=10),))


class TestRoutes:
    """Which runs reach the cycle-accurate ``_execute``: the reference
    helper and fault-injected runs; clean runs, recorded and traced
    ones too, do not."""

    @pytest.fixture
    def executed(self, monkeypatch):
        calls = []
        execute = WarpMachine._execute

        def counting(
            self, memory, trace_limit=0, record=False, injector=None
        ):
            calls.append((trace_limit, record, injector is not None))
            return execute(self, memory, trace_limit, record, injector)

        monkeypatch.setattr(WarpMachine, "_execute", counting)
        return calls

    def test_only_checked_runs_execute(self, executed):
        program = compile_w2(polynomial(12, 4))
        inputs = _items(1)[0]
        simulate(program, inputs)
        recorded = simulate(program, inputs, record=True)
        traced = simulate(program, inputs, trace_limit=2, record=True)
        assert executed == [] and recorded.record is not None
        assert traced.trace and traced.record is not None
        assert checked_run(program, inputs).record is not None
        simulate(program, inputs, record=True, faults=STALL)
        assert executed == [(0, True, False), (0, True, True)]

    def test_compare_measures_on_the_checked_path(
        self, executed, monkeypatch, capsys
    ):
        """``repro compare`` measures with the reference run, so its
        measurement does not read the static timeline the prediction's
        loop tree also gives: it stays exact with the timeline switched
        off."""

        def no_timeline(plan):
            raise AssertionError("compare read the static timeline")

        monkeypatch.setattr(ExecutionPlan, "timeline", no_timeline)
        assert main(["compare", "polynomial", "--no-cache"]) == 0
        assert capsys.readouterr().out.endswith("prediction exact\n")
        assert executed == [(0, False, False)]

    def test_recorded_chrome_events_equal_the_reference(self):
        program = compile_w2(polynomial(12, 4))
        inputs = _items(1)[0]
        got, want = simulate(program, inputs, record=True), checked_run(
            program, inputs
        )
        events = obs.machine_trace_events(got.machine_metrics, got.record)
        assert events == obs.machine_trace_events(
            want.machine_metrics, want.record
        )

    def test_stalled_recorded_run_shifts_its_spans(self):
        """A fault-injected recorded run stays checked: the stalled
        cell's spans start its stall later, the others' do not move."""
        program = compile_w2(polynomial(12, 4))
        inputs = _items(1)[0]
        clean = simulate(program, inputs, record=True).record
        stalled = simulate(program, inputs, record=True, faults=STALL).record
        for lane, base in zip(stalled, clean):
            shift = 10 if lane.cell == 3 else 0
            assert np.array_equal(lane.starts, base.starts + shift)
            assert np.array_equal(lane.block_ids, base.block_ids)


class TestCleanLanes:
    """A clean recorded run's block spans are the plan's lanes, built
    once per lane cap: the checked run's lanes, field by field."""

    @pytest.mark.parametrize("cap", [None, 10])
    @pytest.mark.parametrize("case", SUITE, ids=[case[0] for case in SUITE])
    def test_lanes_equal_the_checked_runs(self, case, cap, monkeypatch):
        if cap is not None:
            monkeypatch.setattr(obs.chrome_trace, "MAX_BLOCK_SPANS", cap)
        name, source, inputs, _reference = case
        program = compile_w2(source)
        got = simulate(program, inputs, record=True).record
        want = checked_run(program, inputs).record
        assert [lane.cell for lane in got] == [lane.cell for lane in want]
        for lane, base in zip(got, want):
            for field in ("block_ids", "starts", "lengths", "issued_ops"):
                assert np.array_equal(
                    getattr(lane, field), getattr(base, field)
                ), f"{name}: cell {lane.cell} {field}"
            assert lane.omitted == base.omitted, name

    def test_two_recorded_calls_build_the_span_head_once(self, monkeypatch):
        built = []
        span_head = ExecutionPlan._span_head

        def counting(plan, limit):
            built.append(limit)
            return span_head(plan, limit)

        monkeypatch.setattr(ExecutionPlan, "_span_head", counting)
        program = compile_w2(polynomial(12, 4))
        inputs = _items(1)[0]
        first, second = (
            simulate(program, inputs, record=True).record for _ in range(2)
        )
        assert len(built) == 1
        assert first is not second
        assert all(a is b for a, b in zip(first, second))


class TestFailingCheck:
    """A program whose timeline fails caches no verdict: every clean
    run raises the checked path's error."""

    @pytest.fixture
    def program(self):
        program = compile_w2(polynomial(12, 4))
        # Too shallow for the buffers the compiler sized (it refuses such
        # a depth at compile time, so shrink it afterwards).
        program.config = dataclasses.replace(program.config, queue_depth=1)
        return program

    def test_simulate_raises_the_checked_error_every_time(self, program):
        """Clean, recorded and traced runs alike, since all take the
        value path on the plan's verdicts."""
        inputs = _items(1)[0]
        with pytest.raises(Exception) as checked:
            checked_run(program, inputs)
        assert type(checked.value).__name__ == "QueueCapacityError"
        assert str(checked.value) == (
            "link1.X: peak occupancy 5 exceeds the 1-word queue"
        )
        for record, limit in ((False, 0), (True, 0), (False, 3), (True, 3)):
            with pytest.raises(type(checked.value)) as clean:
                simulate(program, inputs, trace_limit=limit, record=record)
            assert str(clean.value) == str(checked.value)
        assert program.execution_plan.facts is None

    def test_checked_pass_after_a_failed_timeline_raises(self, monkeypatch):
        """A timeline verdict that the checked run contradicts is a
        simulator fault: the run raises and caches no facts."""
        program = compile_w2(polynomial(12, 4))
        timeline = ExecutionPlan.timeline
        monkeypatch.setattr(
            ExecutionPlan, "timeline", lambda plan: (timeline(plan)[0], False)
        )
        with pytest.raises(SimulationError) as raised:
            simulate(program, _items(1)[0])
        assert str(raised.value) == (
            "static timeline failed a check the checked run passed"
        )
        assert program.execution_plan.facts is None

    def test_batch_fails_each_item_like_the_checked_path(self, program):
        """The one column run decides every item: each fails with the
        checked run's error after one attempt, with no retry."""
        items = _items(3)
        batched = BatchRunner(program, max_retries=1).run(items)
        with pytest.raises(Exception) as checked:
            checked_run(program, items[0])
        assert batched.value_items == 3 and batched.retries == 0
        assert [f.index for f in batched.failures] == [0, 1, 2]
        for failure in batched.failures:
            assert failure.error_type == type(checked.value).__name__
            assert failure.message == str(checked.value)
            assert failure.attempts == 1


class TestObservability:
    def test_counters_and_plan_span(self):
        program = compile_w2(polynomial(12, 4))
        inputs = _items(1)[0]
        with obs.collecting() as telemetry:
            simulate(program, inputs)
            simulate(program, inputs)
            simulate(program, inputs, record=True)
            simulate(program, inputs, trace_limit=1)
            BatchRunner(program).run(_items(3))
        # Recorded and traced runs are value runs too (their spans come
        # from the plan, their trace cycles from the timeline).
        assert telemetry.counters["machine.runs.value"] == 5
        assert "machine.runs.checked" not in telemetry.counters
        assert len(telemetry.find("machine.plan")) == 1
        assert len(telemetry.find("machine.timeline")) == 1
        simulate(program, inputs)
        assert NULL_TELEMETRY.counters == {} and NULL_TELEMETRY.spans == []

    def test_profile_shows_them(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        argv = ["profile", "passthrough", "--no-cache"]
        assert main(argv + ["--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        assert "machine.plan" in out and "machine.runs.value" in out
        document = json.loads(metrics.read_text())
        assert document["compile"]["counters"]["machine.runs.value"] == 1
        names = [span["name"] for span in document["compile"]["spans"]]
        assert names.count("machine.plan") == 1
        assert names.count("machine.timeline") == 1
