"""BatchRunner: batched execution vs one-shot simulation.

The contract under test: batching changes *where static state lives*
(one reused machine, optionally worker processes), never *what the
machine computes* — outputs and cycle counts are bit-identical to
independent ``simulate`` calls, item for item, in item order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import compile_w2, simulate
from repro.cli import main
from repro.exec import BatchRunner
from repro.machine import ExecutionPlan
from repro.programs import conv1d, passthrough, polynomial


@pytest.fixture(scope="module")
def program():
    return compile_w2(polynomial(12, 4))


def _items(rng, n):
    return [
        {"z": rng.standard_normal(12), "c": rng.standard_normal(4)}
        for _ in range(n)
    ]


class TestSerialBatch:
    def test_bit_identical_to_one_shot(self, program, rng):
        items = _items(rng, 6)
        batched = BatchRunner(program).run(items)
        assert batched.n_items == 6
        assert batched.processes == 1
        for item, result in zip(items, batched.results):
            expected = simulate(program, item)
            assert np.array_equal(
                result.outputs["results"], expected.outputs["results"]
            )
            assert result.total_cycles == expected.total_cycles
            assert result.skew == expected.skew

    def test_results_in_item_order(self, program):
        items = [
            {"z": np.full(12, float(i)), "c": np.array([0.0, 0.0, 0.0, 1.0 + i])}
            for i in range(4)
        ]
        batched = BatchRunner(program).run(items)
        for i, result in enumerate(batched.results):
            # P(z) = 1 + i for the all-constant coefficient vector.
            assert np.allclose(result.outputs["results"], 1.0 + i)

    def test_machine_reuse(self, program, rng):
        runner = BatchRunner(program)
        plan_before = runner.machine.plan
        runner.run(_items(rng, 3))
        runner.run(_items(rng, 2))
        assert runner.machine.plan is plan_before  # static state reused

    def test_reused_machine_matches_simulate(self, program, rng):
        runner = BatchRunner(program)
        item = _items(rng, 1)[0]
        result = runner.machine.run(item)
        expected = simulate(program, item)
        assert np.array_equal(
            result.outputs["results"], expected.outputs["results"]
        )

    def test_empty_batch(self, program):
        batched = BatchRunner(program).run([])
        assert batched.n_items == 0
        assert batched.total_cycles == 0
        assert batched.cycles_per_item == 0
        assert batched.stacked_outputs() == {}


@pytest.mark.timeout(120)
class TestMultiprocessBatch:
    def test_pool_bit_identical_and_ordered(self, program, rng):
        items = _items(rng, 8)
        serial = BatchRunner(program).run(items)
        pooled = BatchRunner(program, processes=2).run(items)
        assert pooled.processes == 2
        assert pooled.n_items == serial.n_items
        for mine, theirs in zip(pooled.results, serial.results):
            assert np.array_equal(
                mine.outputs["results"], theirs.outputs["results"]
            )
            assert mine.total_cycles == theirs.total_cycles

    def test_single_item_stays_in_process(self, program, rng):
        batched = BatchRunner(program, processes=4).run(_items(rng, 1))
        assert batched.processes == 1  # pool not worth spawning

    def test_negative_processes_rejected(self, program):
        with pytest.raises(ValueError):
            BatchRunner(program, processes=-1)


def _assert_aggregates(batched, n):
    per_item = [r.total_cycles for r in batched.results]
    assert batched.total_cycles == sum(per_item)
    assert batched.cycles_per_item == sum(per_item) / n
    assert batched.wall_seconds > 0
    assert batched.items_per_second > 0


class TestBatchResult:
    def test_aggregates(self, program, rng):
        _assert_aggregates(BatchRunner(program).run(_items(rng, 5)), 5)

    def test_aggregates_sum_one_by_one_items(self, rng):
        """Items run one by one count their own cycles: a stall injected
        into one item lengthens that item only."""
        from repro.faults.plan import parse_inject_specs

        program = compile_w2(polynomial(16, 8))
        items = [
            {"z": rng.standard_normal(16), "c": rng.standard_normal(8)}
            for _ in range(3)
        ]
        stall = parse_inject_specs(["stall_cell:cell=7,cycles=5,item=1"])
        batched = BatchRunner(program, faults=stall).run(items)
        assert [r.total_cycles for r in batched.results] == [285, 290, 285]
        _assert_aggregates(batched, 3)

    def test_stacked_outputs(self, program, rng):
        items = _items(rng, 3)
        batched = BatchRunner(program).run(items)
        stacked = batched.outputs("results")
        assert stacked.shape == (3, 12)
        for i, result in enumerate(batched.results):
            assert np.array_equal(stacked[i], result.outputs["results"])
        assert set(batched.stacked_outputs()) == set(batched.results[0].outputs)

    def test_telemetry_counters(self, program, rng):
        from repro import obs

        with obs.collecting() as telemetry:
            batched = BatchRunner(program).run(_items(rng, 3))
        assert telemetry.counters["exec.batch.items"] == 3
        assert telemetry.counters["exec.batch.cycles"] == batched.total_cycles


# The benchmark's batch mix: each program with a maker of one item.
BATCH_MIX = {
    "polynomial(16,8)": (
        polynomial(16, 8),
        lambda rng: {"z": rng.uniform(-1, 1, 16), "c": rng.standard_normal(8)},
    ),
    "conv1d(32,9)": (
        conv1d(32, 9),
        lambda rng: {
            "x": rng.standard_normal(32), "w": rng.standard_normal(9)
        },
    ),
}


def _bits(array) -> np.ndarray:
    return np.asarray(array, dtype=np.float64).view(np.uint64)


def _assert_bitwise_equal(got, expected) -> None:
    assert got.outputs.keys() == expected.outputs.keys()
    for name, data in expected.outputs.items():
        assert np.array_equal(_bits(got.outputs[name]), _bits(data)), name
    assert got.total_cycles == expected.total_cycles


class TestColumnResults:
    """A fault-free serial batch keeps one ``(items, n)`` array per
    output; ``results`` builds each item's result from its rows when
    read."""

    @pytest.fixture(scope="class", params=sorted(BATCH_MIX))
    def mix(self, request):
        source, make = BATCH_MIX[request.param]
        return compile_w2(source, unroll="auto"), make

    @staticmethod
    def _with_invalid(make, rng, n=7, invalid=3):
        items = [make(rng) for _ in range(n)]
        name, data = next(iter(items[invalid].items()))
        items[invalid] = {**items[invalid], name: np.zeros(data.size + 1)}
        return items

    def test_every_item_bitwise_equal_to_one_shot(self, mix, rng):
        program, make = mix
        items = self._with_invalid(make, rng)
        batch = BatchRunner(program).run(items)
        assert [f.index for f in batch.failures] == [3]
        assert batch.value_items == len(items)
        for index, item in enumerate(items):
            if index == 3:
                assert batch.results[index] is None
                continue
            expected = simulate(program, item)
            _assert_bitwise_equal(batch.results[index], expected)
        one = simulate(program, items[0]).total_cycles
        assert batch.total_cycles == one * (len(items) - 1)
        assert batch.cycles_per_item == one

    def test_behaves_as_a_list(self, mix, rng):
        program, make = mix
        items = self._with_invalid(make, rng)
        results = BatchRunner(program).run(items).results
        assert len(results) == len(items)
        listed = list(results)
        assert [r is None for r in listed] == [i == 3 for i in range(7)]
        for index in range(-len(items), len(items)):
            got, expected = results[index], listed[index]
            if expected is None:
                assert got is None
            else:
                _assert_bitwise_equal(got, expected)
        for index in (len(items), -len(items) - 1):
            with pytest.raises(IndexError):
                results[index]
        assert [r is None for r in results[2:5]] == [False, True, False]

    def test_outputs_are_the_kept_arrays(self, mix, rng):
        program, make = mix
        items = [make(rng) for _ in range(5)]
        batch = BatchRunner(program).run(items)
        stacked = batch.stacked_outputs()
        assert stacked.keys() == batch.results[0].outputs.keys()
        for name, array in stacked.items():
            kept = batch.outputs(name)
            assert np.shares_memory(array, kept)
            assert np.shares_memory(kept, batch.results[4].outputs[name])
            assert kept.shape[0] == 5 and kept.flags.c_contiguous
        failed = BatchRunner(program).run(self._with_invalid(make, rng))
        with pytest.raises(ValueError, match="failed item"):
            failed.outputs(next(iter(stacked)))
        with pytest.raises(ValueError, match="failed item"):
            failed.stacked_outputs()

    def test_batch_output_npz_matches_one_shot_runs(self, tmp_path, rng):
        """``repro batch --output`` writes each array as the stack of the
        items' one-shot outputs, byte for byte."""
        source = polynomial(12, 4)
        (tmp_path / "poly.w2").write_text(source)
        items = _items(rng, 4)
        stacked = {
            name: np.stack([item[name] for item in items]) for name in items[0]
        }
        np.savez(tmp_path / "items.npz", **stacked)
        out = tmp_path / "out.npz"
        assert main([
            "batch", str(tmp_path / "poly.w2"), "--no-cache",
            "--inputs", str(tmp_path / "items.npz"), "--output", str(out),
        ]) == 0
        program = compile_w2(source)
        one_shot = [simulate(program, item).outputs for item in items]
        stored = np.load(out)
        assert sorted(stored.files) == sorted(one_shot[0])
        for name in stored.files:
            expected = np.stack([outputs[name] for outputs in one_shot])
            assert stored[name].dtype == expected.dtype
            assert stored[name].shape == expected.shape
            assert stored[name].tobytes() == expected.tobytes(), name


class TestExecutionPlan:
    def test_skip_idle_skips_only_nops(self, program):
        plan = ExecutionPlan(program)
        assert plan.skipped_slots > 0  # schedules always carry bubbles
        for block in program.cell_code.blocks():
            issued = sum(
                1 for instr in block.instructions if not instr.is_nop()
            )
            assert plan.blocks[block.block_id].issued == issued

    def test_static_counts_equal_executed_stats(self, program_suite):
        """The plan's per-run sends/receives (per-block totals times the
        loop trips) equal what every cell of a real run executed."""
        for name, source, inputs, _reference in program_suite:
            program = compile_w2(source)
            plan = ExecutionPlan(program)
            result = simulate(program, inputs)
            for cell in result.machine_metrics.cells:
                assert cell.sends == sum(plan.counts.sends.values()), name
                assert cell.receives == sum(
                    plan.counts.receives.values()
                ), name

    def test_plan_is_optional(self):
        """A cell executor without shared plans builds its own and
        still computes the same result."""
        program = compile_w2(passthrough(8, 2))
        inputs = {"din": np.arange(8.0)}
        expected = simulate(program, inputs)
        again = simulate(program, inputs)
        assert np.array_equal(
            again.outputs["dout"], expected.outputs["dout"]
        )
