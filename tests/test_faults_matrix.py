"""The fault matrix: every fault class x three bundled programs.

The lockdown property is *no silent wrong answers*: every injected
fault is either *recovered* (the run completes with outputs
bit-identical to the clean run) or *detected* (a structured
:class:`~repro.errors.SimulationError` subclass from the expected
family).  A fault that completed with different outputs would fail
these tests immediately — that combination is asserted impossible for
every (kind, program) pair.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.compiler import compile_w2
from repro.errors import (
    CellHangError,
    QueueCapacityError,
    QueueUnderflowError,
    SilentCorruptionDetected,
    SimulationError,
)
from repro.exec import BatchRunner, CompileCache
from repro.faults import (
    FaultInjector, FaultKind, FaultSpec, FaultyQueue, InjectionPlan,
)
from repro.lang import Channel
from repro.machine import simulate
from repro.programs import conv1d, passthrough, polynomial

PROGRAM_FACTORIES = {
    "polynomial": lambda: polynomial(12, 4),
    "conv1d": lambda: conv1d(12, 3),
    "passthrough": lambda: passthrough(8, 2),
}

PROGRAM_NAMES = sorted(PROGRAM_FACTORIES)


def _make_inputs(name: str, rng: np.random.Generator):
    if name == "polynomial":
        return {"z": rng.standard_normal(12), "c": rng.standard_normal(4)}
    if name == "conv1d":
        return {"x": rng.standard_normal(12), "w": rng.standard_normal(3)}
    assert name == "passthrough"
    return {"din": rng.standard_normal(8)}


@pytest.fixture(scope="module")
def fleet():
    """(program, inputs, clean result) for each matrix program."""
    rng = np.random.default_rng(20260806)
    out = {}
    for name, factory in PROGRAM_FACTORIES.items():
        program = compile_w2(factory())
        inputs = _make_inputs(name, rng)
        out[name] = (program, inputs, simulate(program, inputs))
    return out


def _x_requirement(program) -> int:
    """The Section 6.2.2 minimum X-queue size of ``program``."""
    return next(
        b.required for b in program.buffers if b.channel == Channel.X
    )


def _run_injected(program, inputs, specs):
    """One injected run: (injector, result-or-None, error-or-None)."""
    injector = FaultInjector(InjectionPlan(specs=tuple(specs)))
    try:
        result = simulate(program, inputs, faults=injector)
    except SimulationError as error:
        return injector, None, error
    return injector, result, None


def _assert_identical(result, clean) -> None:
    for name, data in clean.outputs.items():
        assert np.array_equal(result.outputs[name], data), name


# The machine-fault matrix: (case id, spec fields, expected outcome).
# ``cell="last"`` resolves to the last cell; ``capacity`` may reference
# the program's static X-queue requirement.  ``expect`` is either the
# tuple of acceptable detection exception types, or ``"recovered"``.
MACHINE_MATRIX = [
    (
        "drop_send",
        dict(kind=FaultKind.DROP_SEND, cell=0, channel="X", index=1),
        (QueueUnderflowError, SilentCorruptionDetected),
    ),
    (
        "dup_send",
        dict(kind=FaultKind.DUP_SEND, cell=0, channel="X", index=1),
        (SilentCorruptionDetected, QueueCapacityError),
    ),
    (
        "flip_bits",
        dict(
            kind=FaultKind.FLIP_BITS,
            cell=0,
            channel="X",
            index=1,
            bitmask=1 << 52,
        ),
        (SilentCorruptionDetected,),
    ),
    (
        "stall_recovered",
        dict(kind=FaultKind.STALL_CELL, cell="last", cycles=2),
        "recovered",
    ),
    (
        "stall_detected",
        dict(kind=FaultKind.STALL_CELL, cell=0, cycles=100_000),
        (CellHangError, QueueUnderflowError),
    ),
    (
        "shrink_at_requirement",
        dict(kind=FaultKind.SHRINK_QUEUE, cell=1, channel="X", capacity="req"),
        "recovered",
    ),
    (
        "shrink_below_requirement",
        dict(
            kind=FaultKind.SHRINK_QUEUE,
            cell=1,
            channel="X",
            capacity="req-1",
        ),
        (QueueCapacityError,),
    ),
]


def _resolve_spec(fields: dict, program) -> FaultSpec:
    fields = dict(fields)
    if fields.get("cell") == "last":
        fields["cell"] = program.n_cells - 1
    if fields.get("capacity") == "req":
        fields["capacity"] = _x_requirement(program)
    elif fields.get("capacity") == "req-1":
        fields["capacity"] = _x_requirement(program) - 1
    return FaultSpec(**fields)


class TestMachineFaultMatrix:
    @pytest.mark.parametrize("program_name", PROGRAM_NAMES)
    @pytest.mark.parametrize(
        "case_id,fields,expect",
        MACHINE_MATRIX,
        ids=[case[0] for case in MACHINE_MATRIX],
    )
    def test_matrix(self, fleet, program_name, case_id, fields, expect):
        program, inputs, clean = fleet[program_name]
        spec = _resolve_spec(fields, program)
        injector, result, error = _run_injected(program, inputs, [spec])
        if expect == "recovered":
            assert error is None, f"expected recovery, got {error!r}"
            _assert_identical(result, clean)
            if spec.kind is not FaultKind.SHRINK_QUEUE:
                # Shrinking to the exact requirement is a no-op by
                # design; every other recovered fault must have fired.
                assert injector.fired, "the fault never fired"
            assert result.fault_report == injector.report()
        else:
            assert error is not None, (
                f"SILENT WRONG ANSWER RISK: {case_id} on {program_name} "
                "completed without detection"
            )
            assert isinstance(error, expect), error
            assert injector.fired, "detected a fault that never fired?"

    @pytest.mark.parametrize("program_name", PROGRAM_NAMES)
    def test_flip_at_collector_detected_at_rest(self, fleet, program_name):
        """A flip on the collector link is only readable, never
        dequeued — the post-run integrity sweep must still catch it."""
        program, inputs, _clean = fleet[program_name]
        spec = FaultSpec(
            kind=FaultKind.FLIP_BITS,
            cell=program.n_cells - 1,
            channel="X",
            index=0,
            bitmask=1 << 51,
        )
        injector, _result, error = _run_injected(program, inputs, [spec])
        assert isinstance(error, SilentCorruptionDetected)
        assert injector.fired

    @pytest.mark.parametrize("program_name", PROGRAM_NAMES)
    def test_empty_plan_is_bit_identical(self, fleet, program_name):
        """Clean-path purity: running under an empty plan (faults
        machinery loaded and threaded) changes nothing."""
        program, inputs, clean = fleet[program_name]
        injector, result, error = _run_injected(program, inputs, [])
        assert error is None
        assert not injector.fired
        assert result.fault_report == []
        _assert_identical(result, clean)


class TestCacheCorruption:
    @pytest.mark.parametrize("program_name", PROGRAM_NAMES)
    def test_corrupt_entry_recompiles_identically(
        self, fleet, program_name, tmp_path
    ):
        program, inputs, clean = fleet[program_name]
        source = PROGRAM_FACTORIES[program_name]()
        seed_cache = CompileCache(cache_dir=tmp_path)
        compile_w2(source, cache=seed_cache)
        assert seed_cache.stats.stores == 1

        plan = InjectionPlan(specs=(FaultSpec(kind=FaultKind.CORRUPT_CACHE),))
        injector = FaultInjector(plan)
        cache = CompileCache(cache_dir=tmp_path, injector=injector)
        recompiled = compile_w2(source, cache=cache)
        assert cache.last_event == "miss"
        assert cache.stats.disk_errors == 1
        assert injector.fired
        # The corrupted entry cost a recompile, never a wrong program.
        _assert_identical(simulate(recompiled, inputs), clean)

    def test_faulty_plan_partitions_the_cache_key(self, tmp_path):
        source = polynomial(12, 4)
        plan = InjectionPlan(specs=(FaultSpec(kind=FaultKind.CORRUPT_CACHE),))
        cache = CompileCache(cache_dir=tmp_path)
        compile_w2(source, cache=cache, faults=plan)
        assert cache.last_event == "miss"
        compile_w2(source, cache=cache)
        # The clean compile must not see the faulty run's artefact.
        assert cache.last_event == "miss"
        compile_w2(source, cache=cache, faults=plan)
        assert cache.last_event == "memory-hit"


@pytest.mark.timeout(120)
class TestWorkerFaults:
    @pytest.mark.parametrize("program_name", PROGRAM_NAMES)
    @pytest.mark.parametrize(
        "kind", [FaultKind.WORKER_KILL, FaultKind.WORKER_HANG]
    )
    def test_pool_worker_fault_recovered(self, fleet, program_name, kind):
        """A killed or hung worker costs a retry, never the batch: the
        final results are bit-identical to clean serial execution."""
        program, inputs, clean = fleet[program_name]
        items = [dict(inputs) for _ in range(3)]
        plan = InjectionPlan(
            specs=(
                FaultSpec(kind=kind, item=1, attempts=1, seconds=30.0),
            )
        )
        runner = BatchRunner(
            program,
            processes=2,
            faults=plan,
            max_retries=2,
            item_timeout=10.0,
            retry_backoff=0.0,
        )
        batch = runner.run(items)
        assert batch.ok, [f.describe() for f in batch.failures]
        assert batch.retries >= 1
        for result in batch.results:
            _assert_identical(result, clean)

    @pytest.mark.parametrize(
        "kind", [FaultKind.WORKER_KILL, FaultKind.WORKER_HANG]
    )
    def test_serial_worker_fault_recovered(self, fleet, kind):
        """Serial mode simulates worker faults in-process so the same
        plan is reproducible without a pool."""
        program, inputs, clean = fleet["polynomial"]
        plan = InjectionPlan(
            specs=(FaultSpec(kind=kind, item=0, attempts=1),)
        )
        batch = BatchRunner(
            program, faults=plan, max_retries=1, retry_backoff=0.0
        ).run([dict(inputs), dict(inputs)])
        assert batch.ok
        assert batch.retries == 1
        for result in batch.results:
            _assert_identical(result, clean)

    def test_exhausted_retries_yield_item_failure(self, fleet):
        """An unrecoverable item degrades to a structured failure
        record; every other item still completes bit-identically."""
        program, inputs, clean = fleet["conv1d"]
        plan = InjectionPlan(
            specs=(
                FaultSpec(
                    kind=FaultKind.DROP_SEND,
                    cell=0,
                    channel="X",
                    index=1,
                    item=1,
                    attempts=99,
                ),
            )
        )
        batch = BatchRunner(
            program, faults=plan, max_retries=1, retry_backoff=0.0
        ).run([dict(inputs) for _ in range(3)])
        assert not batch.ok
        assert [f.index for f in batch.failures] == [1]
        failure = batch.failures[0]
        assert failure.attempts == 2
        assert failure.error_type in (
            "QueueUnderflowError",
            "SilentCorruptionDetected",
        )
        assert batch.results[1] is None
        for index in (0, 2):
            _assert_identical(batch.results[index], clean)
        with pytest.raises(ValueError, match="failed item"):
            batch.outputs(next(iter(clean.outputs)))


def _faulty_queue(*specs):
    """A ``link1.X`` queue whose sends ``specs`` corrupt, and its
    injector."""
    injector = FaultInjector(InjectionPlan(specs=specs))
    return FaultyQueue(injector=injector, name="link1.X"), injector


def _send(kind, index, **fields):
    return FaultSpec(kind=kind, cell=0, channel="X", index=index, **fields)


class TestFaultyQueue:
    """One queue's integrity bits, word by word: each corruption is
    reported with its exact message, at the dequeue that reads it or at
    the post-run sweep of the words never dequeued."""

    def test_dropped_send_is_caught_at_dequeue(self):
        queue, injector = _faulty_queue(_send(FaultKind.DROP_SEND, 1))
        for time, value in enumerate([1.0, 2.0, 3.0]):
            queue.enqueue(time, value)
        assert queue.values == [1.0, 3.0]
        assert queue.dequeue(5) == 1.0
        with obs.collecting() as telemetry:
            with pytest.raises(SilentCorruptionDetected) as caught:
                queue.dequeue(6)
        assert str(caught.value) == (
            "link1.X: word 1 carries sequence tag 2 — a send was dropped "
            "upstream (in flight at cycle 6)"
        )
        assert telemetry.counters == {"fault.detected": 1}
        assert injector.report() == ["drop_send cell=0 channel=X index=1"]

    def test_duplicated_send_is_caught_at_dequeue(self):
        queue, _ = _faulty_queue(_send(FaultKind.DUP_SEND, 0))
        queue.enqueue(2, 1.0)
        queue.enqueue(4, 2.0)
        assert queue.values == [1.0, 1.0, 2.0]
        assert queue.send_times == [2, 2, 4]
        assert queue.dequeue(3) == 1.0
        with pytest.raises(SilentCorruptionDetected) as caught:
            queue.dequeue(7)
        assert str(caught.value) == (
            "link1.X: word 1 carries sequence tag 0 — a send was duplicated "
            "upstream (in flight at cycle 7)"
        )

    def test_flipped_word_is_caught_at_dequeue(self):
        queue, injector = _faulty_queue(
            _send(FaultKind.FLIP_BITS, 0, bitmask=1 << 52)
        )
        queue.enqueue(0, 1.5)
        with pytest.raises(SilentCorruptionDetected) as caught:
            queue.dequeue(3)
        assert str(caught.value) == (
            "link1.X: word 0 reads 0.75 but 1.5 was enqueued — queue memory "
            "corrupted (in flight at cycle 3)"
        )
        assert injector.report() == [
            "flip_bits cell=0 channel=X index=0 (1.5 -> 0.75)"
        ]

    def test_word_never_dequeued_is_swept_at_rest(self):
        queue, _ = _faulty_queue(
            _send(FaultKind.FLIP_BITS, 1, bitmask=1 << 52)
        )
        queue.enqueue(0, 1.5)
        queue.enqueue(1, 3.0)
        assert queue.dequeue(1) == 1.5
        with obs.collecting() as telemetry:
            with pytest.raises(SilentCorruptionDetected) as caught:
                queue.verify_integrity()
        assert str(caught.value) == (
            "link1.X: word 1 reads 6.0 but 3.0 was enqueued — queue memory "
            "corrupted (at rest)"
        )
        assert telemetry.counters == {"fault.detected": 1}

    def test_clean_words_pass_every_check(self):
        queue, injector = _faulty_queue()
        for time, value in enumerate([0.5, -0.0, float("inf")]):
            queue.enqueue(time, value)
        assert [queue.dequeue(9), queue.dequeue(9)] == [0.5, -0.0]
        queue.verify_integrity()
        assert injector.report() == []
