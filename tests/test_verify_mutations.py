"""The mutation harness verifies the verifier.

Every seeded artifact miscompile (slot swaps, off-by-one addresses,
dropped/duplicated enqueues, aliased temp registers, understated queue
bounds) is run through both detectors:

* the **verifier** (static re-derivation from the artifacts), and
* the **differential sweep** (cycle simulation vs the AST reference
  interpreter, runtime errors counting as detection).

The contract is strict: the verifier must flag every mutant the
differential sweep flags (zero silent escapes), and — because the
generators are restricted to observable mutations — every produced
mutant at all.
"""

import dataclasses

import numpy as np
import pytest

from repro.compiler import compile_w2
from repro.config import DEFAULT_CONFIG
from repro.lang import analyze, parse_module
from repro.machine import interpret, simulate
from repro.verify import MUTATION_KINDS, mutate, mutation_suite, verify_program

SEEDS = (0, 1, 2)

#: Programs with complementary artifact shapes: polynomial (queue-heavy
#: distribution idiom), conv1d (pinned-register inner product), matmul
#: (queue-addressed local memory, the PR 3 bug's habitat).
MUTATED_PROGRAMS = ("polynomial", "conv1d", "matmul")

#: The failed check ids of every mutant in the matrix (unroll 1, seeds
#: 0-2).  A change to how the verifier derives its facts must leave these
#: exactly as they are; a change to the compiler's schedules may move
#: them, and then they are re-recorded on purpose.
EXPECTED_FAILED_CHECKS = {
    ("polynomial", "swap_slots", 0): {"register.drain", "stream.io_events"},
    ("polynomial", "swap_slots", 1): {
        "register.in_flight_read",
        "stream.io_events",
    },
    ("polynomial", "swap_slots", 2): {
        "register.drain",
        "register.in_flight_read",
        "stream.io_events",
    },
    ("polynomial", "drop_enqueue", 0): {"stream.io_events"},
    ("polynomial", "drop_enqueue", 1): {"stream.io_events"},
    ("polynomial", "drop_enqueue", 2): {"stream.io_events"},
    ("polynomial", "dup_enqueue", 0): {
        "register.in_flight_read",
        "stream.io_events",
    },
    ("polynomial", "dup_enqueue", 1): {
        "register.temp_read_before_write",
        "stream.io_events",
    },
    ("polynomial", "dup_enqueue", 2): {
        "register.temp_read_before_write",
        "stream.io_events",
    },
    ("polynomial", "alias_temp_registers", 0): {"register.waw_same_cycle"},
    ("polynomial", "alias_temp_registers", 1): {"register.waw_same_cycle"},
    ("polynomial", "alias_temp_registers", 2): {"register.waw_same_cycle"},
    ("polynomial", "shrink_queue_bound", 0): {"occupancy.queue_depth"},
    ("polynomial", "shrink_queue_bound", 1): {"occupancy.declared"},
    ("polynomial", "shrink_queue_bound", 2): {"occupancy.queue_depth"},
    ("conv1d", "swap_slots", 0): {
        "register.temp_read_before_write",
        "stream.io_events",
    },
    ("conv1d", "swap_slots", 1): {
        "register.in_flight_read",
        "stream.io_events",
    },
    ("conv1d", "swap_slots", 2): {"stream.io_events"},
    ("conv1d", "drop_enqueue", 0): {"stream.io_events"},
    ("conv1d", "drop_enqueue", 1): {"stream.io_events"},
    ("conv1d", "drop_enqueue", 2): {"stream.io_events"},
    ("conv1d", "dup_enqueue", 0): {
        "register.in_flight_read",
        "stream.io_events",
    },
    ("conv1d", "dup_enqueue", 1): {"stream.io_events"},
    ("conv1d", "dup_enqueue", 2): {
        "register.temp_read_before_write",
        "stream.io_events",
    },
    ("conv1d", "shrink_queue_bound", 0): {"occupancy.queue_depth"},
    ("conv1d", "shrink_queue_bound", 1): {"occupancy.declared"},
    ("conv1d", "shrink_queue_bound", 2): {"occupancy.queue_depth"},
    ("matmul", "swap_slots", 0): {
        "iu.slot_order",
        "register.temp_read_before_write",
        "slot_order.addr_demands",
    },
    ("matmul", "swap_slots", 1): {
        "iu.slot_order",
        "register.drain",
        "register.temp_read_before_write",
        "slot_order.addr_demands",
    },
    ("matmul", "swap_slots", 2): {
        "iu.slot_order",
        "register.temp_read_before_write",
        "register.waw_order",
        "slot_order.addr_demands",
    },
    ("matmul", "off_by_one_address", 0): {"iu.expressions"},
    ("matmul", "off_by_one_address", 1): {"iu.expressions"},
    ("matmul", "off_by_one_address", 2): {"iu.expressions"},
    ("matmul", "drop_enqueue", 0): {"stream.io_events"},
    ("matmul", "drop_enqueue", 1): {"stream.io_events"},
    ("matmul", "drop_enqueue", 2): {"stream.io_events"},
    ("matmul", "dup_enqueue", 0): {
        "register.temp_read_before_write",
        "stream.io_events",
    },
    ("matmul", "dup_enqueue", 1): {
        "register.temp_read_before_write",
        "stream.io_events",
    },
    ("matmul", "dup_enqueue", 2): {
        "register.temp_read_before_write",
        "stream.io_events",
    },
    ("matmul", "alias_temp_registers", 0): {"register.waw_same_cycle"},
    ("matmul", "alias_temp_registers", 1): {"register.waw_same_cycle"},
    ("matmul", "alias_temp_registers", 2): {"register.waw_same_cycle"},
    ("matmul", "shrink_queue_bound", 0): {"occupancy.queue_depth"},
    ("matmul", "shrink_queue_bound", 1): {"occupancy.declared"},
    ("matmul", "shrink_queue_bound", 2): {"occupancy.queue_depth"},
}


def _compile_unverified(source, unroll=1):
    config = dataclasses.replace(DEFAULT_CONFIG, verify="off")
    return compile_w2(source, config=config, unroll=unroll)


def _case(program_suite, name):
    return next(c for c in program_suite if c[0] == name)


def _differential_flags(mutant_program, source, inputs) -> bool:
    """True when the classic detector notices the miscompile: the
    simulation crashes (underflow, overflow, hang, corruption audit) or
    its outputs diverge from the reference interpreter."""
    reference = interpret(analyze(parse_module(source)), inputs)
    try:
        result = simulate(mutant_program, inputs)
    except Exception:
        return True
    for name, expected in reference.items():
        got = result.outputs.get(name)
        if got is None or got.shape != expected.shape:
            return True
        if not np.allclose(got, expected, rtol=1e-9, atol=1e-12):
            return True
    return False


class TestNoSilentEscapes:
    @pytest.mark.parametrize("name", MUTATED_PROGRAMS)
    def test_verifier_flags_every_mutant(self, program_suite, name):
        """The strict matrix: every produced mutant is verifier-caught,
        so in particular no differential-caught mutant escapes."""
        _name, source, inputs, _ref = _case(program_suite, name)
        program = _compile_unverified(source)
        escapes = []
        produced = 0
        for mutant in mutation_suite(program, seeds=SEEDS):
            produced += 1
            report = verify_program(mutant.program, level="full")
            if report.ok:
                differential = _differential_flags(
                    mutant.program, source, inputs
                )
                escapes.append(
                    f"{mutant.kind} seed {mutant.seed} "
                    f"({mutant.description}): verifier silent, "
                    f"differential {'FLAGS' if differential else 'silent'}"
                )
        assert not escapes, "\n".join(escapes)
        assert produced >= 6, (
            f"{name}: expected a substantive mutant population, got "
            f"{produced}"
        )

    @pytest.mark.parametrize("name", MUTATED_PROGRAMS)
    def test_differential_subset_of_verifier(self, program_suite, name):
        """The ISSUE contract stated directly: differential-flagged ⊆
        verifier-flagged, checked mutant by mutant."""
        _name, source, inputs, _ref = _case(program_suite, name)
        program = _compile_unverified(source)
        for mutant in mutation_suite(program, seeds=SEEDS[:2]):
            verifier_flags = not verify_program(
                mutant.program, level="full"
            ).ok
            if _differential_flags(mutant.program, source, inputs):
                assert verifier_flags, (
                    f"silent escape: {mutant.kind} seed {mutant.seed} "
                    f"({mutant.description}) — the differential sweep "
                    "flags it but the verifier does not"
                )

    def test_every_mutation_kind_is_caught_somewhere(self, program_suite):
        """Each miscompile class has at least one verifier-caught mutant
        across the program set — no check family is dead weight."""
        caught: set[str] = set()
        for name in MUTATED_PROGRAMS:
            _name, source, _inputs, _ref = _case(program_suite, name)
            program = _compile_unverified(source)
            for mutant in mutation_suite(program, seeds=SEEDS):
                if not verify_program(mutant.program, level="full").ok:
                    caught.add(mutant.kind)
        assert caught == set(MUTATION_KINDS)


    def test_failed_check_ids_per_mutant_are_pinned(self, program_suite):
        found = {}
        for name in MUTATED_PROGRAMS:
            _name, source, _inputs, _ref = _case(program_suite, name)
            program = _compile_unverified(source)
            for mutant in mutation_suite(program, seeds=SEEDS):
                report = verify_program(mutant.program, level="full")
                found[(name, mutant.kind, mutant.seed)] = (
                    report.failed_checks()
                )
        assert found == EXPECTED_FAILED_CHECKS


class TestHarnessMechanics:
    def test_mutations_are_deterministic(self, program_suite):
        _name, source, _inputs, _ref = _case(program_suite, "matmul")
        program = _compile_unverified(source)
        for kind in MUTATION_KINDS:
            first = mutate(program, kind, 1)
            second = mutate(program, kind, 1)
            assert (first is None) == (second is None), kind
            if first is not None:
                assert first.description == second.description, kind

    def test_mutation_leaves_the_original_intact(self, program_suite):
        _name, source, _inputs, _ref = _case(program_suite, "conv1d")
        program = _compile_unverified(source)
        list(mutation_suite(program, seeds=SEEDS))
        report = verify_program(program, level="full")
        assert report.ok, (
            "mutating must deep-copy; the pristine program now fails:\n"
            + report.format()
        )

    def test_unknown_kind_rejected(self, program_suite):
        _name, source, _inputs, _ref = _case(program_suite, "conv1d")
        program = _compile_unverified(source)
        with pytest.raises(ValueError, match="unknown mutation kind"):
            mutate(program, "reticulate_splines", 0)

    def test_inapplicable_kinds_return_none(self, program_suite):
        """polynomial has no queue-addressed memory: the off-by-one
        address mutation has no site and must say so, not crash."""
        _name, source, _inputs, _ref = _case(program_suite, "polynomial")
        program = _compile_unverified(source)
        assert mutate(program, "off_by_one_address", 0) is None
