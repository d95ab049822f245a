"""Property tests over random injection plans.

Two properties, both direct consequences of the design:

* **No silent wrong answers.**  For *any* seed-derived
  :class:`~repro.faults.InjectionPlan`, a run either completes with
  outputs bit-identical to the clean run or raises a structured
  :class:`~repro.errors.SimulationError`.  There is no third outcome.
* **The Section 6.2.2 bound is exact.**  For every bundled matrix
  program, shrinking an inner X queue to the compile-time requirement
  never overflows (and changes nothing), while requirement - 1 always
  raises :class:`~repro.errors.QueueCapacityError` — i.e. the static
  analysis is tight in both directions, empirically.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import compile_w2
from repro.errors import QueueCapacityError, SimulationError
from repro.faults import FaultInjector, FaultKind, FaultSpec, InjectionPlan
from repro.lang import Channel
from repro.machine import simulate
from repro.programs import conv1d, passthrough, polynomial

_RNG = np.random.default_rng(20260806)
_PROGRAM = compile_w2(polynomial(12, 4))
_INPUTS = {"z": _RNG.standard_normal(12), "c": _RNG.standard_normal(4)}
_CLEAN = simulate(_PROGRAM, _INPUTS)


class TestRandomPlans:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_recovered_or_detected_never_wrong(self, seed):
        """Any random plan: bit-identical outputs or a SimulationError."""
        plan = InjectionPlan.random(seed, n_cells=_PROGRAM.n_cells)
        injector = FaultInjector(plan)
        try:
            result = simulate(_PROGRAM, _INPUTS, faults=injector)
        except SimulationError:
            return  # detected: the acceptable failure mode
        for name, data in _CLEAN.outputs.items():
            assert np.array_equal(result.outputs[name], data), (
                f"SILENT WRONG ANSWER: seed={seed} "
                f"plan={[s.describe() for s in plan.specs]} "
                f"fired={injector.report()} diverged on {name!r}"
            )

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_plans_are_reproducible(self, seed):
        """The same seed yields the same plan, serialisation
        round-trips, and the fingerprint is stable."""
        plan = InjectionPlan.random(seed, n_cells=_PROGRAM.n_cells)
        again = InjectionPlan.random(seed, n_cells=_PROGRAM.n_cells)
        assert plan == again
        assert InjectionPlan.from_json(plan.to_json()) == plan
        assert plan.fingerprint() == again.fingerprint()


def _x_requirement(program) -> int:
    return next(
        b.required for b in program.buffers if b.channel == Channel.X
    )


_TIGHTNESS_CASES = {
    "polynomial": (
        lambda: polynomial(12, 4),
        lambda rng: {
            "z": rng.standard_normal(12),
            "c": rng.standard_normal(4),
        },
    ),
    "conv1d": (
        lambda: conv1d(12, 3),
        lambda rng: {
            "x": rng.standard_normal(12),
            "w": rng.standard_normal(3),
        },
    ),
    "passthrough": (
        lambda: passthrough(8, 2),
        lambda rng: {"din": rng.standard_normal(8)},
    ),
}


class TestQueueBoundTightness:
    """Section 6.2.2: the computed minimum queue size is exact."""

    @pytest.mark.parametrize("name", sorted(_TIGHTNESS_CASES))
    def test_requirement_is_sufficient_and_necessary(self, name):
        factory, gen = _TIGHTNESS_CASES[name]
        program = compile_w2(factory())
        inputs = gen(np.random.default_rng(20260806))
        clean = simulate(program, inputs)
        required = _x_requirement(program)

        def shrink(capacity: int):
            return InjectionPlan(
                specs=tuple(
                    FaultSpec(
                        kind=FaultKind.SHRINK_QUEUE,
                        cell=link,
                        channel="X",
                        capacity=capacity,
                    )
                    for link in range(1, program.n_cells)
                )
            )

        # Sufficient: every inner X link at exactly the requirement.
        result = simulate(program, inputs, faults=shrink(required))
        for out, data in clean.outputs.items():
            assert np.array_equal(result.outputs[out], data)
        # The runtime peak equals the static requirement (not just <=).
        for link in range(1, program.n_cells):
            queue = result.machine_metrics.queues[f"link{link}.X"]
            assert queue.high_water == required

        # Necessary: one word less always overflows.
        with pytest.raises(QueueCapacityError):
            simulate(program, inputs, faults=shrink(required - 1))
