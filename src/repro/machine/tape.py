"""The value tape: one clean run's dataflow, replayed over a whole batch.

Warp schedules are data-independent: skew, queue timing, IU addresses,
operation counts and cycle totals are fixed at compile time, and only
the values flowing through them change from run to run.  So one checked
cycle-accurate run fixes every timing fact of every clean run.

**Recording.**  :meth:`ValueTape.record` runs the program once through
the unchanged :class:`~repro.machine.cell.CellExecutor`, with host
memory holding one opaque token per element and block plans generated
with a recorder in place of each ALU/MPY evaluator.  Tokens move
through registers, cell memory, IU-addressed slots and queues exactly
as floats do, and every underflow, capacity, stream-accounting,
watchdog and collect check still runs.  Each operation on a token
appends ``(op, dest, sources)`` to the tape and returns a fresh token;
an operation on literals alone is evaluated on the spot by the real
evaluator, exactly as every run would evaluate it.
The run's static facts (``total_cycles``, ``cell_stats``,
``queue_occupancy``, ``machine_metrics``) are kept as they are.

**Replay.**  :meth:`ValueTape.results` evaluates the tape once over
``(batch,)`` float64 arrays with NumPy, releasing each value after its
last use.  Python and NumPy agree bit for bit on every tape operation
except a division by zero, which raises on the cycle path; items with a
zero divisor at any tape divide (dead divides included), like items
whose inputs fail validation, are left to the cycle path, so their
errors stay exactly what they are there.
"""

from __future__ import annotations

import math
import struct
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..analysis.local_opt import pure_evaluator
from ..ir.dag import OpKind
from .array import SimulationResult
from .host import HostMemory
from .plan import block_plans

if TYPE_CHECKING:  # pragma: no cover - circular import at run time
    from .array import WarpMachine


def _flag(mask) -> np.ndarray:
    """Booleans as the cell datapath materialises them (0.0 / 1.0)."""
    return np.asarray(mask, dtype=np.float64)


#: The batch form of every pure evaluator in ``analysis.local_opt``.
_BATCH_EVAL: dict[OpKind, Callable[..., np.ndarray]] = {
    OpKind.FADD: np.add,
    OpKind.FSUB: np.subtract,
    OpKind.FMUL: np.multiply,
    OpKind.FDIV: np.divide,
    OpKind.FNEG: np.negative,
    OpKind.CMP_EQ: lambda a, b: _flag(np.equal(a, b)),
    OpKind.CMP_NE: lambda a, b: _flag(np.not_equal(a, b)),
    OpKind.CMP_LT: lambda a, b: _flag(np.less(a, b)),
    OpKind.CMP_LE: lambda a, b: _flag(np.less_equal(a, b)),
    OpKind.CMP_GT: lambda a, b: _flag(np.greater(a, b)),
    OpKind.CMP_GE: lambda a, b: _flag(np.greater_equal(a, b)),
    OpKind.BAND: lambda a, b: _flag((a != 0.0) & (b != 0.0)),
    OpKind.BOR: lambda a, b: _flag((a != 0.0) | (b != 0.0)),
    OpKind.BNOT: lambda a: _flag(np.equal(a, 0.0)),
    OpKind.SELECT: lambda c, a, b: np.where(np.not_equal(c, 0.0), a, b),
}


class _Token:
    """An opaque value of the recording run: one tape slot."""

    __slots__ = ("slot",)

    def __init__(self, slot: int):
        self.slot = slot


class _Recorder:
    """Collects the tape while the recording run executes."""

    def __init__(self) -> None:
        self.n_slots = 0
        #: ``(batch evaluator, dest slot, source slots)`` in issue order.
        self.ops: list[tuple[Callable[..., np.ndarray], int, tuple[int, ...]]] = []
        self.literals: dict[bytes, tuple[int, float]] = {}
        self.inputs: list[tuple[int, str, int]] = []

    def token(self) -> _Token:
        self.n_slots += 1
        return _Token(self.n_slots - 1)

    def input(self, array: str, flat_index: int) -> _Token:
        token = self.token()
        self.inputs.append((token.slot, array, flat_index))
        return token

    def slot(self, value) -> int:
        """The slot of a token, or of a literal (one per bit pattern)."""
        if type(value) is _Token:
            return value.slot
        key = struct.pack("<d", value)
        known = self.literals.get(key)
        if known is None:
            known = self.literals[key] = (self.token().slot, value)
        return known[0]

    def evaluator(self, op: OpKind) -> Callable:
        """A recording stand-in for ``op``'s pure evaluator."""
        fn = pure_evaluator(op)
        batch_fn = _BATCH_EVAL[op]

        def record(*args):
            if not any(type(a) is _Token for a in args):
                return fn(*args)  # literals only: the same on every run
            dest = self.token()
            self.ops.append(
                (batch_fn, dest.slot, tuple(self.slot(a) for a in args))
            )
            return dest

        return record


class ValueTape:
    """One clean run's dataflow plus its static facts."""

    def __init__(
        self,
        recorder: _Recorder,
        static: SimulationResult,
        host_arrays: dict[str, tuple[int, ...]],
    ):
        self._host_arrays = host_arrays
        #: Per host array, the slot holding each element after collect.
        self._outputs = {
            name: [recorder.slot(value) for value in values]
            for name, values in static.outputs.items()
        }
        self._n_slots = recorder.n_slots
        self._literals = list(recorder.literals.values())
        self._inputs = recorder.inputs
        self._static = static
        # Release each value right after its last use; outputs live on.
        last_use: dict[int, int] = {}
        for step, (_fn, dest, sources) in enumerate(recorder.ops):
            last_use[dest] = step
            for source in sources:
                last_use[source] = step
        for slots in self._outputs.values():
            for slot in slots:
                last_use.pop(slot, None)
        frees: list[list[int]] = [[] for _ in recorder.ops]
        for slot, step in last_use.items():
            frees[step].append(slot)
        self.steps = [
            (fn, dest, sources, tuple(free))
            for (fn, dest, sources), free in zip(recorder.ops, frees)
        ]

    @property
    def n_ops(self) -> int:
        return len(self.steps)

    @classmethod
    def record(cls, machine: "WarpMachine") -> "ValueTape":
        """One recording run of ``machine``'s program (see module doc).

        Raises whatever the cycle-accurate run raises for a failure that
        does not depend on the data."""
        program = machine._program
        recorder = _Recorder()
        memory = HostMemory(
            {
                name: np.array(
                    [recorder.input(name, k) for k in range(math.prod(dims))],
                    dtype=object,
                )
                for name, dims in program.ir.host_arrays.items()
            }
        )
        blocks = block_plans(
            program.cell_code, program.config.cell, recorder.evaluator
        )
        static = machine._execute(memory, blocks, read=lambda token: token)
        return cls(recorder, static, program.ir.host_arrays)

    def results(
        self, input_sets: Sequence[dict[str, np.ndarray]]
    ) -> dict[int, SimulationResult]:
        """Replay the tape over every item at once.

        Returns the result of every item the tape answers, by item
        index; the items left out failed input validation or divide by
        zero, and belong to the cycle-accurate path.  Results share the
        run's static facts (cell stats, queue occupancy, metrics)."""
        memories: dict[int, HostMemory] = {}
        for index, inputs in enumerate(input_sets):
            try:
                memories[index] = HostMemory.from_inputs(
                    self._host_arrays, inputs
                )
            except Exception:
                continue  # the cycle path raises the same error
        if not memories:
            return {}
        # One (elements, batch) array per host array: row k is element k
        # of every item.
        columns = {
            name: np.stack([m.arrays[name] for m in memories.values()], axis=1)
            for name in self._host_arrays
        }
        batch = len(memories)
        values: list = [None] * self._n_slots
        for slot, value in self._literals:
            values[slot] = value
        for slot, name, k in self._inputs:
            values[slot] = columns[name][k]
        zero_divisor = np.zeros(batch, dtype=bool)
        with np.errstate(all="ignore"):
            for fn, dest, sources, frees in self.steps:
                args = [values[s] for s in sources]
                if fn is np.divide:
                    zero_divisor |= np.equal(args[1], 0.0)
                values[dest] = fn(*args)
                for slot in frees:
                    values[slot] = None
        outputs = {}
        for name, slots in self._outputs.items():
            out = np.empty((batch, len(slots)))
            for k, slot in enumerate(slots):
                out[:, k] = values[slot]
            outputs[name] = out
        static = self._static
        return {
            index: SimulationResult(
                outputs={name: out[row] for name, out in outputs.items()},
                cell_stats=static.cell_stats,
                total_cycles=static.total_cycles,
                skew=static.skew,
                queue_occupancy=static.queue_occupancy,
                machine_metrics=static.machine_metrics,
            )
            for row, index in enumerate(memories)
            if not zero_divisor[row]
        }
