"""The host's I/O processors: feeder and collector.

"The host ... provides an adequate data bandwidth to sustain the array at
full speed" (Section 2.1): each channel delivers one word per cycle into
cell 0's queues, starting at cycle 0, in exactly the order the host
program prescribes.  The host-to-array boundary is flow-controlled (the
IU and host communicate asynchronously over a bus), so the host-side
queue has no hard capacity; a cell trying to consume *faster* than one
word per cycle per channel still underflows, which models the bandwidth
limit faithfully.

The collector drains the last cell's queues and scatters the values into
host memory according to the output bindings.

Host memory holds one run's arrays, or a whole batch at once: one
``(elements, items)`` float64 column per host array, filled by
:func:`load_inputs`, the one routine that validates host inputs for a
single run and for a batch alike.  Schedules are data-independent, so
the same cycle-accurate run carries either: a word is a Python float or
a row holding every item's value of that word."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import HostDataError
from ..hostcodegen import HostProgram
from ..lang.ast import Channel
from .queue import TimedQueue


@dataclass
class HostMemory:
    """Host arrays by name, as flat float64 storage: one ``(elements,)``
    array per name for one run, or one ``(elements, items)`` column per
    name for a batch run over NumPy columns."""

    arrays: dict[str, np.ndarray]

    @classmethod
    def from_inputs(
        cls,
        host_shapes: dict[str, tuple[int, ...]],
        inputs: dict[str, "np.ndarray"],
    ) -> "HostMemory":
        """One item's memory; raises what :func:`load_inputs` reports."""
        memory, failed = load_inputs(host_shapes, [inputs])
        if failed:
            raise failed[0]
        return cls({name: data[:, 0] for name, data in memory.arrays.items()})


def load_inputs(
    host_shapes: dict[str, tuple[int, ...]],
    input_sets: Sequence[dict[str, "np.ndarray"]],
) -> tuple[HostMemory, dict[int, Exception]]:
    """Validate every input set, writing item ``j`` straight into column
    ``j`` of one zeroed ``(elements, items)`` array per host array (short
    inputs are zero-padded; names the module does not declare are
    ignored).  Returns that memory and, by item index, the error of each
    item that failed validation; a batch run discards such an item's
    column."""
    batch = len(input_sets)
    memory = HostMemory(
        {
            name: np.zeros((math.prod(dims), batch))
            for name, dims in host_shapes.items()
        }
    )
    failed: dict[int, Exception] = {}
    for item, inputs in enumerate(input_sets):
        try:
            for name, column in memory.arrays.items():
                if name not in inputs:
                    continue
                data = np.asarray(inputs[name], dtype=np.float64).ravel()
                if data.size > len(column):
                    raise HostDataError(
                        f"input {name!r} has {data.size} elements; the "
                        f"module declares {len(column)}"
                    )
                column[: data.size, item] = data
        except Exception as error:  # noqa: BLE001 - each item's run re-raises
            failed[item] = error
    return memory, failed


def feed_input_queues(
    host_program: HostProgram,
    memory: HostMemory,
    queues: dict[Channel, TimedQueue],
    sequences: dict[Channel, list] | None = None,
) -> None:
    """Load cell 0's input queues: item ``k`` arrives at cycle ``k``
    (one word per cycle per channel).

    ``sequences`` optionally supplies the per-channel input references
    precomputed by an :class:`~repro.machine.plan.ExecutionPlan`, so
    batched runs do not re-derive them from the host program.  One run
    sends Python floats (the cells' fast scalar arithmetic); a batch run
    sends one row of its columns per word, every item's value at once.
    The rows are views: receives read only ``in`` arrays and the
    collector writes only ``out`` arrays.
    """
    words = {
        name: data.tolist() if data.ndim == 1 else data
        for name, data in memory.arrays.items()
    }
    for channel, queue in queues.items():
        refs = (
            sequences[channel]
            if sequences is not None
            else host_program.input_sequence(channel)
        )
        for k, ref in enumerate(refs):
            if ref.is_literal:
                value = float(ref.literal)  # type: ignore[arg-type]
            else:
                assert ref.array is not None and ref.flat_index is not None
                data = words.get(ref.array)
                if data is None or not (0 <= ref.flat_index < len(data)):
                    raise HostDataError(
                        f"input reference {ref.array}[{ref.flat_index}] is "
                        "out of bounds"
                    )
                value = data[ref.flat_index]
            queue.enqueue(k, value)


def collect_outputs(
    host_program: HostProgram,
    memory: HostMemory,
    queues: dict[Channel, TimedQueue],
    bindings: dict[Channel, list] | None = None,
) -> None:
    """Scatter the last cell's output streams into host memory.

    ``bindings`` optionally supplies precomputed per-channel output
    bindings (see :func:`feed_input_queues`)."""
    for channel, queue in queues.items():
        channel_bindings = (
            bindings[channel]
            if bindings is not None
            else list(host_program.output_bindings(channel))
        )
        if len(channel_bindings) != queue.items_sent:
            raise HostDataError(
                f"channel {channel}: the last cell sent {queue.items_sent} "
                f"items but the host program expects {len(channel_bindings)}"
            )
        for binding, value in zip(channel_bindings, queue.values):
            if binding.is_discard:
                continue
            assert binding.array is not None and binding.flat_index is not None
            data = memory.arrays[binding.array]
            if not (0 <= binding.flat_index < len(data)):
                raise HostDataError(
                    f"output binding {binding.array}[{binding.flat_index}] "
                    "is out of bounds"
                )
            data[binding.flat_index] = value
