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
host memory according to the output bindings."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..errors import HostDataError
from ..hostcodegen import HostProgram
from ..lang.ast import Channel
from .queue import TimedQueue


@dataclass
class HostMemory:
    """Host arrays by name (flattened float64 storage)."""

    arrays: dict[str, np.ndarray]

    @classmethod
    def from_inputs(
        cls,
        host_shapes: dict[str, tuple[int, ...]],
        inputs: dict[str, "np.ndarray"],
    ) -> "HostMemory":
        arrays: dict[str, np.ndarray] = {}
        for name, dims in host_shapes.items():
            size = math.prod(dims)
            if name in inputs:
                data = np.asarray(inputs[name], dtype=np.float64).ravel()
                if data.size > size:
                    raise HostDataError(
                        f"input {name!r} has {data.size} elements; the "
                        f"module declares {size}"
                    )
                padded = np.zeros(size, dtype=np.float64)
                padded[: data.size] = data
                arrays[name] = padded
            else:
                arrays[name] = np.zeros(size, dtype=np.float64)
        return cls(arrays)


def feed_input_queues(
    host_program: HostProgram,
    memory: HostMemory,
    queues: dict[Channel, TimedQueue],
    sequences: dict[Channel, list] | None = None,
    read: Callable[[Any], Any] = float,
) -> None:
    """Load cell 0's input queues: item ``k`` arrives at cycle ``k``
    (one word per cycle per channel).

    ``sequences`` optionally supplies the per-channel input references
    precomputed by an :class:`~repro.machine.plan.ExecutionPlan`, so
    batched runs do not re-derive them from the host program.  ``read``
    turns a host array element into the word sent (the value-tape
    recording run sends its opaque input tokens unconverted).
    """
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
                data = memory.arrays.get(ref.array)
                if data is None or not (0 <= ref.flat_index < data.size):
                    raise HostDataError(
                        f"input reference {ref.array}[{ref.flat_index}] is "
                        "out of bounds"
                    )
                value = read(data[ref.flat_index])
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
            if not (0 <= binding.flat_index < data.size):
                raise HostDataError(
                    f"output binding {binding.array}[{binding.flat_index}] "
                    "is out of bounds"
                )
            data[binding.flat_index] = value
