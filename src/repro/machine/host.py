"""The host's I/O processors: feeder and collector.

"The host ... provides an adequate data bandwidth to sustain the array at
full speed" (Section 2.1): each channel delivers one word per cycle into
cell 0's queues, starting at cycle 0, in exactly the order the host
program prescribes.  The host-to-array boundary is flow-controlled (the
IU and host communicate asynchronously over a bus), so the host-side
queue has no hard capacity; a cell trying to consume *faster* than one
word per cycle per channel still underflows, which models the bandwidth
limit faithfully.

Host memory is one flat float64 buffer in the word numbering of
:class:`~repro.hostcodegen.HostLayout`: ``(words,)`` for one run, or
``(words, items)`` for a whole batch, filled by :func:`load_inputs`, the
one routine that validates host inputs for both.  It loads each host
array for all items in one NumPy pass; only an array that some items
lack or give malformed goes item by item, to name each bad item with
its own error.  A channel's feed is one gather at static word offsets
and its collection a scatter to them; a word is a Python float or a row
holding every item's value of that word."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import HostDataError
from ..hostcodegen import HostLayout
from ..lang.ast import Channel
from .queue import TimedQueue


@dataclass
class HostMemory:
    """One flat float64 ``buffer`` of host words: ``(words,)`` for one
    run, ``(words, items)`` for a batch run over NumPy columns.
    ``arrays`` holds each host array as a view into it: ``(elements,)``
    or ``(elements, items)``."""

    buffer: np.ndarray
    arrays: dict[str, np.ndarray]

    @classmethod
    def over(cls, layout: HostLayout, buffer: np.ndarray) -> "HostMemory":
        """The memory of ``buffer``, laid out by ``layout``."""
        spans = layout.spans.items()
        return cls(buffer, {name: buffer[b : b + n] for name, (b, n) in spans})

    @classmethod
    def from_inputs(
        cls,
        host_shapes: "HostLayout | dict[str, tuple[int, ...]]",
        inputs: dict[str, "np.ndarray"],
    ) -> "HostMemory":
        """One item's memory; raises what :func:`load_inputs` reports.
        ``host_shapes`` is a program's layout or just its host array
        shapes (the reference interpreter has no host program)."""
        layout = host_shapes
        if not isinstance(layout, HostLayout):
            layout = HostLayout(layout)
        memory, failed = load_inputs(layout, [inputs])
        if failed:
            raise failed[0]
        return cls.over(layout, memory.buffer[:, 0].copy())


def load_inputs(
    layout: HostLayout,
    input_sets: Sequence[dict[str, "np.ndarray"]],
) -> tuple[HostMemory, dict[int, HostDataError]]:
    """Validate every input set into one zeroed ``(words, items)``
    buffer, item ``j`` in column ``j`` (short inputs are zero-padded;
    names the module does not declare are ignored); the literal words
    hold their literals.  Returns that memory and, by item index, the
    :class:`~repro.errors.HostDataError` of each item that failed
    validation (an oversize input, or one that does not convert to
    float); a batch run discards such an item's column.

    Each host array is first loaded for all items in one NumPy pass,
    which holds when every item gives it and its items share one shape
    that fits.  Any other array (a name some items lack, ragged, oversize
    or unconvertible items) takes the per-item loop, which names each
    bad item with the error of its first failing array."""
    buffer = np.zeros((layout.words, len(input_sets)))
    buffer[layout.literal_base : layout.discard] = np.reshape(
        layout.literals, (-1, 1)
    )
    memory = HostMemory.over(layout, buffer)
    given = set().union(*input_sets)
    pending: dict[str, np.ndarray] = {}
    for name, column in memory.arrays.items():
        if name not in given:
            continue
        try:
            data = np.array(
                [inputs[name] for inputs in input_sets], dtype=np.float64
            ).reshape(len(input_sets), -1)
        except Exception:  # noqa: BLE001 - the per-item loop names it
            data = None
        if data is None or data.shape[1] > len(column):
            pending[name] = column
        else:
            column[: data.shape[1]] = data.T
    failed: dict[int, HostDataError] = {}
    for item, inputs in enumerate(input_sets if pending else ()):
        try:
            for name, column in pending.items():
                if name not in inputs:
                    continue
                try:
                    data = np.asarray(inputs[name], dtype=np.float64).ravel()
                except (TypeError, ValueError, OverflowError) as error:
                    raise HostDataError(
                        f"input {name!r} does not convert to float: {error}"
                    ) from None
                if data.size > len(column):
                    raise HostDataError(
                        f"input {name!r} has {data.size} elements; the "
                        f"module declares {len(column)}"
                    )
                column[: data.size, item] = data
        except HostDataError as error:
            failed[item] = error
    return memory, failed


@dataclass(frozen=True)
class Collection:
    """Where one channel's output stream lands: ``words`` words arrive,
    and word ``sources[k]`` is stored at host word ``targets[k]``."""

    words: int
    sources: np.ndarray
    targets: np.ndarray

    @classmethod
    def of(cls, offsets: np.ndarray, discard: int) -> "Collection":
        """The scatter of a stream's word ``offsets``: discards are
        dropped, and a host word written twice keeps its last write."""
        kept = np.flatnonzero(offsets != discard)[::-1]
        _, last = np.unique(offsets[kept], return_index=True)
        sources = kept[last]
        return cls(len(offsets), sources, offsets[sources])


def feed_input_queues(
    feed: dict[Channel, np.ndarray],
    memory: HostMemory,
    capacities: dict[Channel, int | None],
) -> dict[Channel, TimedQueue]:
    """Cell 0's input queues (link 0), built whole: word ``k`` of a
    channel's ``feed`` offsets arrives at cycle ``k`` (one word per
    cycle per channel), so its send times are a ``range``, which only
    the checked path reads.

    One gather per channel reads the words: one run hands out Python
    floats (the cells' fast scalar arithmetic), a batch run one row per
    word, holding every item's value at once."""
    link: dict[Channel, TimedQueue] = {}
    for channel, offsets in feed.items():
        words = memory.buffer[offsets]
        link[channel] = TimedQueue(
            name=f"link0.{channel.value}",
            capacity=capacities[channel],
            send_times=range(len(words)),
            values=words.tolist() if words.ndim == 1 else list(words),
        )
    return link


def collect_outputs(
    collection: dict[Channel, Collection],
    memory: HostMemory,
    queues: dict[Channel, TimedQueue],
) -> None:
    """Scatter the last cell's output streams into host memory."""
    for channel, queue in queues.items():
        scatter = collection[channel]
        if scatter.words != queue.items_sent:
            raise HostDataError(
                f"channel {channel}: the last cell sent {queue.items_sent} "
                f"items but the host program expects {scatter.words}"
            )
        if memory.buffer.ndim == 1:
            values = np.array(queue.values, dtype=np.float64)
            memory.buffer[scatter.targets] = values[scatter.sources]
            continue
        # A batch run stores its rows one by one: a word the cells never
        # combined with data is still a Python float among the rows (the
        # assignment broadcasts it), and each kept row is copied once.
        targets, sources = scatter.targets.tolist(), scatter.sources.tolist()
        for target, source in zip(targets, sources):
            memory.buffer[target] = queue.values[source]
