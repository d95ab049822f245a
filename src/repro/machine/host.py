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
:class:`~repro.hostcodegen.HostLayout`: ``(words,)`` for one run, filled
by :meth:`HostMemory.from_inputs`, or ``(words, items)`` for a whole
batch, filled by :func:`load_inputs`.  Both store an item's array
through one check, :func:`_validated`, so they accept and refuse the
same inputs with the same errors.  A batch loads each host array for
all items in one NumPy pass; only an array that some items lack or
give malformed goes item by item, to name each bad item with its own
error.  A channel's feed is one gather at static word offsets
and its collection a scatter to them; a word is a Python float or a row
holding every item's value of that word.

A run's outputs are copies of its host arrays (:meth:`HostMemory.outputs`)
in which every NaN is the one quiet NaN :data:`QUIET_NAN`: no W2
operation lets a NaN's sign or payload reach a non-NaN value, but which
NaN an operation on two NaNs returns differs between Python's float
paths and NumPy's loops, so the paths agree bit for bit only on outputs
that carry one NaN."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.exceptions import ComplexWarning

from ..errors import HostDataError
from ..hostcodegen import HostLayout
from ..lang.ast import Channel
from .queue import TimedQueue


#: The NaN every output carries: quiet, positive, payload zero.
QUIET_NAN = float(np.uint64(0x7FF8_0000_0000_0000).view(np.float64))


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
        """One item's ``(words,)`` memory: zeros and the literal words,
        then each given array stored through :func:`_validated`, the
        check :func:`load_inputs` applies to an item, so it raises what
        that reports.  ``host_shapes`` is a program's layout or just its
        host array shapes (the reference interpreter has no host
        program)."""
        layout = host_shapes
        if not isinstance(layout, HostLayout):
            layout = HostLayout(layout)
        buffer = np.zeros(layout.words)
        buffer[layout.literal_base : layout.discard] = layout.literals
        memory = cls.over(layout, buffer)
        for name, column in memory.arrays.items():
            if name in inputs:
                data = _validated(name, inputs[name], len(column))
                column[: data.size] = data
        return memory

    def outputs(self, names: Iterable[str]) -> dict[str, np.ndarray]:
        """Copies of the host arrays ``names`` once the run is over, with
        every NaN in memory rewritten to :data:`QUIET_NAN` (inputs the
        run passed through included): one pass over the host words."""
        nan = np.isnan(self.buffer)
        if nan.any():
            self.buffer[nan] = QUIET_NAN
        return {name: self.arrays[name].copy() for name in names}


def load_inputs(
    layout: HostLayout,
    input_sets: Sequence[dict[str, "np.ndarray"]],
) -> tuple[HostMemory, dict[int, HostDataError]]:
    """:func:`_load_inputs`, where a complex value does not convert to
    float (Python's ``float`` refuses it too) instead of losing its
    imaginary part."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", ComplexWarning)
        return _load_inputs(layout, input_sets)


def _load_inputs(
    layout: HostLayout,
    input_sets: Sequence[dict[str, "np.ndarray"]],
) -> tuple[HostMemory, dict[int, HostDataError]]:
    """Validate every input set into one zeroed ``(words, items)``
    buffer, item ``j`` in column ``j`` (short inputs are zero-padded;
    names the module does not declare are ignored); the literal words
    hold their literals.  Returns that memory and, by item index, the
    :class:`~repro.errors.HostDataError` of each item that failed
    validation (an oversize input, or one that does not convert to
    float, such as a complex one); a batch run discards such an item's
    column.

    Each host array is first loaded for all items in one NumPy pass,
    which holds when every item gives it and its items share one shape
    that fits.  Any other array (a name some items lack, ragged, oversize
    or unconvertible items) takes the per-item loop (:func:`_validated`),
    which names each bad item with the error of its first failing
    array."""
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
                if name in inputs:
                    data = _validated(name, inputs[name], len(column))
                    column[: data.size, item] = data
        except HostDataError as error:
            failed[item] = error
    return memory, failed


def _validated(name: str, value: object, size: int) -> np.ndarray:
    """``value`` as the flat float64 words of the host array ``name`` of
    ``size`` elements (short is fine: the rest stays zero).  Raises
    :class:`~repro.errors.HostDataError` if it does not convert to float
    (a complex value included, as Python's ``float`` refuses it) or
    holds more than ``size`` elements.  An array of booleans, integers
    or floats needs no guard against a complex cast."""
    try:
        if isinstance(value, np.ndarray) and value.dtype.kind in "biuf":
            data = np.asarray(value, dtype=np.float64)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error", ComplexWarning)
                data = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError, ComplexWarning):
        raise HostDataError(
            f"input {name!r} does not convert to float: "
            f"{unconvertible(value)!r}"
        ) from None
    data = data.ravel()
    if data.size > size:
        raise HostDataError(
            f"input {name!r} has {data.size} elements; the module "
            f"declares {size}"
        )
    return data


def unconvertible(value: object) -> object:
    """The first scalar of ``value`` that does not convert to float, as
    the user wrote it (``value`` itself when no one scalar fails, as in
    a ragged nesting).  A NumPy complex scalar fails too, as a Python
    complex does, whatever the caller's warning filters."""
    try:
        scalars = np.asarray(value, dtype=object).ravel().tolist()
    except ValueError:  # arrays of shapes that do not broadcast
        return value
    with warnings.catch_warnings():
        warnings.simplefilter("error", ComplexWarning)
        for scalar in scalars:
            try:
                np.float64(scalar)
            except (TypeError, ValueError, OverflowError, ComplexWarning):
                return scalar
    return value


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


def feed_words(
    feed: dict[Channel, np.ndarray], memory: HostMemory
) -> dict[Channel, list]:
    """Cell 0's input words (link 0), by channel: one gather per
    channel at its ``feed`` offsets.  One run hands out Python floats
    (the cells' fast scalar arithmetic), a batch run one row per word,
    holding every item's value at once."""
    link = {}
    for channel, offsets in feed.items():
        words = memory.buffer[offsets]
        link[channel] = words.tolist() if words.ndim == 1 else list(words)
    return link


def feed_input_queues(
    feed: dict[Channel, np.ndarray],
    memory: HostMemory,
    capacities: dict[Channel, int | None],
) -> dict[Channel, TimedQueue]:
    """Cell 0's input queues of a checked run, built whole from
    :func:`feed_words`: word ``k`` of a channel arrives at cycle ``k``
    (one word per cycle per channel), so its send times are a
    ``range``."""
    return {
        channel: TimedQueue(
            name=f"link0.{channel.value}",
            capacity=capacities[channel],
            send_times=range(len(words)),
            values=words,
        )
        for channel, words in feed_words(feed, memory).items()
    }


def collect_outputs(
    collection: dict[Channel, Collection],
    memory: HostMemory,
    words: dict[Channel, list],
) -> None:
    """Scatter the last cell's output words, by channel, into host
    memory."""
    for channel, sent in words.items():
        scatter = collection[channel]
        if scatter.words != len(sent):
            raise HostDataError(
                f"channel {channel}: the last cell sent {len(sent)} "
                f"items but the host program expects {scatter.words}"
            )
        if not scatter.sources.size:  # every word discarded
            continue
        if memory.buffer.ndim == 1:
            values = np.array(sent, dtype=np.float64)
            memory.buffer[scatter.targets] = values[scatter.sources]
            continue
        # A batch run stores its rows one by one: a word the cells never
        # combined with data is still a Python float among the rows (the
        # assignment broadcasts it), and each kept row is copied once.
        targets, sources = scatter.targets.tolist(), scatter.sources.tolist()
        for target, source in zip(targets, sources):
            memory.buffer[target] = sent[source]
