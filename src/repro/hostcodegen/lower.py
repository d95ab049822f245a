"""Lowering host I/O streams to transfer descriptors.

"The I/O processors in the Warp host must be programmed to supply input
in the exact sequence as the data is used in the Warp cells"
(Section 2.2).  The word offsets of
:class:`~repro.hostcodegen.io_program.HostProgram` are what must happen;
real I/O processors are programmed with *block transfers* — (base,
stride, count) descriptors — not per-word scripts.

This module compresses each channel's offsets into descriptors:

* ``BlockTransfer`` — ``count`` words from ``array`` starting at
  ``base`` with constant ``stride`` (stride 0 = a repeated element);
* ``LiteralRun`` — ``count`` copies of a literal (the IU synthesises
  these; the collection's discards are clocked as runs of 0.0).

A round-trip check (descriptor expansion == original offsets) is part
of the test suite, and :func:`transfer_statistics` feeds the
decomposition report.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from ..lang.ast import Channel
from .io_program import HostLayout, HostProgram


@dataclass(frozen=True)
class BlockTransfer:
    """``count`` words of ``array`` from ``base`` stepping ``stride``."""

    array: str
    base: int
    stride: int
    count: int

    def offsets(self, layout: HostLayout) -> np.ndarray:
        first, _size = layout.spans[self.array]
        return first + self.base + self.stride * np.arange(self.count)


@dataclass(frozen=True)
class LiteralRun:
    """``count`` copies of ``value``."""

    value: float
    count: int

    def offsets(self, layout: HostLayout) -> np.ndarray:
        return np.full(self.count, layout.literal_word(self.value))


TransferOp = Union[BlockTransfer, LiteralRun]


@dataclass
class HostTransferProgram:
    """One channel's feed (or collection) as transfer descriptors."""

    channel: Channel
    ops: list[TransferOp] = field(default_factory=list)

    @property
    def total_words(self) -> int:
        return sum(op.count for op in self.ops)

    def expand(self, layout: HostLayout) -> np.ndarray:
        """The word offsets the descriptors stand for."""
        return np.concatenate(
            [np.zeros(0, dtype=np.int64)]
            + [op.offsets(layout) for op in self.ops]
        )


def _block_runs(array: str, indices: list[int]) -> list[BlockTransfer]:
    """The greedy longest-constant-stride decomposition of ``indices``."""
    runs: list[BlockTransfer] = []
    start = 0
    while start < len(indices):
        end = min(start + 1, len(indices) - 1)  # the run's last index
        stride = indices[end] - indices[start]
        while end + 1 < len(indices) and indices[end + 1] - indices[end] == stride:
            end += 1
        runs.append(BlockTransfer(array, indices[start], stride, end - start + 1))
        start = end + 1
    return runs


def compress_offsets(
    channel: Channel, offsets: np.ndarray, layout: HostLayout
) -> HostTransferProgram:
    """Compress a stream of word offsets into transfer descriptors."""

    def source(offset: int) -> tuple[str | None, float | None]:
        """``(array, None)`` for an array word, ``(None, literal)`` for a
        literal word; the discard slot reads as the literal 0.0."""
        if offset < layout.literal_base:
            return layout.locate(offset)[0], None
        if offset == layout.discard:
            return None, 0.0
        return None, layout.literals[offset - layout.literal_base]

    program = HostTransferProgram(channel=channel)
    for (array, literal), run in itertools.groupby(offsets.tolist(), source):
        words = list(run)
        if array is None:
            program.ops.append(LiteralRun(literal, len(words)))
        else:
            base = layout.spans[array][0]
            program.ops.extend(_block_runs(array, [w - base for w in words]))
    return program


def lower_input_program(
    host: HostProgram, channel: Channel
) -> HostTransferProgram:
    """The feed of one channel as transfer descriptors."""
    return compress_offsets(channel, host.feed(channel), host.layout)


def lower_output_program(
    host: HostProgram, channel: Channel
) -> HostTransferProgram:
    """The collection of one channel as transfer descriptors (discards
    become literal runs of 0.0 — the I/O processor still clocks them)."""
    return compress_offsets(channel, host.collection(channel), host.layout)


@dataclass(frozen=True)
class TransferStatistics:
    """How compactly a channel's sequence was expressed."""

    words: int
    descriptors: int

    @property
    def compression(self) -> float:
        return self.words / max(self.descriptors, 1)


def transfer_statistics(program: HostTransferProgram) -> TransferStatistics:
    return TransferStatistics(
        words=program.total_words, descriptors=len(program.ops)
    )
