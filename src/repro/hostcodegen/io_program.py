"""Host I/O processor programs (Sections 2.2, 4.2, 6.1).

"The I/O processors in the Warp host must be programmed to supply input
in the exact sequence as the data is used in the Warp cells."  The host
code generator derives that sequence from the ``external`` arguments of
the first cell's receives, and symmetrically derives where to store each
value the last cell sends.

Every external index is affine in the loop indices (the description the
five-vector model of Section 6.2 uses), so each channel's feed and
collection is one ``int64`` array of word offsets into the host memory
(:class:`HostLayout`), one :func:`~repro.timing.events.walk_events` of
the loop tree: the simulator feeds with one gather and collects with
one scatter.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..cellcodegen.emit import CellCode, ScheduledBlock, block_runs
from ..errors import HostDataError
from ..ir.builder import CellProgramIR, IOStatement
from ..ir.dag import OpKind
from ..lang.ast import Channel, Direction
from ..timing.events import walk_events


#: The (kind, direction) of the host's feed and of its collection.
_FEED = (OpKind.RECV, Direction.LEFT)
_COLLECTION = (OpKind.SEND, Direction.RIGHT)


class HostLayout:
    """The host word numbering: host arrays row-major in declaration
    order, then the distinct ``literals`` (the words the IU synthesises),
    then one ``discard`` slot that absorbs unbound outputs."""

    def __init__(
        self,
        shapes: dict[str, tuple[int, ...]],
        literals: tuple[float, ...] = (),
    ):
        self.literals = literals
        #: ``name -> (first word, element count)``.
        self.spans: dict[str, tuple[int, int]] = {}
        base = 0
        for name, dims in shapes.items():
            self.spans[name] = (base, math.prod(dims))
            base += math.prod(dims)
        self.literal_base = base
        # Literals are distinct by bit pattern, so -0.0 keeps its word.
        self._literal_words = {v.hex(): base + k for k, v in enumerate(literals)}
        self.discard = base + len(literals)
        self.words = self.discard + 1

    def literal_word(self, value: float) -> int:
        """The word that holds the literal ``value``."""
        return self._literal_words[value.hex()]

    def locate(self, offset: int) -> tuple[str, int]:
        """The host array element ``(name, flat index)`` of an array word."""
        for name, (base, size) in self.spans.items():
            if base <= offset < base + size:
                return name, offset - base
        raise ValueError(f"word {offset} is not a host array element")


class HostProgram:
    """Input-supply and output-collection offsets for one module."""

    def __init__(self, code: CellCode, ir: CellProgramIR):
        self._code = code
        self._io = {stmt.io_index: stmt for stmt in ir.io_statements}
        literals: dict[str, float] = {}
        for stmt in ir.io_statements:
            if (stmt.kind, stmt.direction) != _FEED:
                continue
            if stmt.external_literal is not None:
                literals[stmt.external_literal.hex()] = stmt.external_literal
            elif stmt.external_array is None:
                # Cell 0 executes the same statement as everyone else,
                # and the host must know what to feed it.
                raise HostDataError(
                    f"receive statement {stmt.io_index} has no external "
                    "source; the host cannot feed the first cell"
                )
        self.layout = HostLayout(ir.host_arrays, tuple(literals.values()))

    def feed(self, channel: Channel) -> np.ndarray:
        """The words the host feeds into cell 0's ``channel`` queue, in
        order, as offsets into :attr:`layout`.  Raises
        :class:`~repro.errors.HostDataError` naming the first word that
        lies outside its host array."""
        return self._offsets((*_FEED, channel), "input reference")

    def collection(self, channel: Channel) -> np.ndarray:
        """Where each of the last cell's sends on ``channel`` lands, in
        order, as offsets into :attr:`layout` (unbound sends land in the
        discard slot).  Raises like :meth:`feed`."""
        return self._offsets((*_COLLECTION, channel), "output binding")

    def input_count(self, channel: Channel) -> int:
        """``len(feed(channel))``, counted statically."""
        return self._count((*_FEED, channel))

    def output_count(self, channel: Channel) -> int:
        """``len(collection(channel))``, counted statically."""
        return self._count((*_COLLECTION, channel))

    # Closed form ----------------------------------------------------------

    def _statements(self, block: ScheduledBlock, stream: tuple) -> list:
        """The statements of ``block``'s events on ``stream``, in order
        (an unknown statement raises ``KeyError``)."""
        return [
            self._io[event.io_index]
            for event in block.io_events
            if (event.kind, event.queue.direction, event.queue.channel)
            == stream
        ]

    def _count(self, stream: tuple) -> int:
        """Matching events per block times the block's runs, never the
        offsets themselves."""
        return sum(
            runs * len(self._statements(block, stream))
            for block, runs in block_runs(self._code.items)
        )

    def _offsets(self, stream: tuple, what: str) -> np.ndarray:
        layout = self.layout

        def offset(stmt: IOStatement, env: dict) -> "np.ndarray | int":
            if stmt.external_array is None:
                if stmt.kind is OpKind.RECV:
                    return layout.literal_word(stmt.external_literal)
                return layout.discard
            index = stmt.external_index.evaluate(env)
            base, size = layout.spans.get(stmt.external_array, (0, 0))
            inside = (0 <= index) & (index < size)
            return np.where(inside, base + index, -1 - stmt.io_index)

        offsets = self._stream(stream, offset)
        bad = np.flatnonzero(offsets < 0)
        if bad.size:
            # Rare, so the raw index is found by evaluating again.
            stmt = self._io[-1 - int(offsets[bad[0]])]
            index = self._stream(
                stream,
                lambda s, env: s.external_index.evaluate(env)
                if s.external_index is not None
                else 0,
            )[bad[0]]
            raise HostDataError(
                f"{what} {stmt.external_array}[{index}] is out of bounds"
            )
        return offsets

    def _stream(
        self, stream: tuple, word: Callable[[IOStatement, dict], object]
    ) -> np.ndarray:
        """``word(statement, env)`` of every event on ``stream``, in
        order, each statement evaluated once over its loop nest's index
        grids (:func:`~repro.timing.events.walk_events`)."""

        def rows(block: ScheduledBlock, env: dict) -> list[list]:
            return [[word(s, env) for s in self._statements(block, stream)]]

        return walk_events(self._code.items, rows, (False,))[0]


def generate_host_program(code: CellCode, ir: CellProgramIR) -> HostProgram:
    """Build the host I/O program for scheduled cell code."""
    return HostProgram(code, ir)
