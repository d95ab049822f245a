"""Host I/O processor programs (Sections 2.2, 4.2, 6.1).

"The I/O processors in the Warp host must be programmed to supply input
in the exact sequence as the data is used in the Warp cells."  The host
code generator derives that sequence from the ``external`` arguments of
the first cell's receives, and symmetrically derives where to store each
value the last cell sends.

The program is kept in loop-tree form (mirroring the cell schedule) and
expanded lazily: :meth:`HostProgram.input_sequence` yields, in order,
what to feed into cell 0's queues, and :meth:`HostProgram.output_bindings`
yields where each last-cell output lands in host memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from ..cellcodegen.emit import CellCode, ScheduledBlock, ScheduledLoop
from ..errors import HostDataError
from ..ir.builder import IOStatement
from ..ir.dag import OpKind
from ..lang.ast import Channel, Direction


@dataclass(frozen=True)
class HostValueRef:
    """One input item: a host array element or a literal the IU
    synthesises."""

    array: str | None
    flat_index: int | None
    literal: float | None

    @property
    def is_literal(self) -> bool:
        return self.literal is not None


@dataclass(frozen=True)
class HostBinding:
    """One output item: the host location to store into (or discard)."""

    array: str | None
    flat_index: int | None

    @property
    def is_discard(self) -> bool:
        return self.array is None


class HostProgram:
    """Input-supply and output-collection sequences for one module."""

    def __init__(self, code: CellCode, io_statements: list[IOStatement]):
        self._code = code
        self._io = {stmt.io_index: stmt for stmt in io_statements}
        self._validate()

    def _validate(self) -> None:
        """Every receive-from-left must name its host source — cell 0
        executes the same statement as everyone else, and the host must
        know what to feed it."""
        for stmt in self._io.values():
            if (
                stmt.kind is OpKind.RECV
                and stmt.direction is Direction.LEFT
                and stmt.external_array is None
                and stmt.external_literal is None
            ):
                raise HostDataError(
                    f"receive statement {stmt.io_index} has no external "
                    "source; the host cannot feed the first cell"
                )

    # Sequences ------------------------------------------------------------

    def input_sequence(self, channel: Channel) -> Iterator[HostValueRef]:
        """What the host feeds into cell 0's ``channel`` queue, in order."""
        yield from self._walk(
            kind=OpKind.RECV, direction=Direction.LEFT, channel=channel
        )

    def output_bindings(self, channel: Channel) -> Iterator[HostBinding]:
        """Where the last cell's sends on ``channel`` land, in order."""
        for ref in self._walk(
            kind=OpKind.SEND, direction=Direction.RIGHT, channel=channel
        ):
            yield HostBinding(array=ref.array, flat_index=ref.flat_index)

    def input_count(self, channel: Channel) -> int:
        """``len(list(input_sequence(channel)))``, counted statically."""
        return self._count(OpKind.RECV, Direction.LEFT, channel)

    def output_count(self, channel: Channel) -> int:
        """``len(list(output_bindings(channel)))``, counted statically."""
        return self._count(OpKind.SEND, Direction.RIGHT, channel)

    # Walk -------------------------------------------------------------------

    def _count(self, kind: OpKind, direction: Direction, channel: Channel) -> int:
        """Matching events per block times the enclosing loop trips.  Every
        matching event's statement is still looked up, so a sequence that
        names an unknown statement raises ``KeyError`` like the walk."""

        def count(items) -> int:
            total = 0
            for item in items:
                if isinstance(item, ScheduledBlock):
                    for event in item.io_events:
                        if (
                            event.kind is kind
                            and event.queue.direction is direction
                            and event.queue.channel is channel
                        ):
                            self._io[event.io_index]
                            total += 1
                else:
                    total += item.trip * count(item.body)
            return total

        return count(self._code.items)

    def _walk(
        self, kind: OpKind, direction: Direction, channel: Channel
    ) -> Iterator[HostValueRef]:
        env: dict[str, int] = {}

        def visit(items) -> Iterator[HostValueRef]:
            for item in items:
                if isinstance(item, ScheduledBlock):
                    for event in item.io_events:
                        if event.kind is not kind:
                            continue
                        if (
                            event.queue.direction is not direction
                            or event.queue.channel is not channel
                        ):
                            continue
                        yield self._resolve(self._io[event.io_index], env)
                else:
                    assert isinstance(item, ScheduledLoop)
                    for i in range(item.trip):
                        env[item.var] = item.start + i * item.step
                        yield from visit(item.body)
                    env.pop(item.var, None)

        yield from visit(self._code.items)

    @staticmethod
    def _resolve(stmt: IOStatement, env: dict[str, int]) -> HostValueRef:
        if stmt.external_literal is not None:
            return HostValueRef(None, None, stmt.external_literal)
        if stmt.external_array is not None:
            assert stmt.external_index is not None
            return HostValueRef(
                stmt.external_array, stmt.external_index.evaluate(env), None
            )
        return HostValueRef(None, None, None)


def generate_host_program(
    code: CellCode, io_statements: list[IOStatement]
) -> HostProgram:
    """Build the host I/O program for scheduled cell code."""
    return HostProgram(code, io_statements)
