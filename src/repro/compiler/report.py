"""Compilation reports: computation decomposition and metrics tables.

The decomposition report quantifies how the compiler split the program
between the three processors (Section 6.1's computation decomposition
phase): data-independent address computation moves to the IU, I/O
sequencing moves to the host, everything else stays on the cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang.ast import Channel
from .driver import CompiledProgram, CompileMetrics


@dataclass(frozen=True)
class DecompositionReport:
    """Where the computation went."""

    cell_instructions: int
    iu_instructions: int
    #: Memory references whose address comes from the IU's address path
    #: (static count in the microcode).
    iu_supplied_addresses: int
    #: Memory references with compile-time constant addresses.
    literal_addresses: int
    #: Items the host feeds per run (X + Y).
    host_inputs: int
    #: Items the host stores per run (X + Y).
    host_outputs: int
    #: Host I/O processor descriptors (block transfers + literal runs)
    #: needed to express the feed and the collection.
    host_descriptors: int = 0


def decomposition_report(program: CompiledProgram) -> DecompositionReport:
    queue_addressed = 0
    literal_addressed = 0
    for block in program.cell_code.blocks():
        for instr in block.instructions:
            for mem in instr.mem:
                if mem.address is None:
                    queue_addressed += 1
                else:
                    literal_addressed += 1
    host = program.host_program
    host_inputs = host.input_count(Channel.X) + host.input_count(Channel.Y)
    host_outputs = sum(
        int((host.collection(channel) != host.layout.discard).sum())
        for channel in (Channel.X, Channel.Y)
    )
    from ..hostcodegen import lower_input_program, lower_output_program

    descriptors = 0
    for channel in (Channel.X, Channel.Y):
        descriptors += len(lower_input_program(host, channel).ops)
        descriptors += len(lower_output_program(host, channel).ops)
    return DecompositionReport(
        cell_instructions=program.cell_code.n_instructions,
        iu_instructions=program.iu_program.n_instructions,
        iu_supplied_addresses=queue_addressed,
        literal_addresses=literal_addressed,
        host_inputs=host_inputs,
        host_outputs=host_outputs,
        host_descriptors=descriptors,
    )


def format_metrics_table(rows: list[CompileMetrics]) -> str:
    """Render a Table 7-1 style report."""
    header = (
        f"{'Name':<14} {'W2 Lines':>8} {'Cell ucode':>10} "
        f"{'IU ucode':>8} {'Compile time':>13} {'Skew':>5}"
    )
    lines = [header, "-" * len(header)]
    for m in rows:
        lines.append(
            f"{m.module_name:<14} {m.w2_lines:>8} {m.cell_ucode:>10} "
            f"{m.iu_ucode:>8} {m.compile_seconds:>11.3f} s {m.skew:>5}"
        )
    return "\n".join(lines)
