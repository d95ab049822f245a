"""Host I/O processor code generation."""

from .io_program import HostLayout, HostProgram, generate_host_program
from .lower import (
    BlockTransfer,
    HostTransferProgram,
    LiteralRun,
    compress_offsets,
    lower_input_program,
    lower_output_program,
    transfer_statistics,
)

__all__ = [
    "BlockTransfer",
    "HostLayout",
    "HostProgram",
    "HostTransferProgram",
    "LiteralRun",
    "compress_offsets",
    "generate_host_program",
    "lower_input_program",
    "lower_output_program",
    "transfer_statistics",
]
