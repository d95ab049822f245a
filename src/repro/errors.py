"""Errors raised by the compiler back end and the machine simulator.

Front-end (lexical/syntactic/semantic) errors live in
:mod:`repro.lang.errors`; everything after IR construction reports
through the classes below.
"""

from __future__ import annotations


class CompilationError(Exception):
    """Base class for back-end compilation failures."""


class MappingError(CompilationError):
    """The program cannot be mapped onto the skewed computation model
    (e.g. bidirectional communication, Section 5.1.1)."""


class RegisterPressureError(CompilationError):
    """A schedule needs more live registers than the cell provides."""

    def __init__(self, needed: int, available: int):
        self.needed = needed
        self.available = available
        super().__init__(
            f"schedule needs {needed} registers, only {available} available"
        )


class MemoryOverflowError(CompilationError):
    """Cell data memory (4K words) exhausted by the program's arrays."""


class QueueOverflowError(CompilationError):
    """A channel queue would exceed its capacity.

    Section 6.2.2: "The queue overflow problem is currently only detected
    and reported."  We follow the paper: report, with the required size.
    """

    def __init__(self, channel: str, required: int, capacity: int):
        self.channel = channel
        self.required = required
        self.capacity = capacity
        super().__init__(
            f"channel {channel} needs a queue of {required} words "
            f"(capacity {capacity}); re-block the program or enlarge the "
            "queues in WarpConfig"
        )


class VerificationError(CompilationError):
    """The independent schedule verifier rejected the emitted artifacts.

    Carries the full :class:`~repro.verify.VerificationReport`; the
    message shows the first few diagnostics.
    """

    def __init__(self, report):
        self.report = report
        super().__init__(
            f"schedule verification failed with "
            f"{len(report.diagnostics)} diagnostic(s): {report.summary()}"
        )


class IUDeadlineError(CompilationError):
    """The IU cannot produce an address by its deadline even via the
    table-memory escape (Section 6.3.2)."""


class TableOverflowError(CompilationError):
    """The IU's 32K sequential table memory is exhausted."""


class SimulationError(Exception):
    """Base class for run-time failures detected by the simulator."""


class QueueUnderflowError(SimulationError):
    """A cell dequeued from an empty queue — the compiler's skew or the
    IU schedule failed to guarantee data availability."""


class QueueCapacityError(SimulationError):
    """A queue exceeded its capacity at run time."""


class HostDataError(SimulationError):
    """The host feeder was asked for data it does not have."""


# Fault taxonomy ----------------------------------------------------------
#
# The runtime detection/recovery layer (:mod:`repro.faults`,
# :mod:`repro.exec.batch`) classifies every failure it sees into one of
# three families.  The classification drives the batch engine's retry
# policy: transient faults are retried at once, fatal faults fail
# the item immediately, and detected corruption is retried (the fault
# that caused it may have been transient) but never silently returned.


class FaultError(SimulationError):
    """Base class for failures raised by the fault detection layer."""


class TransientFault(FaultError):
    """A failure that a retry may clear (a crashed or hung worker, an
    injected transient fault).  The batch engine retries these up to
    ``max_retries`` times."""


class FatalFault(FaultError):
    """A failure that retrying cannot clear (a structural violation
    such as a cell running past its watchdog deadline on every
    attempt).  The batch engine fails the item immediately."""


class SilentCorruptionDetected(FaultError):
    """An integrity check caught data that would otherwise have been
    silently wrong: a queue word whose stored bits no longer match the
    bits that were enqueued, or an inter-cell stream whose item count
    diverged from the compiler's static send/receive schedule."""


class CellHangError(FatalFault):
    """A cell's watchdog deadline expired: the cell ran more than
    ``WarpConfig.watchdog_slack`` cycles past its statically predicted
    completion cycle (a stalled or hung cell, caught as a structured
    diagnostic instead of a silent timing corruption)."""


class WorkerCrashError(TransientFault):
    """A batch worker process died while running an item."""


class ItemTimeoutError(TransientFault):
    """A batch item exceeded its per-item timeout (a hung worker or a
    runaway simulation)."""
