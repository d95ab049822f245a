"""Stream conservation, skew, queue occupancy and tau(n) verification.

All checks re-derive the event streams from the emitted ``CellCode``
(whose ``io_events`` the replay stage already proved identical to the
instruction words) and compare:

* **conservation** — per channel, a cell's receives never exceed its
  left neighbour's sends, and the host program feeds/collects exactly
  the counts the schedule consumes/produces (host -> cells ->
  collector);
* **skew** — the chosen inter-cell skew covers the exact per-channel
  minimum (re-enumerated from scratch), respects the floor of 1 that
  keeps the address path ahead, and the paper's closed-form bound
  dominates the exact method (Section 6.2.1);
* **occupancy** — re-derived queue occupancy at the chosen skew matches
  the declared :class:`BufferRequirement` and fits ``queue_depth``; the
  address-path queue of the most-skewed cell fits
  ``address_queue_depth`` (Section 6.2.2);
* **tau** — every statement's closed-form tau(n) reproduces the
  enumerated event times over its whole domain (Section 6.2.1).

Each stream's facts (timing functions, event times and their
statements) are derived once per verification and shared by every
check; the closed forms are evaluated over whole arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cellcodegen.emit import CellCode
from ..config import WarpConfig
from ..errors import MappingError
from ..hostcodegen.io_program import HostProgram
from ..lang.ast import Channel
from ..timing.buffers import BufferRequirement, occupancy_requirement
from ..timing.events import TooManyEventsError, group_by_statement, stream_events
from ..timing.skew import SkewResult, channel_skew_bound
from ..timing.tau import TimingFunction
from ..timing.vectors import Stream, characterize_stream, input_stream, output_stream
from .report import VerificationReport

#: How many dynamic events (IU emissions, stream events) the ``full``
#: level enumerates before it skips a dynamic check and notes the skip.
#: Default conv2d, the largest bundled program, needs 524,288.
MAX_EVENTS = 1_000_000

STREAM_CHECKS = (
    "stream.conservation",
    "stream.host_counts",
    "skew.floor",
    "skew.exact",
    "skew.bound_dominates",
    "skew.channel_counts",
    "occupancy.queue_depth",
    "occupancy.declared",
    "occupancy.address_queue",
    "tau.closed_form",
)


@dataclass(frozen=True)
class StreamFacts:
    """What the stream checks read of one stream, derived once per
    verification from the cell code."""

    stream: Stream
    #: One per static statement, in program order.
    timing: list[TimingFunction]
    #: Cycle and statement ``io_index`` of every dynamic event, in stream
    #: order; None when the stream exceeds the enumeration budget.
    times: np.ndarray | None
    statements: np.ndarray | None


def _stream_facts(
    code: CellCode, stream: Stream, max_events: int | None
) -> StreamFacts:
    timing = [TimingFunction(c) for c in characterize_stream(code, stream)]
    try:
        times, statements = stream_events(code, stream, max_events)
    except TooManyEventsError:
        times = statements = None
    return StreamFacts(stream, timing, times, statements)


def check_streams(
    code: CellCode,
    emissions: np.ndarray | None,
    host: HostProgram,
    skew_result: SkewResult,
    buffers: list[BufferRequirement],
    config: WarpConfig,
    n_cells: int,
    report: VerificationReport,
    max_events: int | None = MAX_EVENTS,
    tau_budget: int = 20_000,
) -> None:
    for check in STREAM_CHECKS:
        report.ran(check)
    if skew_result.skew < 1:
        report.add(
            "skew.floor",
            f"chosen skew {skew_result.skew} is below the floor of 1 "
            "that keeps the address path one hop ahead",
        )
    declared_buffers = {str(b.channel): b for b in buffers}
    for channel in (Channel.X, Channel.Y):
        sends = _stream_facts(code, output_stream(channel), max_events)
        recvs = _stream_facts(code, input_stream(channel), max_events)
        if sends.times is None or recvs.times is None:
            report.notes.append(
                f"channel {channel}: event streams exceed the "
                f"{max_events} budget; exact stream checks skipped"
            )
            continue
        _check_host_counts(host, channel, sends.times, recvs.times, report)
        if n_cells > 1:
            _check_channel(
                channel,
                sends,
                recvs,
                skew_result,
                declared_buffers.get(str(channel)),
                config,
                report,
            )
        for facts in (recvs, sends):
            _check_tau(channel, facts, report, tau_budget)
    if n_cells > 1:
        _check_address_queue(
            emissions, skew_result, config, n_cells, report, max_events
        )


def _check_host_counts(
    host: HostProgram,
    channel: Channel,
    sends: np.ndarray,
    recvs: np.ndarray,
    report: VerificationReport,
) -> None:
    """Host -> cell 0 and last cell -> collector conservation: the host
    program must feed/collect exactly what the schedule moves."""
    try:
        fed = host.input_count(channel)
        collected = host.output_count(channel)
    except KeyError as error:
        report.add(
            "stream.host_counts",
            f"host program references unknown I/O statement {error} — "
            "the schedule and the host sequences have diverged",
            channel=str(channel),
        )
        return
    if fed != recvs.size:
        report.add(
            "stream.host_counts",
            f"the host feeds {fed} items but cell 0's schedule receives "
            f"{recvs.size}",
            channel=str(channel),
        )
    if collected != sends.size:
        report.add(
            "stream.host_counts",
            f"the host collects {collected} items but the last cell's "
            f"schedule sends {sends.size}",
            channel=str(channel),
        )


def _check_channel(
    channel: Channel,
    send_facts: StreamFacts,
    recv_facts: StreamFacts,
    skew_result: SkewResult,
    declared: BufferRequirement | None,
    config: WarpConfig,
    report: VerificationReport,
) -> None:
    sends, recvs = send_facts.times, recv_facts.times
    if recvs.size > sends.size:
        report.add(
            "stream.conservation",
            f"a cell receives {recvs.size} items from its left "
            f"neighbour but the neighbour only sends {sends.size}",
            channel=str(channel),
        )
        return
    try:
        entry = skew_result.channel(channel)
    except KeyError:
        report.add(
            "skew.channel_counts",
            "the skew result carries no entry for this channel",
            channel=str(channel),
        )
        entry = None
    if entry is not None and (
        entry.n_sends != sends.size or entry.n_receives != recvs.size
    ):
        report.add(
            "skew.channel_counts",
            f"skew report claims {entry.n_sends} sends / "
            f"{entry.n_receives} receives, the schedule has "
            f"{sends.size} / {recvs.size}",
            channel=str(channel),
        )
    exact = 0
    if recvs.size:
        exact = max(0, int((sends[: recvs.size] - recvs).max()))
        if skew_result.skew < exact:
            report.add(
                "skew.exact",
                f"chosen skew {skew_result.skew} underflows: the exact "
                f"per-channel minimum re-derived from the schedule is "
                f"{exact}",
                channel=str(channel),
            )
        try:
            bound = channel_skew_bound(
                channel, send_facts.timing, recv_facts.timing
            )
        except MappingError as error:
            report.add(
                "skew.bound_dominates",
                f"closed-form bound rejects the channel: {error}",
                channel=str(channel),
            )
        else:
            if bound.skew < exact:
                report.add(
                    "skew.bound_dominates",
                    f"closed-form bound {bound.skew} is below the exact "
                    f"minimum {exact} — the bound method is unsound here",
                    channel=str(channel),
                )
    occupancy = occupancy_requirement(sends, recvs, skew_result.skew)
    if occupancy > config.queue_depth:
        report.add(
            "occupancy.queue_depth",
            f"needs a queue of {occupancy} words at skew "
            f"{skew_result.skew} (capacity {config.queue_depth})",
            channel=str(channel),
        )
    if sends.size or recvs.size:
        if declared is None:
            report.add(
                "occupancy.declared",
                "no declared buffer requirement for an active channel",
                channel=str(channel),
            )
        elif (
            declared.required != occupancy
            or declared.skew != skew_result.skew
        ):
            report.add(
                "occupancy.declared",
                f"declared requirement {declared.required} words at skew "
                f"{declared.skew}, re-derived {occupancy} words at skew "
                f"{skew_result.skew}",
                channel=str(channel),
            )


def _check_address_queue(
    emissions: np.ndarray | None,
    skew_result: SkewResult,
    config: WarpConfig,
    n_cells: int,
    report: VerificationReport,
    max_events: int | None,
) -> None:
    """The address FIFO of the most-delayed cell: emissions enter at
    ``emit + i*hop`` and leave at ``deadline + i*skew``; with skew >=
    hop, the last cell sees the worst backlog."""
    if emissions is None:
        report.notes.append(
            f"address path: more than {max_events} emissions; "
            "address-queue occupancy check skipped"
        )
        return
    if not emissions.size:
        return
    relative = (n_cells - 1) * (
        skew_result.skew - config.address_hop_latency
    )
    occupancy = occupancy_requirement(
        emissions[:, 0], emissions[:, 1], max(relative, 0)
    )
    if occupancy > config.address_queue_depth:
        report.add(
            "occupancy.address_queue",
            f"the last cell's address queue needs {occupancy} words "
            f"(capacity {config.address_queue_depth})",
        )


def _check_tau(
    channel: Channel,
    facts: StreamFacts,
    report: VerificationReport,
    tau_budget: int,
) -> None:
    """tau(n) closed forms vs. the enumerated event times, per statement
    and over the statement's entire ordinal domain."""
    stream = facts.stream
    if not facts.timing:
        return
    total = sum(tau.char.total_executions for tau in facts.timing)
    if total > tau_budget:
        report.notes.append(
            f"stream {stream}: {total} events exceed the tau budget "
            f"of {tau_budget}; closed-form check skipped"
        )
        return
    per_statement = group_by_statement(facts.times, facts.statements)
    for tau in facts.timing:
        char = tau.char
        times = per_statement.get(char.io_index)
        if times is None:
            report.add(
                "tau.closed_form",
                f"statement {char.io_index} of {stream} never "
                "executes in the schedule but its characterisation "
                f"promises {char.total_executions} executions",
                channel=str(channel),
            )
            continue
        domain, evaluated = tau.evaluate_domain()
        if domain.size != char.total_executions:
            report.add(
                "tau.closed_form",
                f"statement {char.io_index} of {stream}: domain has "
                f"{domain.size} ordinals but the characterisation "
                f"promises {char.total_executions} executions",
                channel=str(channel),
            )
            continue
        if not np.array_equal(evaluated, times):
            report.add(
                "tau.closed_form",
                f"statement {char.io_index} of {stream}: tau(n) "
                f"yields {evaluated[:8].tolist()}... but the schedule "
                f"executes at {times[:8].tolist()}...",
                channel=str(channel),
            )
