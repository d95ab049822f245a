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

The four streams' facts (timing functions, event times and their
statements) come from one characterisation walk and one event walk per
verification and are shared by every check; the closed forms of every
statement are evaluated in one pass over whole arrays.
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
from ..timing.events import walk_streams
from ..timing.skew import SkewResult, channel_skew_bound
from ..timing.tau import TimingFunction, evaluate_domains
from ..timing.vectors import (
    Stream,
    characterize_streams,
    input_stream,
    output_stream,
)
from .report import VerificationReport

#: How many dynamic events (IU emissions, stream events) the ``full``
#: level enumerates before it skips a dynamic check and notes the skip.
#: Default conv2d, the largest bundled program, needs 524,288.
MAX_EVENTS = 1_000_000

#: How many events a stream's statements may promise before ``full``
#: skips the stream's tau(n) closed-form check and notes the skip.
TAU_BUDGET = 20_000

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
    #: The events those statements promise in all.
    promised: int
    #: Cycle and statement ``io_index`` of every dynamic event, in stream
    #: order; None when the channel exceeds the enumeration budget.
    times: np.ndarray | None
    statements: np.ndarray | None


def _channel_facts(
    code: CellCode,
) -> dict[Channel, tuple[StreamFacts, StreamFacts]]:
    """The (sends, receives) facts of each channel, from one
    characterisation walk and one event walk for all four streams.  A
    channel with a stream over :data:`MAX_EVENTS` is characterised but
    not walked."""
    pairs = {
        channel: (output_stream(channel), input_stream(channel))
        for channel in (Channel.X, Channel.Y)
    }
    streams = [stream for pair in pairs.values() for stream in pair]
    chars = dict(zip(streams, characterize_streams(code, streams)))
    promised = {s: sum(char.total_executions for char in chars[s]) for s in streams}
    walked = [
        stream
        for pair in pairs.values()
        if max(promised[s] for s in pair) <= MAX_EVENTS
        for stream in pair
    ]
    events = dict(zip(walked, walk_streams(code, walked, labelled=True)))
    facts = {
        stream: StreamFacts(
            stream,
            [TimingFunction(char) for char in chars[stream]],
            promised[stream],
            *events.get(stream, (None, None)),
        )
        for stream in streams
    }
    return {
        channel: (facts[sends], facts[recvs])
        for channel, (sends, recvs) in pairs.items()
    }


def check_streams(
    code: CellCode,
    emissions: np.ndarray | None,
    host: HostProgram,
    skew_result: SkewResult,
    buffers: list[BufferRequirement],
    config: WarpConfig,
    n_cells: int,
    report: VerificationReport,
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
    channels = _channel_facts(code)
    tau_failures = _tau_failures(
        [
            facts
            for pair in channels.values()
            if pair[0].times is not None
            for facts in pair
            if facts.promised <= TAU_BUDGET
        ]
    )
    for channel, (sends, recvs) in channels.items():
        if sends.times is None or recvs.times is None:
            report.notes.append(
                f"channel {channel}: event streams exceed the "
                f"{MAX_EVENTS} budget; exact stream checks skipped"
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
            if facts.promised > TAU_BUDGET:
                report.notes.append(
                    f"stream {facts.stream}: {facts.promised} events exceed "
                    f"the tau budget of {TAU_BUDGET}; closed-form check skipped"
                )
            for message in tau_failures.get(facts.stream, ()):
                report.add("tau.closed_form", message, channel=str(channel))
    if n_cells > 1:
        _check_address_queue(emissions, skew_result, config, n_cells, report)


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
) -> None:
    """The address FIFO of the most-delayed cell: emissions enter at
    ``emit + i*hop`` and leave at ``deadline + i*skew``; with skew >=
    hop, the last cell sees the worst backlog."""
    if emissions is None:
        report.notes.append(
            f"address path: more than {MAX_EVENTS} emissions; "
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


def _tau_failures(streams: list[StreamFacts]) -> dict[Stream, list[str]]:
    """tau(n) closed forms vs. the enumerated event times, per statement
    and over the statement's entire ordinal domain, for every statement
    of ``streams`` in one :func:`evaluate_domains` pass: each statement
    is compared with its own events (those of its stream labelled with
    its ``io_index``, in stream order).  Returns each stream's failure
    messages, in statement order."""
    failures: dict[Stream, list[str]] = {facts.stream: [] for facts in streams}
    chars = [tau.char for facts in streams for tau in facts.timing]
    if not chars:
        return failures
    owner, _domain, evaluated = evaluate_domains(chars)
    sizes = np.bincount(owner, minlength=len(chars))
    starts = np.cumsum(sizes) - sizes
    # Each statement's events are one slice of all events sorted by
    # (stream, statement).
    stream_of = np.repeat(
        np.arange(len(streams)), [len(facts.timing) for facts in streams]
    )
    stream_ids = np.repeat(
        np.arange(len(streams)), [facts.times.size for facts in streams]
    )
    labels = np.concatenate([facts.statements for facts in streams])
    order = np.lexsort((labels, stream_ids))
    stream_ids, labels = stream_ids[order], labels[order]
    executed = np.concatenate([facts.times for facts in streams])[order]
    heads = np.ones(len(labels), dtype=bool)
    heads[1:] = (stream_ids[1:] != stream_ids[:-1]) | (labels[1:] != labels[:-1])
    bounds = np.flatnonzero(np.append(heads, True)).tolist()
    slices = {
        (int(stream_ids[a]), int(labels[a])): (a, b - a)
        for a, b in zip(bounds, bounds[1:])
    }
    first, counts = np.array(
        [
            slices.get((s, char.io_index), (0, 0))
            for s, char in zip(stream_of.tolist(), chars)
        ],
        np.int64,
    ).T
    # Statements whose whole promised domain lines up one to one with
    # their events are compared element by element, all at once.
    aligned = (counts == sizes) & np.array(
        [size == char.total_executions for size, char in zip(sizes.tolist(), chars)]
    )
    positions = np.flatnonzero(np.repeat(aligned, sizes))
    events = positions + np.repeat(first - starts, sizes)[positions]
    differs = np.zeros(len(chars), dtype=bool)
    differs[owner[positions][evaluated[positions] != executed[events]]] = True
    for c in np.flatnonzero((counts == 0) | ~aligned | differs).tolist():
        char, size = chars[c], int(sizes[c])
        stream = streams[stream_of[c]].stream
        if counts[c] == 0:
            message = (
                f"statement {char.io_index} of {stream} never "
                "executes in the schedule but its characterisation "
                f"promises {char.total_executions} executions"
            )
        elif size != char.total_executions:
            message = (
                f"statement {char.io_index} of {stream}: domain has "
                f"{size} ordinals but the characterisation "
                f"promises {char.total_executions} executions"
            )
        else:
            ours = evaluated[starts[c] : starts[c] + size]
            theirs = executed[first[c] : first[c] + counts[c]]
            message = (
                f"statement {char.io_index} of {stream}: tau(n) "
                f"yields {ours[:8].tolist()}... but the schedule "
                f"executes at {theirs[:8].tolist()}..."
            )
        failures[stream].append(message)
    return failures
