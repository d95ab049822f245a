"""Compile-time synchronisation: the timing theory of Section 6.2.

Five-vector characterisation of I/O statements, closed-form timing
functions, minimum-skew computation (exact, and the paper's bound that
the verifier checks), and queue-overflow (minimum buffer size) analysis,
both from one walk of each channel's streams.
"""

from .buffers import (
    BufferRequirement,
    check_buffers,
    minimum_buffer_sizes,
    occupancy_requirement,
)
from .events import (
    TooManyEventsError,
    stream_event_times,
    stream_times_by_statement,
)
from .skew import (
    ChannelSkew,
    SkewResult,
    compute_skew,
    minimum_skew_bound,
    minimum_skew_exact,
)
from .tau import LinearForm, LinearTerm, TimingFunction, max_time_difference_bound
from .variable_skew import (
    VariableSkewPlan,
    plan_variable_skew,
    receive_delays,
)
from .vectors import (
    IOCharacterization,
    Stream,
    characterize_stream,
    count_stream_events,
    input_stream,
    output_stream,
)

__all__ = [
    "BufferRequirement",
    "ChannelSkew",
    "IOCharacterization",
    "LinearForm",
    "LinearTerm",
    "SkewResult",
    "Stream",
    "TimingFunction",
    "TooManyEventsError",
    "VariableSkewPlan",
    "characterize_stream",
    "check_buffers",
    "compute_skew",
    "count_stream_events",
    "input_stream",
    "max_time_difference_bound",
    "minimum_buffer_sizes",
    "minimum_skew_bound",
    "minimum_skew_exact",
    "occupancy_requirement",
    "output_stream",
    "plan_variable_skew",
    "receive_delays",
    "stream_event_times",
    "stream_times_by_statement",
]
