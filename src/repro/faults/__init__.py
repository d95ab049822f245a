"""``repro.faults`` — deterministic fault injection and detection.

The paper's compile-time synchronisation assumes a perfectly reliable
array: Warp had no runtime flow control, so an undersized queue or a
stalled cell silently corrupts results (Sections 6.2, 6.2.2).  This
package makes the reproduction *demonstrate* at runtime that its static
bounds are tight and that the engine fails loudly, never silently:

* :mod:`repro.faults.plan` — :class:`InjectionPlan` /
  :class:`FaultSpec`, a seedable, serialisable description of which
  faults to inject where (dropped/duplicated sends, bit flips in queue
  slots, stalled cells, shrunk queues, corrupted cache entries,
  killed/hung batch workers);
* :mod:`repro.faults.injector` — :class:`FaultInjector`, the runtime
  layer threaded through :mod:`repro.machine` and :mod:`repro.exec`,
  plus :class:`FaultyQueue`, the integrity-checked queue that turns
  would-be-silent corruption into
  :class:`~repro.errors.SilentCorruptionDetected`.

Detection pairs with recovery: the batch engine
(:class:`repro.exec.BatchRunner`) retries transient faults at once and
reports unrecoverable items as structured failure records; see
``docs/robustness.md`` for the full taxonomy and how to reproduce any
injection from its seed.
"""

from .injector import FaultInjector, FaultyQueue, flip_float_bits
from .plan import (
    FaultKind,
    FaultSpec,
    InjectionPlan,
    MACHINE_KINDS,
    WORKER_KINDS,
    parse_inject_spec,
    parse_inject_specs,
)

__all__ = [
    "FaultInjector",
    "FaultKind",
    "FaultSpec",
    "FaultyQueue",
    "InjectionPlan",
    "MACHINE_KINDS",
    "WORKER_KINDS",
    "flip_float_bits",
    "parse_inject_spec",
    "parse_inject_specs",
]
