"""``repro.exec`` — the compile-once / run-many execution engine.

The paper's performance model (Section 3) amortises the cost of loading
a cell program over many data sets streamed through the array; the
compiler is run once per program, the machine many times.  This package
gives the reproduction the same shape:

* :mod:`repro.exec.keys` — stable content-addressed cache keys over
  (W2 source, :class:`~repro.config.WarpConfig`, optimisation flags);
* :mod:`repro.exec.cache` — :class:`CompileCache`, an in-memory LRU with
  an optional versioned on-disk layer (a corrupt or truncated entry is
  a miss, never a crash), plus :func:`compile_cached`;
* :mod:`repro.exec.batch` — :class:`BatchRunner`, which streams many
  input sets through one :class:`~repro.compiler.driver.CompiledProgram`
  on a reused :class:`~repro.machine.array.WarpMachine` (preallocated
  execution plan, shared address schedule), optionally fanning items
  out over a ``multiprocessing`` pool — with retry-with-backoff,
  per-item timeouts and structured :class:`ItemFailure` records so a
  failing item degrades the batch instead of crashing it.
"""

from .batch import BatchResult, BatchRunner, ItemFailure
from .cache import CacheStats, CompileCache, compile_cached, default_cache
from .keys import CACHE_KEY_VERSION, cache_key, config_fingerprint

__all__ = [
    "BatchResult",
    "BatchRunner",
    "ItemFailure",
    "CACHE_KEY_VERSION",
    "CacheStats",
    "CompileCache",
    "cache_key",
    "compile_cached",
    "config_fingerprint",
    "default_cache",
]
