"""The compile cache: in-memory LRU over an optional on-disk layer.

Lookup order is memory, then disk, then a real compile.  Disk entries
are versioned pickles written atomically (temp file + ``os.replace``),
the program pickled inside with its SHA-256 digest; *any* failure to
read one — truncation, garbage bytes, a flipped bit, a format-version
bump, a key mismatch from a hash-renamed file — counts as a miss and the
offending file is removed best-effort.  A corrupt cache can cost a
recompile, never a crash or a wrong program.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from ..config import DEFAULT_CONFIG, WarpConfig
from .keys import CACHE_KEY_VERSION, cache_key

if TYPE_CHECKING:  # pragma: no cover - import cycle at run time only
    from ..compiler.driver import CompiledProgram

#: Version of the on-disk pickle envelope (independent of the key
#: version: bumping it invalidates files without changing keys).  2: the
#: host program holds a host word layout; the program has a digest.
DISK_FORMAT_VERSION = 2

_ENTRY_SUFFIX = ".w2c"


@dataclass
class CacheStats:
    """Hit/miss accounting of one :class:`CompileCache`."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    #: Unreadable/invalid disk entries encountered (each one is a miss).
    disk_errors: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def to_json(self) -> dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "disk_errors": self.disk_errors,
        }


class CompileCache:
    """Content-addressed store of :class:`CompiledProgram` artefacts.

    ``capacity`` bounds the in-memory layer (LRU eviction); evicted
    entries survive on disk when ``cache_dir`` is set.  Instances are
    not thread-safe; per-process use is the intended shape (the batch
    runner's worker processes each compile at most once per program).
    """

    def __init__(
        self,
        capacity: int = 128,
        cache_dir: str | os.PathLike | None = None,
        injector=None,
    ):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self._capacity = capacity
        self._memory: OrderedDict[str, "CompiledProgram"] = OrderedDict()
        self._dir = Path(cache_dir) if cache_dir is not None else None
        #: Optional :class:`~repro.faults.FaultInjector` whose
        #: ``corrupt_blob`` hook flips bytes of disk reads (fault
        #: injection only; ``None`` in normal operation).
        self._injector = injector
        self.stats = CacheStats()
        #: How the most recent :meth:`get` resolved:
        #: ``"memory-hit" | "disk-hit" | "miss"`` (``None`` before any).
        self.last_event: str | None = None

    @property
    def cache_dir(self) -> Path | None:
        return self._dir

    def __len__(self) -> int:
        return len(self._memory)

    def __contains__(self, key: str) -> bool:
        return key in self._memory or (
            self._dir is not None and self._path(key).exists()
        )

    # Lookup ------------------------------------------------------------------

    def get(self, key: str) -> "CompiledProgram | None":
        program = self._memory.get(key)
        if program is not None:
            self._memory.move_to_end(key)
            self.stats.memory_hits += 1
            self.last_event = "memory-hit"
            return program
        program = self._load_disk(key)
        if program is not None:
            self._remember(key, program)
            self.stats.disk_hits += 1
            self.last_event = "disk-hit"
            return program
        self.stats.misses += 1
        self.last_event = "miss"
        return None

    def put(self, key: str, program: "CompiledProgram") -> None:
        self._remember(key, program)
        self.stats.stores += 1
        if self._dir is not None:
            self._store_disk(key, program)

    def clear(self, memory_only: bool = False) -> None:
        self._memory.clear()
        if memory_only or self._dir is None:
            return
        for path in self._dir.glob(f"*{_ENTRY_SUFFIX}"):
            try:
                path.unlink()
            except OSError:
                pass

    # Internals ---------------------------------------------------------------

    def _remember(self, key: str, program: "CompiledProgram") -> None:
        self._memory[key] = program
        self._memory.move_to_end(key)
        while len(self._memory) > self._capacity:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def _path(self, key: str) -> Path:
        assert self._dir is not None
        return self._dir / f"{key}{_ENTRY_SUFFIX}"

    def _load_disk(self, key: str) -> "CompiledProgram | None":
        if self._dir is None:
            return None
        path = self._path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None  # plain absence: not an error
        if self._injector is not None:
            blob = self._injector.corrupt_blob(blob)
        try:
            envelope = pickle.loads(blob)
            if (
                not isinstance(envelope, dict)
                or envelope.get("format") != DISK_FORMAT_VERSION
                or envelope.get("key") != key
            ):
                raise ValueError("cache envelope mismatch")
            data = envelope["program"]
            # A bit flipped inside the program can still unpickle.
            if hashlib.sha256(data).hexdigest() != envelope["digest"]:
                raise ValueError("cache entry digest mismatch")
            program = pickle.loads(data)
        except Exception:
            # Truncated, garbage, wrong version, unpicklable class, …:
            # silently recompile (and drop the bad file so it cannot
            # keep costing a read on every lookup).
            from ..obs import get_telemetry

            get_telemetry().counter("fault.detected")
            self.stats.disk_errors += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return program

    def _store_disk(self, key: str, program: "CompiledProgram") -> None:
        assert self._dir is not None
        try:
            self._dir.mkdir(parents=True, exist_ok=True)
            data = pickle.dumps(program, protocol=pickle.HIGHEST_PROTOCOL)
            envelope = {
                "format": DISK_FORMAT_VERSION,
                "key": key,
                "digest": hashlib.sha256(data).hexdigest(),
                "program": data,
            }
            fd, tmp_name = tempfile.mkstemp(
                dir=self._dir, prefix=".tmp-", suffix=_ENTRY_SUFFIX
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(envelope, handle, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp_name, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except (OSError, pickle.PicklingError):
            # A read-only or full cache directory degrades to
            # memory-only caching; it must never fail the compile.
            self.stats.disk_errors += 1


_default_cache: CompileCache | None = None


def default_cache() -> CompileCache:
    """The process-wide in-memory cache used when no explicit cache is
    passed (lazily created; memory-only)."""
    global _default_cache
    if _default_cache is None:
        _default_cache = CompileCache(capacity=64)
    return _default_cache


def compile_cached(
    source: str,
    config: WarpConfig = DEFAULT_CONFIG,
    unroll: int | str = 1,
    local_opt: bool = True,
    cache: CompileCache | None = None,
) -> "CompiledProgram":
    """:func:`~repro.compiler.driver.compile_w2` through a cache
    (the process-wide default when ``cache`` is ``None``)."""
    from ..compiler.driver import compile_w2

    return compile_w2(
        source,
        config=config,
        unroll=unroll,
        local_opt=local_opt,
        cache=cache if cache is not None else default_cache(),
    )


__all__ = [
    "CacheStats",
    "CompileCache",
    "DISK_FORMAT_VERSION",
    "cache_key",
    "CACHE_KEY_VERSION",
    "compile_cached",
    "default_cache",
]
