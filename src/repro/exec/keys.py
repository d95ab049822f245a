"""Stable, content-addressed cache keys for compiled programs.

A key is the SHA-256 of a canonical JSON document covering everything
that determines the output of :func:`~repro.compiler.driver.compile_w2`:
the exact W2 source text, every field of the
:class:`~repro.config.WarpConfig` (recursively, so a one-field
perturbation of the cell or IU sub-config changes the key), the
optimisation flags, and a format version bumped whenever the
:class:`~repro.compiler.driver.CompiledProgram` layout changes
incompatibly.

The compiler is deterministic, so equal keys imply equal artefacts;
unequal inputs produce unequal keys up to SHA-256 collisions.  A fault
plan is not part of the key: injection acts on runs and on disk-cache
reads, never on the compile, and a corrupted read fails its digest and
recompiles.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

from ..config import WarpConfig

#: Bump when CompiledProgram's pickled layout or compile semantics
#: change so stale disk entries from older builds are never reused.
CACHE_KEY_VERSION = 1


def config_fingerprint(config: WarpConfig) -> dict[str, Any]:
    """The machine configuration as a plain, JSON-able dict (recursive
    over the cell and IU sub-configs).

    The ``verify`` level is excluded: verification is a read-only pass
    over the finished artefacts, so it cannot change the compile output
    — and keeping it out leaves every pre-existing key byte-identical.
    """
    fingerprint = dataclasses.asdict(config)
    fingerprint.pop("verify", None)
    return fingerprint


def cache_key(
    source: str,
    config: WarpConfig,
    skew_method: str = "auto",
    unroll: int | str = 1,
    local_opt: bool = True,
) -> str:
    """The content hash identifying one compile of ``source``.

    ``skew_method`` changes nothing the compiler does: it has one skew
    method and always passes ``"auto"``, kept in the payload so existing
    keys do not move.
    """
    document: dict[str, Any] = {
        "version": CACHE_KEY_VERSION,
        "source": source,
        "config": config_fingerprint(config),
        "skew_method": skew_method,
        "unroll": unroll,
        "local_opt": bool(local_opt),
    }
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
