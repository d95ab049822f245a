"""Injection plans: which faults to inject, where, and when.

A plan is a plain, frozen dataclass so it can be

* **serialised** — :meth:`InjectionPlan.to_json` /
  :meth:`InjectionPlan.from_json` round-trip through JSON (the batch
  runner ships plans to its worker processes this way), and
  :meth:`InjectionPlan.fingerprint` folds the plan into the compile
  cache key so a faulty run can never poison the cache with an artefact
  produced under injection;
* **deterministic** — every fault site is addressed statically (cell
  index, channel, nth occurrence, item index, attempt window), so the
  same plan against the same program and inputs always injects the same
  faults and produces the same outcome;
* **seedable** — :meth:`InjectionPlan.random` derives a whole plan from
  one integer seed, which is all a bug report needs to reproduce an
  injection (see ``docs/robustness.md``).

Sites use the simulator's naming: cell ``c`` sends into inter-cell link
``c + 1`` (link 0 is the host boundary, link ``n_cells`` feeds the
collector).  Queue faults address the *sending* cell; ``SHRINK_QUEUE``
addresses the link index directly.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable


class FaultKind(str, Enum):
    """Every fault class the injector can produce."""

    #: Silently discard the nth ``send`` of a cell on a channel.
    DROP_SEND = "drop_send"
    #: Enqueue the nth ``send`` twice (a duplicated queue write).
    DUP_SEND = "dup_send"
    #: XOR a bitmask into the stored word of the nth ``send`` (queue
    #: memory corruption; the enqueued bits no longer match the value).
    FLIP_BITS = "flip_bits"
    #: Delay a cell's start by ``cycles`` (a stalled cell; its whole
    #: schedule shifts).
    STALL_CELL = "stall_cell"
    #: Override one inter-cell queue's capacity (e.g. below the
    #: Section 6.2.2 minimum).
    SHRINK_QUEUE = "shrink_queue"
    #: Corrupt the bytes of a disk compile-cache entry as it is read.
    CORRUPT_CACHE = "corrupt_cache"
    #: Kill the batch worker process running a given item.
    WORKER_KILL = "worker_kill"
    #: Hang the batch worker process running a given item.
    WORKER_HANG = "worker_hang"


#: Kinds injected inside one machine run (vs cache / batch-worker kinds).
MACHINE_KINDS = frozenset(
    {
        FaultKind.DROP_SEND,
        FaultKind.DUP_SEND,
        FaultKind.FLIP_BITS,
        FaultKind.STALL_CELL,
        FaultKind.SHRINK_QUEUE,
    }
)
WORKER_KINDS = frozenset({FaultKind.WORKER_KILL, FaultKind.WORKER_HANG})


@dataclass(frozen=True)
class FaultSpec:
    """One fault: a kind plus the static address of its site.

    Field meaning depends on the kind (unused fields are ignored):

    * ``cell`` — the injecting cell for ``DROP_SEND`` / ``DUP_SEND`` /
      ``FLIP_BITS`` / ``STALL_CELL``; the *link index* for
      ``SHRINK_QUEUE`` (link ``i`` connects cell ``i-1`` to cell ``i``).
    * ``channel`` — ``"X"`` or ``"Y"`` for queue faults.
    * ``index`` — the nth dynamic occurrence at the site (nth send on
      the queue, nth disk-cache read for ``CORRUPT_CACHE``).
    * ``cycles`` — stall length for ``STALL_CELL``.
    * ``capacity`` — the override for ``SHRINK_QUEUE``.
    * ``bitmask`` — the XOR mask applied to the float64 bit pattern for
      ``FLIP_BITS`` (and to every byte offset it selects for
      ``CORRUPT_CACHE``).
    * ``seconds`` — how long ``WORKER_HANG`` sleeps.
    * ``item`` — which batch item the fault applies to (``None`` means
      every item; one-shot ``simulate`` runs are item 0).
    * ``attempts`` — the fault fires on the first ``attempts`` attempts
      of its item and then stops, so a retried item recovers; use a
      large value for a persistent fault.
    """

    kind: FaultKind
    cell: int = 0
    channel: str = "X"
    index: int = 0
    cycles: int = 0
    capacity: int | None = None
    bitmask: int = 1 << 52
    seconds: float = 30.0
    item: int | None = None
    attempts: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.kind, FaultKind):
            object.__setattr__(self, "kind", FaultKind(self.kind))
        if self.channel not in ("X", "Y"):
            raise ValueError(f"channel must be X or Y, not {self.channel!r}")
        if self.index < 0 or self.attempts < 1:
            raise ValueError("index must be >= 0 and attempts >= 1")
        if self.kind is FaultKind.SHRINK_QUEUE and self.capacity is None:
            raise ValueError("SHRINK_QUEUE needs an explicit capacity")

    def applies_to(self, item: int, attempt: int) -> bool:
        """Does this fault fire for the given batch item and attempt?"""
        if self.item is not None and self.item != item:
            return False
        return attempt < self.attempts

    def describe(self) -> str:
        parts = [self.kind.value]
        if self.kind in (FaultKind.DROP_SEND, FaultKind.DUP_SEND, FaultKind.FLIP_BITS):
            parts.append(f"cell={self.cell} channel={self.channel} index={self.index}")
        elif self.kind is FaultKind.STALL_CELL:
            parts.append(f"cell={self.cell} cycles={self.cycles}")
        elif self.kind is FaultKind.SHRINK_QUEUE:
            parts.append(
                f"link={self.cell} channel={self.channel} capacity={self.capacity}"
            )
        elif self.kind is FaultKind.CORRUPT_CACHE:
            parts.append(f"read={self.index}")
        else:
            parts.append(f"item={'*' if self.item is None else self.item}")
        return " ".join(parts)

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"kind": self.kind.value}
        defaults = _SPEC_DEFAULTS
        for name in defaults:
            value = getattr(self, name)
            if value != defaults[name]:
                doc[name] = value
        return doc

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "FaultSpec":
        return cls(**doc)


_SPEC_DEFAULTS = {
    name: f.default
    for name, f in FaultSpec.__dataclass_fields__.items()
    if name != "kind"
}


@dataclass(frozen=True)
class InjectionPlan:
    """A reproducible set of faults to inject into one run or batch."""

    specs: tuple[FaultSpec, ...] = ()
    #: The seed the plan was generated from, if any (reporting only).
    seed: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.specs, tuple):
            object.__setattr__(self, "specs", tuple(self.specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    def __iter__(self):
        return iter(self.specs)

    @property
    def has_worker_faults(self) -> bool:
        return any(spec.kind in WORKER_KINDS for spec in self.specs)

    @property
    def has_cache_faults(self) -> bool:
        return any(spec.kind is FaultKind.CORRUPT_CACHE for spec in self.specs)

    # Serialisation -------------------------------------------------------

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {"specs": [spec.to_json() for spec in self.specs]}
        if self.seed is not None:
            doc["seed"] = self.seed
        return doc

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "InjectionPlan":
        return cls(
            specs=tuple(FaultSpec.from_json(spec) for spec in doc.get("specs", ())),
            seed=doc.get("seed"),
        )

    def fingerprint(self) -> str:
        """A stable content hash of the plan, folded into compile-cache
        keys so artefacts compiled under injection never shadow clean
        ones (and vice versa)."""
        payload = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # Generation ----------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        n_cells: int = 4,
        n_faults: int | None = None,
        max_index: int = 8,
        kinds: Iterable[FaultKind] = tuple(sorted(MACHINE_KINDS)),
    ) -> "InjectionPlan":
        """A deterministic random plan derived from ``seed`` alone.

        Only machine-level kinds by default: a random plan is meant to
        be thrown at ``simulate`` (the soak and the property tests);
        worker/cache faults need a batch/cache context to mean anything.
        """
        rng = random.Random(seed)
        kinds = tuple(kinds)
        count = n_faults if n_faults is not None else rng.randint(1, 3)
        specs = []
        for _ in range(count):
            kind = rng.choice(kinds)
            cell = rng.randrange(max(n_cells, 1))
            channel = rng.choice(("X", "Y"))
            if kind is FaultKind.SHRINK_QUEUE:
                specs.append(
                    FaultSpec(
                        kind=kind,
                        cell=rng.randrange(1, max(n_cells, 2)),
                        channel=channel,
                        capacity=rng.randint(0, 8),
                    )
                )
            elif kind is FaultKind.STALL_CELL:
                specs.append(
                    FaultSpec(kind=kind, cell=cell, cycles=rng.randint(1, 4096))
                )
            else:
                specs.append(
                    FaultSpec(
                        kind=kind,
                        cell=cell,
                        channel=channel,
                        index=rng.randrange(max_index),
                        bitmask=1 << rng.randrange(64),
                    )
                )
        return cls(specs=tuple(specs), seed=seed)


def parse_inject_spec(text: str) -> list[FaultSpec] | InjectionPlan:
    """Parse one ``--inject`` argument.

    Two forms::

        kind:key=value,key=value     one explicit fault
        random:seed=42[,cells=4][,count=2]   a seeded random plan

    Examples: ``drop_send:cell=0,channel=X,index=2``,
    ``stall_cell:cell=1,cycles=500``, ``shrink_queue:link=1,capacity=3``,
    ``worker_kill:item=2``, ``random:seed=42``.
    """
    head, _, rest = text.partition(":")
    head = head.strip().lower()
    params: dict[str, str] = {}
    for chunk in filter(None, (c.strip() for c in rest.split(","))):
        if "=" not in chunk:
            raise ValueError(
                f"--inject parameter {chunk!r} must look like key=value"
            )
        key, value = chunk.split("=", 1)
        params[key.strip()] = value.strip()

    if head == "random":
        if "seed" not in params:
            raise ValueError("--inject random needs seed=N")
        return InjectionPlan.random(
            seed=int(params["seed"]),
            n_cells=int(params.get("cells", 4)),
            n_faults=int(params["count"]) if "count" in params else None,
        )

    try:
        kind = FaultKind(head)
    except ValueError:
        valid = ", ".join(k.value for k in FaultKind)
        raise ValueError(
            f"unknown fault kind {head!r} (valid: {valid}, or random:seed=N)"
        ) from None
    fields: dict[str, Any] = {"kind": kind}
    aliases = {"link": "cell"}
    for key, value in params.items():
        name = aliases.get(key, key)
        if name not in FaultSpec.__dataclass_fields__:
            raise ValueError(f"unknown --inject parameter {key!r} for {head}")
        if name == "channel":
            fields[name] = value.upper()
        elif name == "seconds":
            fields[name] = float(value)
        elif name == "bitmask":
            fields[name] = int(value, 0)
        else:
            fields[name] = int(value)
    return [FaultSpec(**fields)]


def parse_inject_specs(arguments: Iterable[str]) -> InjectionPlan:
    """Combine repeated ``--inject`` arguments into one plan."""
    specs: list[FaultSpec] = []
    seed: int | None = None
    for text in arguments:
        parsed = parse_inject_spec(text)
        if isinstance(parsed, InjectionPlan):
            specs.extend(parsed.specs)
            seed = parsed.seed if seed is None else seed
        else:
            specs.extend(parsed)
    return InjectionPlan(specs=tuple(specs), seed=seed)
