"""Outside-in layer tracing for the benchmark's traced runs.

Wrappers are installed around public functions of the ``repro`` layers,
at the binding the caller actually looks up: ``compile_w2`` calls
``build_ir`` through ``repro.compiler.driver``'s namespace, so that is
the name patched, not ``repro.ir.build_ir``.  Nothing in ``src/`` is
edited; :meth:`Tracer.uninstall` restores every original binding.

A span's *self* time is its duration minus the durations of the spans
it directly contains.  Self times of all spans, plus the time no span
covers, add up to the traced wall time.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable


class Tracer:
    """In-memory span recorder: per-label self time, calls and counts."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        #: One entry per open span: time covered by its direct children.
        self._children: list[float] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        owner: Any,
        attr: str,
        label,
        count: Callable[[Any], int] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``label`` is a span name, or a function of ``(args, kwargs)``
        evaluated after the call (so it may read state the call set).
        ``count`` maps the call's result to a work count added under the
        same label.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer._children.append(0.0)
            start = perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                children = tracer._children.pop()
                if tracer._children:
                    tracer._children[-1] += elapsed
                name = label(args, kwargs) if callable(label) else label
                tracer.self_s[name] += elapsed - children
                tracer.calls[name] += 1
                if count is not None and result is not None:
                    tracer.counts[name] += count(result)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _verify_label(args: tuple, kwargs: dict) -> str:
    return f"verify.{kwargs.get('level', 'full')}"


def _cache_get_label(args: tuple, kwargs: dict) -> str:
    event = args[0].last_event or "miss"
    return "exec.cache." + event.replace("-", "_")


def _dynamic_ops(stats) -> int:
    return (
        stats.alu_ops
        + stats.mpy_ops
        + stats.mem_reads
        + stats.mem_writes
        + stats.receives
        + stats.sends
    )


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of ``repro`` (see README.md for the map)."""
    import repro.exec.keys as keys
    import repro.machine.array as array
    import repro.verify as verify
    from repro.compiler import driver
    from repro.exec.batch import BatchRunner
    from repro.exec.cache import CompileCache
    from repro.lang.parser import Parser
    from repro.machine.cell import CellExecutor

    tracer.wrap(driver, "compile_w2", "compiler.driver")
    tracer.wrap(driver, "tokenize", "lang.lex", count=len)
    tracer.wrap(Parser, "parse_module", "lang.parse")
    tracer.wrap(driver, "analyze", "lang.semantic")
    tracer.wrap(driver, "build_ir", "ir.build")
    tracer.wrap(driver, "eliminate_dead_writes", "analysis.local_opt")
    tracer.wrap(driver, "analyze_communication", "analysis.comm")
    tracer.wrap(
        driver,
        "generate_cell_code",
        "cellcodegen",
        count=lambda code: code.n_instructions,
    )
    tracer.wrap(driver, "compute_skew", "timing.skew")
    tracer.wrap(driver, "check_buffers", "timing.buffers")
    tracer.wrap(driver, "generate_iu_code", "iucodegen")
    tracer.wrap(driver, "generate_host_program", "hostcodegen")
    # compile_w2 imports these at call time, from their packages.
    tracer.wrap(verify, "verify_artifacts", _verify_label)
    tracer.wrap(keys, "cache_key", "exec.cache.key")
    tracer.wrap(CompileCache, "get", _cache_get_label)
    tracer.wrap(CompileCache, "put", "exec.cache.store")
    # WarpMachine.run looks these up in machine/array.py's namespace.
    tracer.wrap(array, "ExecutionPlan", "machine.plan")
    tracer.wrap(array, "feed_input_queues", "machine.host_feed")
    tracer.wrap(array, "collect_outputs", "machine.collect")
    tracer.wrap(CellExecutor, "run", "machine.cell", count=_dynamic_ops)
    tracer.wrap(array.WarpMachine, "run", "machine.run")
    tracer.wrap(BatchRunner, "run", "exec.batch")
