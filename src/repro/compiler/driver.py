"""The Warp compiler driver (Section 6.1, Figure 6-1).

Phase order follows the paper: flow analysis builds the shared program
representation; the computation is decomposed between the Warp array,
the IU and the host; "code is generated for the Warp cells first", the
resulting scheduling constraints (address deadlines, loop structure)
drive IU code generation, and the IU/cell structure drives host code
generation.  Compile-time synchronisation (minimum skew, queue sizes) is
verified on the finished cell schedule.

Public entry point: :func:`compile_w2`.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..analysis import (
    CommReport,
    analyze_communication,
    eliminate_dead_writes,
)
from ..cellcodegen import CellCode, generate_cell_code
from ..errors import CompilationError, MappingError, RegisterPressureError
from ..hostcodegen import HostProgram, generate_host_program
from ..ir import CellProgramIR, build_ir
from ..ir.dag import OpKind
from ..iucodegen import IUProgram, generate_iu_code
from ..lang import AnalyzedModule, analyze
from ..lang.lexer import count_token_lines, tokenize
from ..lang.parser import Parser
from ..machine.plan import ExecutionPlan
from ..config import DEFAULT_CONFIG, WarpConfig
from ..obs import get_telemetry
from .mirror import flows_right_to_left, mirror_module
from ..timing import (
    BufferRequirement,
    SkewResult,
    check_buffers,
    compute_skew,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..exec.cache import CompileCache


@dataclass(frozen=True)
class CompileMetrics:
    """The Table 7-1 metrics plus a few internals."""

    module_name: str
    w2_lines: int
    cell_ucode: int
    iu_ucode: int
    compile_seconds: float
    skew: int
    cell_cycles: int
    n_cells: int
    max_live_registers: int
    iu_registers: int
    table_entries: int


@dataclass
class CompiledProgram:
    """Everything the Warp machine (simulator) needs to run a module."""

    source: str
    ir: CellProgramIR
    cell_code: CellCode
    iu_program: IUProgram
    host_program: HostProgram
    skew: SkewResult
    buffers: list[BufferRequirement]
    comm: CommReport
    config: WarpConfig
    metrics: CompileMetrics
    #: True when the program's data flow was right-to-left and the
    #: compiler mirrored it onto the canonical direction (the array is
    #: symmetric; cell 0 then denotes the physically-rightmost cell).
    mirrored: bool = False

    @property
    def module_name(self) -> str:
        return self.ir.module_name

    @property
    def n_cells(self) -> int:
        return self.ir.n_cells

    @functools.cached_property
    def execution_plan(self) -> "ExecutionPlan":
        """The static simulation state all runs share, built on first
        use and left out of pickles (see :meth:`__getstate__`)."""
        with get_telemetry().span("machine.plan"):
            return ExecutionPlan(self)

    def __getstate__(self) -> dict:
        # The same bytes before and after a run, for the pool and cache.
        return {k: v for k, v in vars(self).items() if k != "execution_plan"}


def _scalar_use_counts(ir: CellProgramIR) -> dict[str, int]:
    counts = {name: 0 for name in ir.scalars}
    for block in ir.tree.blocks():
        for node in block.dag.nodes.values():
            if node.op in (OpKind.READ, OpKind.WRITE) and node.attr in counts:
                counts[node.attr] += 1  # type: ignore[index]
    return counts


def compile_w2(
    source: str,
    config: WarpConfig = DEFAULT_CONFIG,
    unroll: int | str = 1,
    local_opt: bool = True,
    cache: "CompileCache | None" = None,
) -> CompiledProgram:
    """Compile a W2 module for the Warp machine.

    Raises :class:`~repro.lang.errors.W2Error` for front-end problems and
    :class:`~repro.errors.CompilationError` subclasses for back-end ones
    (unmappable communication, register pressure, memory/table overflow,
    queue overflow).  The skew and the queue sizes are exact, from one
    walk of each channel's send and receive streams; a stream longer
    than :data:`~repro.timing.events.MAX_STREAM_EVENTS` refuses the
    program with :class:`~repro.timing.events.TooManyEventsError`.

    Data flow must be one way (Section 5.1.1): a right-to-left module
    (:func:`~repro.compiler.mirror.flows_right_to_left`) is mirrored
    right after parsing, so every later phase sees left-to-right code.
    Mixed flow, at any cell count, and more cells than ``config`` has
    (checked before any code is built) raise :class:`MappingError`.

    ``unroll`` unrolls innermost loops up to that factor before
    scheduling, amortising block-drain cycles over several iterations
    (throughput optimisation; 1 = off).  ``unroll="auto"`` tries
    1/2/4/8 and keeps the fastest predicted schedule.  Any other value
    (below 1, not an ``int``) raises :class:`ValueError`.

    ``cache`` consults a :class:`~repro.exec.CompileCache` before doing
    any work, keyed on the exact (source, config, flags) content hash;
    a hit returns the cached artefact and skips every phase.  Telemetry
    records ``cache.hit`` / ``cache.miss`` (and ``cache.disk_hit``)
    counters either way.  A fault-injected run shares its program's
    entry: injection acts on runs and on disk-cache reads, never on the
    compile.
    """
    if unroll != "auto" and (
        type(unroll) is not int or unroll < 1  # bool is not a factor
    ):
        raise ValueError(
            f"unroll must be an int >= 1 or 'auto', got {unroll!r}"
        )
    started = time.perf_counter()
    obs = get_telemetry()
    key: str | None = None
    if cache is not None:
        from ..exec.keys import cache_key

        with obs.span("cache.lookup"):
            key = cache_key(source, config, "auto", unroll, local_opt)
            cached = cache.get(key)
        if cached is not None:
            obs.counter("cache.hit")
            if cache.last_event == "disk-hit":
                obs.counter("cache.disk_hit")
            return cached
        obs.counter("cache.miss")
    with obs.span("frontend.lex"):
        tokens = tokenize(source)
    obs.counter("frontend.tokens", len(tokens))
    with obs.span("frontend.parse"):
        module = Parser(tokens).parse_module()
    mirrored = flows_right_to_left(module)
    if mirrored:  # the array is symmetric: compile the mirror image
        module = mirror_module(module)
    with obs.span("frontend.semantic"):
        analyzed = analyze(module)
    if analyzed.n_cells > config.n_cells:
        raise MappingError(
            f"module uses {analyzed.n_cells} cells but the machine has "
            f"{config.n_cells}"
        )
    if unroll == "auto":
        with obs.span("driver.choose-unroll"):
            unroll, ir, cell_code = _choose_unroll_factor(
                analyzed, config, local_opt
            )
        obs.counter("driver.unroll_factor", unroll)
    else:
        ir, cell_code = _generate_with_demotion(
            analyzed, config, unroll, local_opt
        )

    with obs.span("analysis.comm"):
        comm = analyze_communication(ir.tree)
    _check_mappability(comm)
    if obs.enabled:
        blocks = list(ir.tree.blocks())
        obs.counter("ir.blocks", len(blocks))
        obs.counter(
            "ir.dag_nodes", sum(len(b.dag.nodes) for b in blocks)
        )
        obs.counter("ir.cse_hits", sum(b.dag.cse_hits for b in blocks))
        obs.counter("codegen.cell_instructions", cell_code.n_instructions)
        obs.counter("codegen.cell_cycles", cell_code.total_cycles)
        obs.counter(
            "codegen.max_live_registers", cell_code.max_live_registers
        )

    with obs.span("timing.skew"):
        skew, times = compute_skew(cell_code, n_cells=ir.n_cells)
    obs.counter("timing.skew_cycles", skew.skew)
    with obs.span("timing.buffers"):
        buffers = check_buffers(times, skew.skew, config.queue_depth)
    for requirement in buffers:
        obs.counter(
            f"timing.min_buffer.{requirement.channel.value}",
            requirement.required,
        )
    with obs.span("iucodegen"):
        iu_program = generate_iu_code(cell_code, config.iu)
    obs.counter("codegen.iu_instructions", iu_program.n_instructions)
    obs.counter("codegen.iu_table_entries", iu_program.table_entries)
    with obs.span("hostcodegen"):
        host_program = generate_host_program(cell_code, ir)

    elapsed = time.perf_counter() - started
    metrics = CompileMetrics(
        module_name=ir.module_name,
        w2_lines=count_token_lines(tokens),
        cell_ucode=cell_code.n_instructions,
        iu_ucode=iu_program.n_instructions,
        compile_seconds=elapsed,
        skew=skew.skew,
        cell_cycles=cell_code.total_cycles,
        n_cells=ir.n_cells,
        max_live_registers=cell_code.max_live_registers,
        iu_registers=iu_program.n_registers_used,
        table_entries=iu_program.table_entries,
    )
    program = CompiledProgram(
        source=source,
        ir=ir,
        cell_code=cell_code,
        iu_program=iu_program,
        host_program=host_program,
        skew=skew,
        buffers=buffers,
        comm=comm,
        config=config,
        metrics=metrics,
        mirrored=mirrored,
    )
    _verify_compiled(program, obs)
    if cache is not None and key is not None:
        cache.put(key, program)
    return program


def _verify_compiled(program: CompiledProgram, obs) -> None:
    """Run the independent schedule verifier over the finished artefacts
    (level per ``WarpConfig.verify``); rejected programs never reach the
    cache or the caller."""
    from ..errors import VerificationError
    from ..verify import resolve_level, verify_artifacts

    level = resolve_level(program.config.verify)
    if level == "off":
        return
    report = verify_artifacts(
        program.cell_code,
        program.iu_program,
        program.host_program,
        skew=program.skew,
        buffers=program.buffers,
        config=program.config,
        n_cells=program.n_cells,
        level=level,
    )
    if not report.ok:
        obs.counter("verify.rejected")
        raise VerificationError(report)


def _choose_unroll_factor(
    analyzed: AnalyzedModule, config: WarpConfig, local_opt: bool = True
) -> tuple[int, CellProgramIR, CellCode]:
    """The unroll factor with the fastest predicted cell program
    (schedules are static, so prediction is exact), with the IR and
    cell code it was measured on."""
    kept = []
    for factor in (1, 2, 4, 8):
        try:
            ir, code = _generate_with_demotion(
                analyzed, config, factor, local_opt
            )
        except CompilationError:
            continue
        kept.append((factor, ir, code))
    if not kept:  # no factor compiles: raise factor 1's error
        _generate_with_demotion(analyzed, config, 1, local_opt)
    return min(kept, key=lambda k: k[2].total_cycles)  # the first fastest


def _generate_with_demotion(
    analyzed: AnalyzedModule,
    config: WarpConfig,
    unroll: int = 1,
    local_opt: bool = True,
) -> tuple[CellProgramIR, CellCode]:
    """Build IR and cell code, demoting cold scalars to memory when the
    register files cannot hold them all."""
    obs = get_telemetry()
    memory_scalars: frozenset[str] = frozenset()
    last_error: RegisterPressureError | None = None
    for _attempt in range(64):
        with obs.span("decomposition.build-ir"):
            ir = build_ir(
                analyzed,
                memory_scalars,
                unroll_factor=unroll,
                enable_local_opt=local_opt,
            )
        with obs.span("analysis.local-opt"):
            eliminate_dead_writes(ir.tree)
        try:
            with obs.span("cellcodegen"):
                return ir, generate_cell_code(ir, config.cell)
        except RegisterPressureError as error:
            last_error = error
            counts = _scalar_use_counts(ir)
            candidates = [
                name
                for name in sorted(counts, key=lambda n: counts[n])
                if name not in memory_scalars and name not in ir.branch_assigned
            ]
            if not candidates:
                raise
            demoted = frozenset(candidates[:4])
            obs.counter("regalloc.demoted_scalars", len(demoted))
            memory_scalars = memory_scalars | demoted
    assert last_error is not None
    raise last_error


def _check_mappability(comm: CommReport) -> None:
    if not comm.is_mappable:
        raise MappingError(
            "program has both left and right communication cycles and "
            "cannot be mapped onto the skewed computation model "
            "(Section 5.1.1)"
        )
    if not comm.is_unidirectional_lr:
        raise MappingError(
            "only unidirectional left-to-right programs are supported "
            "(receive from L, send to R); the paper's compiler has the "
            "same restriction (Section 5.1.1)"
        )
