"""Command-line interface to the Warp compiler and simulator.

Usage (also via ``python -m repro``)::

    python -m repro compile  program.w2        # metrics + listings
    python -m repro run      program.w2 --input a=in.npy --output out.npz
    python -m repro batch    program.w2 --inputs items.npz --output out.npz
    python -m repro profile  program.w2        # phase timings + utilisation
    python -m repro compare  program.w2        # predicted vs measured
    python -m repro timing   program.w2        # skew / buffer report
    python -m repro verify   program.w2        # independent schedule verifier
    python -m repro check    program.w2        # compile + verify, one-line verdict
    python -m repro examples                   # list bundled programs
    python -m repro emit     polynomial        # print a bundled program

Exit codes are script-friendly: 0 success, 2 the program cannot be
compiled (front-end or mapping/overflow errors, printed as one
structured ``error[Class]: ...`` line), 3 the verifier rejected the
emitted schedule (or a seeded mutant escaped ``verify --mutate``).

All compiling subcommands share a compile cache (in-memory by default;
``--cache-dir DIR`` persists artefacts on disk, ``--no-cache`` bypasses
caching entirely).  ``batch`` compiles once and streams many input sets
through one reused machine (``--items N`` replication or an ``--inputs``
npz whose arrays carry a leading item axis).

``run``/``profile``/``compare`` accept ``--trace-out trace.json``
(Chrome ``trace_event`` file for ``chrome://tracing`` / Perfetto) and
``--metrics-out metrics.json`` (structured cycle-level metrics).

Inputs accept ``name=file.npy``, ``name=file.txt`` (whitespace floats)
or ``name=1.0,2.0,3.0`` inline.  Missing inputs default to zeros (cell
schedules are data-independent, so cycle counts are unaffected).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import obs, programs
from .cellcodegen.listing import format_cell_code
from .compiler import (
    compile_w2,
    decomposition_report,
    format_metrics_table,
    format_performance,
    predict_performance,
)
from .config import DEFAULT_CONFIG
from .errors import (
    CompilationError,
    HostDataError,
    VerificationError,
)
from .exec import BatchRunner, CompileCache, ItemFailure, default_cache
from .lang import Channel
from .lang.errors import W2Error
from .machine import HostMemory, WarpMachine, simulate
from .machine.trace import format_two_cell_trace
from .verify import MUTATION_KINDS, mutate, verify_program

_BUNDLED = {
    "polynomial": programs.polynomial,
    "conv1d": programs.conv1d,
    "binop": programs.binop,
    "colorseg": programs.colorseg,
    "mandelbrot": programs.mandelbrot,
    "matmul": programs.matmul,
    "conv2d": programs.conv2d,
    "firbank": programs.fir_bank,
    "passthrough": programs.passthrough,
}


def _load_source(spec: str) -> str:
    """A file path, or the name of a bundled program."""
    path = Path(spec)
    if path.exists():
        return path.read_text()
    factory = _BUNDLED.get(spec)
    if factory is None:
        raise SystemExit(
            f"error: {spec!r} is neither a file nor a bundled program "
            f"(bundled: {', '.join(sorted(_BUNDLED))})"
        )
    return factory()


def _parse_input(spec: str) -> tuple[str, np.ndarray]:
    if "=" not in spec:
        raise SystemExit(f"error: input {spec!r} must look like name=value")
    name, value = spec.split("=", 1)
    path = Path(value)
    if path.suffix == ".npy" and path.exists():
        return name, np.load(path)
    if path.exists():
        return name, np.loadtxt(path).ravel()
    try:
        return name, np.asarray(
            [float(v) for v in value.split(",") if v], dtype=np.float64
        )
    except ValueError:
        raise SystemExit(f"error: cannot parse input {spec!r}") from None


def _injection_plan(args: argparse.Namespace):
    """The :class:`~repro.faults.InjectionPlan` of the ``--inject``
    flags (``None`` when no faults were requested)."""
    specs = getattr(args, "inject", None)
    if not specs:
        return None
    from .faults import parse_inject_specs

    try:
        return parse_inject_specs(specs)
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None


def _make_cache(
    args: argparse.Namespace, faults=None
) -> CompileCache | None:
    """The compile cache selected by ``--cache-dir`` / ``--no-cache``.

    Default: the process-wide in-memory cache.  ``--cache-dir`` adds the
    on-disk layer; ``--no-cache`` disables caching entirely (the compile
    neither reads nor writes any cache state).  An injection plan with
    cache faults attaches a corrupting injector to a *private* disk
    cache (never the shared default — faulty runs must not poison it).
    """
    if getattr(args, "no_cache", False):
        return None
    cache_dir = getattr(args, "cache_dir", None)
    injector = None
    if faults is not None and faults.has_cache_faults:
        from .faults import FaultInjector

        injector = FaultInjector(faults)
        if not cache_dir:
            # Cache corruption needs a disk layer to corrupt; without
            # --cache-dir there is nothing to inject into.
            raise SystemExit(
                "error: --inject corrupt_cache requires --cache-dir"
            )
    if cache_dir:
        return CompileCache(cache_dir=cache_dir, injector=injector)
    return default_cache()


def _compile_from_args(args: argparse.Namespace, faults=None):
    """Compile the requested program through the selected cache (the
    injection plan, when present, partitions the cache key)."""
    cache = _make_cache(args, faults=faults)
    program = compile_w2(
        _load_source(args.program),
        unroll=args.unroll,
        cache=cache,
        faults=faults,
    )
    return program, cache


def _cache_status(cache: CompileCache | None) -> str:
    return obs.format_cache_status(
        cache.last_event if cache is not None else None,
        cache.stats if cache is not None else None,
    )


def _check_inputs(program, inputs: dict[str, np.ndarray]) -> None:
    """Reject inputs that do not fit the module's declared arrays with a
    clear message (shorter arrays are zero-padded, as documented)."""
    declared = {
        name: int(np.prod(dims)) if dims else 1
        for name, dims in program.ir.host_arrays.items()
    }
    for name, data in inputs.items():
        if name not in declared:
            raise SystemExit(
                f"error: module {program.module_name!r} has no array "
                f"{name!r} (declared: {', '.join(sorted(declared))})"
            )
        if data.size > declared[name]:
            raise SystemExit(
                f"error: input {name!r} has {data.size} elements but "
                f"module {program.module_name!r} declares "
                f"{name}[{declared[name]}]"
            )


def _simulate_with_exports(program, args, telemetry=None, cache=None, faults=None):
    """Simulate honouring ``--trace-out`` / ``--metrics-out``."""
    inputs = dict(_parse_input(spec) for spec in args.input or [])
    _check_inputs(program, inputs)
    result = simulate(
        program,
        inputs,
        trace_limit=getattr(args, "trace", 0),
        record=bool(getattr(args, "trace_out", None)),
        faults=faults,
    )
    _write_exports(program, args, result, telemetry, cache)
    return result


def _write_exports(program, args, result, telemetry=None, cache=None) -> None:
    """Write ``result`` to ``--trace-out`` / ``--metrics-out``, if given."""
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if trace_out:
        obs.write_chrome_trace(
            trace_out, obs.simulation_trace_events(result, telemetry)
        )
        print(f"chrome trace written to {trace_out}")
    if metrics_out:
        document = obs.metrics_to_json(
            result.machine_metrics,
            prediction=predict_performance(program),
            telemetry=telemetry,
            cache=cache,
        )
        Path(metrics_out).write_text(json.dumps(document, indent=2))
        print(f"metrics written to {metrics_out}")


def cmd_compile(args: argparse.Namespace) -> int:
    program, _cache = _compile_from_args(args)
    print(format_metrics_table([program.metrics]))
    report = decomposition_report(program)
    print(
        f"\ndecomposition: {report.cell_instructions} cell instrs, "
        f"{report.iu_instructions} IU instrs, "
        f"{report.iu_supplied_addresses} IU addresses, "
        f"{report.host_inputs} host inputs, {report.host_outputs} outputs"
    )
    print("\npredicted performance:")
    for line in format_performance(predict_performance(program)).splitlines():
        print(f"    {line}")
    if args.listing:
        print("\n" + format_cell_code(program.cell_code))
    return 0


def cmd_timing(args: argparse.Namespace) -> int:
    program, _cache = _compile_from_args(args)
    print(f"inter-cell skew: {program.skew.skew} cycles")
    for entry in program.skew.channels:
        print(
            f"    channel {entry.channel}: {entry.n_sends} sends / "
            f"{entry.n_receives} receives per cell, skew {entry.skew} "
            f"({entry.method})"
        )
    for requirement in program.buffers:
        print(
            f"    queue {requirement.channel}: needs {requirement.required} "
            f"of {program.config.queue_depth} words"
        )
    print(
        f"one cell runs {program.cell_code.total_cycles} cycles; the "
        f"{program.n_cells}-cell array finishes at cycle "
        f"{predict_performance(program).total_cycles}"
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    plan = _injection_plan(args)
    program, cache = _compile_from_args(args, faults=plan)
    if plan is None:
        result = _simulate_with_exports(program, args, cache=cache)
    else:
        # One item under the batch retry policy.
        def attempt(retried, injector):
            if retried:
                error = retried[-1]
                name = type(error).__name__
                print(f"retry {len(retried)}: {name}: {error}")
            return _simulate_with_exports(
                program, args, cache=cache, faults=injector
            )

        runner = BatchRunner(
            program, faults=plan, max_retries=args.max_retries
        )
        result, _retries = runner.run_item(0, attempt)
        if isinstance(result, ItemFailure):
            print(
                f"fault detected after {result.attempts} attempt(s): "
                f"{result.error_type}: {result.message}",
                file=sys.stderr,
            )
            for line in result.fault_report:
                print(f"    injected: {line}", file=sys.stderr)
            return 3
    for line in result.fault_report:
        print(f"    injected (recovered): {line}")
    print(
        f"ran {program.module_name!r} on {program.n_cells} cells: "
        f"{result.total_cycles} cycles, skew {result.skew}"
    )
    for name, data in result.outputs.items():
        preview = np.array2string(data[:8], precision=5)
        print(f"    {name}[{data.size}] = {preview}{'...' if data.size > 8 else ''}")
    if args.trace:
        cells = tuple(args.trace_cells)
        if any(c < 0 or c >= program.n_cells for c in cells):
            raise SystemExit(
                f"error: --trace-cells {cells[0]} {cells[1]} out of range: "
                f"module {program.module_name!r} has cells 0..{program.n_cells - 1}"
            )
        print(
            "\n"
            + format_two_cell_trace(
                result.trace, cells=cells, annotation=_cache_status(cache)
            )
        )
    if args.output:
        np.savez(args.output, **result.outputs)
        print(f"outputs written to {args.output}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Per-phase compile timings plus cycle-level machine utilisation."""
    cache = _make_cache(args)
    with obs.collecting() as telemetry:
        program = compile_w2(
            _load_source(args.program), unroll=args.unroll, cache=cache
        )
        result = _simulate_with_exports(program, args, telemetry, cache=cache)
    print(_cache_status(cache))
    print(f"== compile phases: {program.module_name} ==")
    print(obs.format_phase_table(telemetry))
    print("\n== compile counters ==")
    print(obs.format_counters(telemetry))
    print(f"\n== machine utilisation: {program.n_cells} cells ==")
    print(obs.format_utilization(result.machine_metrics))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Predicted (compile-time) vs measured (simulated) performance.

    The measurement is the reference run, on the checked path
    (``WarpMachine._execute``): a clean run's cycles come from the
    plan's static timeline, the loop tree the prediction reads too."""
    program, cache = _compile_from_args(args)
    inputs = dict(_parse_input(spec) for spec in args.input or [])
    _check_inputs(program, inputs)
    memory = HostMemory.from_inputs(program.host_program.layout, inputs)
    result = WarpMachine(program)._execute(memory, record=bool(args.trace_out))
    _write_exports(program, args, result, cache=cache)
    print(
        f"{program.module_name}: predicted vs measured "
        f"({program.n_cells} cells)"
    )
    print(obs.format_compare(predict_performance(program), result.machine_metrics))
    return 0


def _batch_input_sets(args: argparse.Namespace, program) -> list[dict[str, np.ndarray]]:
    """The per-item input dicts of a ``batch`` invocation.

    ``--inputs file.npz`` supplies every item at once (each array
    carries a leading item axis); otherwise one ``--input`` set (or the
    all-zeros default) is replicated ``--items`` times.
    """
    if args.inputs:
        path = Path(args.inputs)
        if not path.exists():
            raise SystemExit(f"error: --inputs file {args.inputs!r} not found")
        with np.load(path) as data:
            arrays = {name: np.asarray(data[name]) for name in data.files}
        if not arrays:
            raise SystemExit(f"error: {args.inputs!r} contains no arrays")
        lengths = {array.shape[:1] for array in arrays.values()}
        if len(lengths) != 1 or () in lengths:
            raise SystemExit(
                "error: --inputs arrays must share one leading item axis "
                f"(got shapes {sorted(a.shape for a in arrays.values())})"
            )
        (n_items,) = lengths.pop()
        items = [
            {name: array[i] for name, array in arrays.items()}
            for i in range(n_items)
        ]
        if items:
            _check_inputs(program, items[0])
        return items
    single = dict(_parse_input(spec) for spec in args.input or [])
    _check_inputs(program, single)
    return [dict(single) for _ in range(args.items)]


def cmd_batch(args: argparse.Namespace) -> int:
    """Compile once (through the cache), stream many input sets."""
    plan = _injection_plan(args)
    program, cache = _compile_from_args(args, faults=plan)
    input_sets = _batch_input_sets(args, program)
    item_timeout = args.item_timeout
    if item_timeout is None and plan is not None and plan.has_worker_faults:
        item_timeout = 30.0  # an injected hang must not hang the batch
    runner = BatchRunner(
        program,
        processes=args.processes,
        faults=plan,
        max_retries=args.max_retries,
        item_timeout=item_timeout,
    )
    result = runner.run(input_sets)
    plural = "es" if result.processes != 1 else ""
    print(
        f"batch: {result.n_items} items through {program.module_name!r} "
        f"on {program.n_cells} cells ({result.processes} process{plural})"
    )
    if result.retries:
        print(f"    {result.retries} retr{'ies' if result.retries != 1 else 'y'}")
    for failure in result.failures:
        print(f"    FAILED: {failure.describe()}", file=sys.stderr)
    print(
        f"    {result.cycles_per_item:.0f} cycles/item, "
        f"{result.total_cycles} machine cycles total"
    )
    print(
        f"    wall {result.wall_seconds:.3f}s, "
        f"{result.items_per_second:.1f} items/s"
    )
    print(
        f"    {result.value_items} items on the column run, "
        f"{result.fallback_items} one by one"
    )
    print(f"    {_cache_status(cache)}")
    first_ok = next((r for r in result.results if r is not None), None)
    if args.metrics_out and first_ok is not None:
        # Cell schedules are data-independent, so one item's machine
        # metrics represent every item; batch aggregates ride along.
        document = obs.metrics_to_json(
            first_ok.machine_metrics, cache=cache, batch=result
        )
        Path(args.metrics_out).write_text(json.dumps(document, indent=2))
        print(f"metrics written to {args.metrics_out}")
    if args.output:
        if result.ok:
            np.savez(args.output, **result.stacked_outputs())
            print(f"outputs written to {args.output}")
        else:
            print(
                f"outputs NOT written ({result.n_failures} failed item(s))",
                file=sys.stderr,
            )
    return 1 if result.failures else 0


def _compile_unverified(args: argparse.Namespace):
    """Compile with the in-driver verification pass off — the ``verify``
    and ``check`` subcommands run the verifier themselves so they can
    print the full report instead of an exception."""
    cache = _make_cache(args)
    config = dataclasses.replace(DEFAULT_CONFIG, verify="off")
    program = compile_w2(
        _load_source(args.program),
        config=config,
        unroll=args.unroll,
        cache=cache,
    )
    return program


def cmd_verify(args: argparse.Namespace) -> int:
    """Compile, then verify the emitted artifacts independently; with
    ``--mutate N`` also check N seeded miscompiles are all flagged."""
    program = _compile_unverified(args)
    report = verify_program(program, level=args.level)
    print(f"{program.module_name}: {report.format()}")
    if not report.ok:
        return 3
    if args.mutate:
        return _mutation_smoke(program, args.mutate, args.seed)
    return 0


def _mutation_smoke(program, n_mutants: int, base_seed: int) -> int:
    produced = caught = 0
    attempts = 0
    while produced < n_mutants and attempts < n_mutants * 4:
        kind = MUTATION_KINDS[attempts % len(MUTATION_KINDS)]
        seed = base_seed + attempts // len(MUTATION_KINDS)
        attempts += 1
        mutant = mutate(program, kind, seed)
        if mutant is None:
            continue
        produced += 1
        report = verify_program(mutant.program, level="full")
        if report.ok:
            print(
                f"    ESCAPED {mutant.kind} seed {mutant.seed}: "
                f"{mutant.description}",
                file=sys.stderr,
            )
        else:
            caught += 1
            checks = ",".join(sorted(report.failed_checks()))
            print(f"    caught {mutant.kind} seed {mutant.seed}: {checks}")
    print(f"mutation smoke: {caught}/{produced} mutants flagged")
    return 0 if caught == produced else 3


def cmd_check(args: argparse.Namespace) -> int:
    """Compile + verify with a one-line verdict (exit 0 / 2 / 3)."""
    program = _compile_unverified(args)
    report = verify_program(program, level="full")
    verdict = "ok" if report.ok else "FAIL"
    print(
        f"{program.module_name}: compile ok "
        f"({program.metrics.cell_ucode} cell instrs, "
        f"{program.metrics.iu_ucode} IU instrs, skew {program.skew.skew}); "
        f"verification {verdict} "
        f"({len(report.checks_run)} checks, "
        f"{len(report.diagnostics)} diagnostics)"
    )
    if not report.ok:
        print(report.format(), file=sys.stderr)
        return 3
    return 0


def cmd_examples(_args: argparse.Namespace) -> int:
    for name, factory in sorted(_BUNDLED.items()):
        doc = (factory.__doc__ or "").strip().splitlines()[0]
        print(f"{name:<12} {doc}")
    return 0


def cmd_emit(args: argparse.Namespace) -> int:
    factory = _BUNDLED.get(args.name)
    if factory is None:
        raise SystemExit(f"error: unknown bundled program {args.name!r}")
    print(factory())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The Warp / W2 compiler and simulator "
        "(Gross & Lam, PLDI 1986 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def at_least(low: float, kind: type = int, strict: bool = False):
        """An argparse type: a ``kind`` value >= ``low`` (> when ``strict``)."""
        def parse(text: str):
            value = kind(text)
            if value < low or strict and value == low:
                rule = ">" if strict else ">="
                raise argparse.ArgumentTypeError(f"must be {rule} {low}, got {text}")
            return value
        parse.__name__ = kind.__name__  # "invalid int value: 'x'"
        return parse

    def unroll_factor(value: str) -> int | str:
        return value if value == "auto" else at_least(1)(value)

    def add_unroll_option(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--unroll",
            type=unroll_factor,
            default=1,
            metavar="N|auto",
            help="unroll innermost loops up to N times; auto tries 1/2/4/8 "
            "and keeps the fastest schedule (default: 1)",
        )

    def add_cache_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--cache-dir",
            metavar="DIR",
            help="persist compiled artefacts in DIR (content-addressed; "
            "corrupt entries silently recompile)",
        )
        p.add_argument(
            "--no-cache",
            action="store_true",
            help="bypass the compile cache entirely (never read or write)",
        )

    compile_p = sub.add_parser("compile", help="compile a W2 module")
    compile_p.add_argument("program", help="W2 file or bundled program name")
    add_unroll_option(compile_p)
    compile_p.add_argument(
        "--listing", action="store_true", help="print the cell microcode"
    )
    add_cache_options(compile_p)
    compile_p.set_defaults(func=cmd_compile)

    timing_p = sub.add_parser("timing", help="skew and buffer analysis")
    timing_p.add_argument("program")
    add_unroll_option(timing_p)
    add_cache_options(timing_p)
    timing_p.set_defaults(func=cmd_timing)

    def add_fault_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--inject",
            action="append",
            metavar="SPEC",
            help="inject a deterministic fault: kind:key=value,... "
            "(kinds: drop_send, dup_send, flip_bits, stall_cell, "
            "shrink_queue, corrupt_cache, worker_kill, worker_hang) or "
            "random:seed=N[,count=K]; repeatable — see docs/robustness.md",
        )
        p.add_argument(
            "--max-retries",
            type=at_least(0),
            default=0,
            metavar="N",
            help="retry a failed fault-injected or pool item up to N "
            "times (default: 0)",
        )

    def add_simulation_options(p: argparse.ArgumentParser) -> None:
        add_unroll_option(p)
        add_cache_options(p)
        p.add_argument(
            "--input",
            action="append",
            metavar="NAME=VALUES",
            help="input array: name=file.npy | name=file.txt | name=1,2,3 "
            "(missing inputs default to zeros)",
        )
        p.add_argument(
            "--trace-out",
            metavar="FILE",
            help="write a Chrome trace_event JSON (chrome://tracing, "
            "Perfetto): one lane per cell/queue plus IU and host lanes",
        )
        p.add_argument(
            "--metrics-out",
            metavar="FILE",
            help="write structured cycle-level metrics as JSON",
        )

    run_p = sub.add_parser("run", help="compile and simulate")
    run_p.add_argument("program")
    add_simulation_options(run_p)
    add_fault_options(run_p)
    run_p.add_argument("--output", help="write outputs to an .npz file")
    run_p.add_argument(
        "--trace", type=at_least(0), default=0, metavar="N",
        help="record and print the first N I/O events per cell",
    )
    run_p.add_argument(
        "--trace-cells", type=int, nargs=2, default=(0, 1), metavar=("I", "J"),
        help="which cell pair --trace prints (default: 0 1)",
    )
    run_p.set_defaults(func=cmd_run)

    profile_p = sub.add_parser(
        "profile",
        help="per-phase compile timings and machine utilisation summary",
    )
    profile_p.add_argument("program")
    add_simulation_options(profile_p)
    profile_p.set_defaults(func=cmd_profile)

    compare_p = sub.add_parser(
        "compare", help="predicted vs measured performance, with deltas"
    )
    compare_p.add_argument("program")
    add_simulation_options(compare_p)
    compare_p.set_defaults(func=cmd_compare)

    batch_p = sub.add_parser(
        "batch",
        help="compile once (cached), stream many input sets through the "
        "reused machine",
    )
    batch_p.add_argument("program")
    add_unroll_option(batch_p)
    batch_p.add_argument(
        "--items", type=at_least(1), default=1, metavar="N",
        help="replicate the --input set N times (ignored with --inputs)",
    )
    batch_p.add_argument(
        "--input",
        action="append",
        metavar="NAME=VALUES",
        help="one input set, replicated --items times: name=file.npy | "
        "name=file.txt | name=1,2,3",
    )
    batch_p.add_argument(
        "--inputs",
        metavar="FILE.npz",
        help="all items at once: every array carries a leading item axis",
    )
    batch_p.add_argument(
        "--processes", type=at_least(0), default=0, metavar="N",
        help="fan items out over N worker processes (default: in-process)",
    )
    batch_p.add_argument(
        "--output",
        help="write outputs stacked on a leading item axis to an .npz file",
    )
    batch_p.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write item-0 machine metrics plus cache/batch aggregates "
        "as JSON",
    )
    batch_p.add_argument(
        "--item-timeout",
        type=at_least(0, float, strict=True),
        default=None,
        metavar="SECONDS",
        help="per-item wall-time bound in pool mode (a hung worker's "
        "item fails with ItemTimeoutError instead of hanging the batch)",
    )
    add_cache_options(batch_p)
    add_fault_options(batch_p)
    batch_p.set_defaults(func=cmd_batch)

    verify_p = sub.add_parser(
        "verify",
        help="compile, then re-derive and check the schedule invariants "
        "from the emitted artifacts (exit 3 on any diagnostic)",
    )
    verify_p.add_argument("program")
    add_unroll_option(verify_p)
    verify_p.add_argument(
        "--level",
        choices=("quick", "full"),
        default="full",
        help="quick: static hazard/register/IU checks; full: adds the "
        "dynamic stream/skew/occupancy/tau recomputation (default)",
    )
    verify_p.add_argument(
        "--mutate",
        type=at_least(0),
        default=0,
        metavar="N",
        help="also miscompile the program N times (seeded artifact "
        "mutations) and require the verifier to flag every mutant",
    )
    verify_p.add_argument(
        "--seed", type=int, default=0, help="base seed for --mutate"
    )
    add_cache_options(verify_p)
    verify_p.set_defaults(func=cmd_verify)

    check_p = sub.add_parser(
        "check",
        help="compile + verify with a one-line verdict (exit 0/2/3)",
    )
    check_p.add_argument("program")
    add_unroll_option(check_p)
    add_cache_options(check_p)
    check_p.set_defaults(func=cmd_check)

    examples_p = sub.add_parser("examples", help="list bundled programs")
    examples_p.set_defaults(func=cmd_examples)

    emit_p = sub.add_parser("emit", help="print a bundled program's W2 source")
    emit_p.add_argument("name")
    emit_p.set_defaults(func=cmd_emit)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:  # e.g. `repro compile ... | head`
        return 0
    except VerificationError as error:
        # The in-driver verifier rejected the schedule: print the full
        # structured report, then the one-line summary.
        print(error.report.format(), file=sys.stderr)
        print(f"error[VerificationError]: {error}", file=sys.stderr)
        return 3
    except (W2Error, CompilationError) as error:
        # Unmappable / overflowing / ill-formed programs are user input
        # problems: one structured diagnostic line, no traceback.  A
        # QueueOverflowError's message already names the required queue
        # size, as the paper's compiler reports it.
        print(f"error[{type(error).__name__}]: {error}", file=sys.stderr)
        return 2
    except HostDataError as error:
        # Malformed host data (e.g. out-of-bounds I/O bindings) is a
        # usage problem, not a crash: report it without a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
