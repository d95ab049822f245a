"""The repository benchmark: the compile, simulate and batch workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload compile --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` some passes run with timing
wrappers around each ``repro`` layer and the metrics are the per-layer
ones.  Metric names and units come from ``BENCHMARK.json``.  See
``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-up is timed in this many fresh child processes, plus this one.
SETUP_PROBES = 6
#: Every measurement repeats at least this many passes.
MIN_PASSES = 3
PROBE_TIMEOUT_S = 120


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only time the workload's set-up and print it (internal)",
    )
    return parser.parse_args(argv)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_passes(workload, seconds: float, min_passes: int) -> list:
    """Repeat passes for ``seconds`` (at least ``min_passes``), collecting
    garbage between passes so no pass pays for another's."""
    passes = []
    deadline = perf_counter() + seconds
    while len(passes) < min_passes or perf_counter() < deadline:
        gc.collect()
        passes.append(workload.run_pass())
    return passes


def probe_setup(args: argparse.Namespace) -> list[float]:
    """Set-up seconds measured in fresh processes (imports included)."""
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--setup-probe",
                f"--workload={args.workload}",
                f"--seed={args.seed}",
                f"--seconds={args.seconds}",
            ],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def best_calls(passes) -> list[tuple[float, int]]:
    """Each call of the pass sequence as (seconds, items), every item at
    its fastest over the run.

    Every pass makes the same calls on the same inputs, and interference
    from other load on a shared machine only ever slows an item, so the
    fastest of many repeats is a far steadier estimate of an item's own
    cost than the median (see README.md, Steadiness)."""
    best = []
    for column in zip(*(p.calls for p in passes)):
        fastest = [min(repeats) for repeats in zip(*(s for _, s in column))]
        best.append((sum(fastest), len(fastest)))
    return best


def end_to_end(workload, passes, finish, setup_samples) -> dict[str, float]:
    best = best_calls(passes)
    latencies = [s * 1e3 / n for s, n in best for _ in range(n)]
    cuts = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(setup_samples),
        "items_per_s": sum(n for _, n in best) / sum(s for s, _ in best),
        "item_ms.p50": statistics.median(latencies),
        "item_ms.p90": cuts[8],
        "cell_ucode": workload.cell_ucode,
        "sim_cycles": passes[0].sim_cycles or finish.sim_cycles,
    }


#: Per-layer time metrics -> the span label whose self time they report.
SELF_MS = {
    "lang.lex_ms": "lang.lex",
    "lang.parse_ms": "lang.parse",
    "lang.semantic_ms": "lang.semantic",
    "ir.build_ms": "ir.build",
    "analysis.local_opt_ms": "analysis.local_opt",
    "analysis.comm_ms": "analysis.comm",
    "cellcodegen.ms": "cellcodegen",
    "timing.skew_ms": "timing.skew",
    "timing.buffers_ms": "timing.buffers",
    "iucodegen.ms": "iucodegen",
    "hostcodegen.ms": "hostcodegen",
    "compiler.driver_self_ms": "compiler.driver",
    "verify.quick_ms": "verify.quick",
    "verify.full_ms": "verify.full",
    "exec.cache.key_ms": "exec.cache.key",
    "exec.cache.disk_hit_ms": "exec.cache.disk_hit",
    "exec.cache.store_ms": "exec.cache.store",
    "machine.plan_ms": "machine.plan",
    "machine.cell_ms": "machine.cell",
    "machine.host_feed_ms": "machine.host_feed",
    "machine.collect_ms": "machine.collect",
    "machine.run_self_ms": "machine.run",
    "exec.batch.self_ms": "exec.batch",
}


def per_layer(workload, untraced, traced, tracer) -> dict[str, float]:
    n = len(traced)
    metrics = {
        name: tracer.self_s.get(label, 0.0) * 1e3 / n
        for name, label in SELF_MS.items()
    }
    metrics["lang.tokens"] = tracer.counts["lang.lex"] / n
    metrics["ir.build_calls"] = tracer.calls["ir.build"] / n
    metrics["cellcodegen.calls"] = tracer.calls["cellcodegen"] / n
    metrics["cellcodegen.instructions"] = tracer.counts["cellcodegen"] / n
    ops = tracer.counts["machine.cell"] / n
    metrics["machine.dynamic_ops"] = ops
    metrics["machine.cell_us_per_op"] = (
        metrics["machine.cell_ms"] * 1e3 / ops if ops else 0.0
    )
    traced_ms = statistics.fmean(p.wall_s for p in traced) * 1e3
    untraced_ms = statistics.fmean(p.wall_s for p in untraced) * 1e3
    metrics["trace.pass_ms"] = traced_ms
    metrics["trace.untraced_pass_ms"] = untraced_ms
    metrics["trace.overhead_ms"] = traced_ms - untraced_ms
    metrics["trace.unattributed_ms"] = (
        traced_ms - sum(tracer.self_s.values()) * 1e3 / n
    )
    metrics.update(
        {
            "exec.cache.artifact_bytes": 0.0,
            "exec.pool.program_bytes": 0.0,
            "exec.pool.result_bytes": 0.0,
            "exec.pool.retries": 0.0,
            "exec.pool.efficiency": 0.0,
        }
    )
    metrics.update(workload.layer_counts(untraced))
    return metrics


def measure_traced(args, workload) -> tuple[dict, list]:
    """Per-layer metrics.  Untraced and traced passes alternate, so the
    overhead baseline sees the same machine conditions as the trace."""
    from tracer import Tracer, install

    tracer = Tracer()
    untraced, traced = [], []
    deadline = perf_counter() + args.seconds
    while len(traced) < 2 or perf_counter() < deadline:
        untraced += run_passes(workload, 0, 1)
        install(tracer)
        try:
            traced += run_passes(workload, 0, 1)
        finally:
            tracer.uninstall()
    return per_layer(workload, untraced, traced, tracer), untraced + traced


def print_kinds(passes) -> None:
    """Latency per item of each kind of call, pooled over passes (for
    reading; not a gated metric)."""
    pooled: dict[str, list[float]] = {}
    for p in passes:
        for kind, item_s in p.calls:
            pooled.setdefault(kind, []).extend(s * 1e3 for s in item_s)
    for kind, values in pooled.items():
        cuts = statistics.quantiles(values, n=10, method="inclusive")
        print(
            f"{kind:<32} min {min(values):9.3f}   p50 "
            f"{statistics.median(values):9.3f}   p90 {cuts[8]:9.3f} ms"
            f"   n {len(values)}"
        )


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    started = perf_counter()
    from workloads import WORKLOADS

    scratch_root = ROOT / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    workload = None
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        setup_s = perf_counter() - started
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        workload.reference()
        # What the benchmark itself holds (inputs, expected outputs) must
        # not add to the collector's work inside the timed passes.
        gc.collect()
        gc.freeze()
        if args.trace:
            values, passes = measure_traced(args, workload)
            finish = workload.finish()
        else:
            setup_samples = [setup_s] + probe_setup(args)
            passes = run_passes(workload, args.seconds, MIN_PASSES)
            finish = workload.finish()
            values = end_to_end(workload, passes, finish, setup_samples)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    attempted = sum(p.attempted for p in passes) + finish.attempted
    failed = sum(p.failed for p in passes) + finish.failed
    # Simulated cycles are data-independent: every pass must repeat them.
    if len({p.sim_cycles for p in passes}) != 1:
        failed += 1
    print_kinds(passes)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
