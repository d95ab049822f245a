"""repro — a reproduction of Gross & Lam, PLDI 1986.

"Compilation for a High-performance Systolic Array": the W2 language,
the Warp compiler (flow analysis, computation decomposition, cell/IU/host
code generation, compile-time synchronisation via minimum-skew analysis)
and a cycle-level simulator of the Warp machine.

Quickstart::

    import numpy as np
    from repro import compile_w2, simulate
    from repro.programs import polynomial

    program = compile_w2(polynomial(n_points=100, n_cells=10))
    result = simulate(program, {"z": z_values, "c": coefficients})
    print(result.outputs["results"])

Package map:

* :mod:`repro.lang` — W2 lexer, parser, AST, semantic analysis;
* :mod:`repro.ir` — basic-block DAGs and the structured program tree;
* :mod:`repro.analysis` — local optimisation, global flow summaries,
  communication-cycle classification;
* :mod:`repro.timing` — five-vector timing functions, minimum skew,
  queue-size analysis (Section 6.2);
* :mod:`repro.cellcodegen` / :mod:`repro.iucodegen` /
  :mod:`repro.hostcodegen` — the three code generators;
* :mod:`repro.compiler` — the driver (:func:`compile_w2`) and reports;
* :mod:`repro.machine` — the cycle-level Warp simulator and the
  AST-level reference interpreter;
* :mod:`repro.models` — abstract SIMD vs. skewed execution models
  (Section 3);
* :mod:`repro.programs` — the Table 7-1 evaluation programs;
* :mod:`repro.exec` — compile cache and batched execution engine
  (retries, per-item timeouts, partial results);
* :mod:`repro.faults` — deterministic, seedable fault injection
  (see ``docs/robustness.md``).
"""

__version__ = "1.0.0"

from .compiler import CompiledProgram, compile_w2
from .config import DEFAULT_CONFIG, CellConfig, IUConfig, WarpConfig
from .exec import (
    BatchResult,
    BatchRunner,
    CompileCache,
    ItemFailure,
    compile_cached,
)
from .faults import FaultInjector, FaultKind, FaultSpec, InjectionPlan
from .lang import analyze, parse_module
from .machine import SimulationResult, WarpMachine, interpret, simulate

__all__ = [
    "BatchResult",
    "BatchRunner",
    "FaultInjector",
    "FaultKind",
    "FaultSpec",
    "InjectionPlan",
    "ItemFailure",
    "CellConfig",
    "CompileCache",
    "CompiledProgram",
    "DEFAULT_CONFIG",
    "IUConfig",
    "SimulationResult",
    "WarpConfig",
    "WarpMachine",
    "analyze",
    "compile_cached",
    "compile_w2",
    "interpret",
    "parse_module",
    "simulate",
    "__version__",
]
