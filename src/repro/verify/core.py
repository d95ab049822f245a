"""The independent schedule verifier — orchestration and levels.

``verify_artifacts`` re-derives the paper's invariants from the emitted
artifacts alone (``CellCode``, ``IUProgram``, ``HostProgram`` — never
the IR that produced them) and cross-checks them against the compiler's
declared ``skew`` / buffer requirements.  Three levels:

* ``off``   — nothing runs;
* ``quick`` — static per-block replay (hazards, register lifetimes,
  metadata) and the static IU address-path checks;
* ``full``  — adds the dynamic IU emission walk, exact stream
  re-enumeration (conservation, skew, occupancy) and the tau(n)
  closed-form cross-check.

``WarpConfig.verify`` defaults to ``"default"``, which resolves through
the ``REPRO_VERIFY`` environment variable (the test suite sets it to
``full``) and falls back to ``quick`` for production compiles: its
static checks cost about as much as a compile's noise, while ``full``
stays opt-in.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from ..cellcodegen.emit import CellCode
from ..config import WarpConfig
from ..hostcodegen.io_program import HostProgram
from ..iucodegen.codegen import IUProgram
from ..obs import get_telemetry
from ..timing.buffers import BufferRequirement
from ..timing.skew import SkewResult
from .iupath import check_emissions, check_iu_path, walk_emissions
from .replay import replay_cell_code
from .report import VerificationReport
from .streams import check_streams

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..compiler.driver import CompiledProgram

LEVELS = ("off", "quick", "full")

#: Environment variable consulted when ``WarpConfig.verify`` is left at
#: ``"default"``.
ENV_VAR = "REPRO_VERIFY"


def resolve_level(level: str) -> str:
    """Resolve a configured verify level to one of :data:`LEVELS`."""
    if level == "default":
        level = os.environ.get(ENV_VAR) or "quick"
    if level not in LEVELS:
        raise ValueError(
            f"unknown verify level {level!r}; expected one of "
            f"{', '.join(LEVELS)} (or 'default')"
        )
    return level


def verify_artifacts(
    cell_code: CellCode,
    iu_program: IUProgram,
    host_program: HostProgram,
    *,
    skew: SkewResult,
    buffers: list[BufferRequirement],
    config: WarpConfig,
    n_cells: int,
    level: str = "full",
) -> VerificationReport:
    """Run the verifier over one compiled module's artifacts."""
    level = resolve_level(level)
    report = VerificationReport(level=level)
    if level == "off":
        return report
    obs = get_telemetry()
    with obs.span("verify"):
        replays = replay_cell_code(cell_code, report)
        shape_ok = check_iu_path(
            cell_code, iu_program, config, replays, report
        )
        if level == "full":
            emissions = walk_emissions(iu_program)
            if shape_ok:
                check_emissions(iu_program, config, emissions, report)
            check_streams(
                cell_code,
                emissions,
                host_program,
                skew,
                buffers,
                config,
                n_cells,
                report,
            )
    obs.counter("verify.checks", len(report.checks_run))
    obs.counter("verify.diagnostics", len(report.diagnostics))
    return report


def verify_program(
    program: "CompiledProgram", level: str | None = None
) -> VerificationReport:
    """Verify an already-compiled program (CLI / test entry point), by
    default at the level its config resolves to, or ``full`` when that is
    ``off``."""
    if level is None:
        level = resolve_level(program.config.verify)
        if level == "off":
            level = "full"
    return verify_artifacts(
        program.cell_code,
        program.iu_program,
        program.host_program,
        skew=program.skew,
        buffers=program.buffers,
        config=program.config,
        n_cells=program.n_cells,
        level=level,
    )
