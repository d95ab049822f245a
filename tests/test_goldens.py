"""Golden-file tests for the cell microcode listings and Figure 4-2.

Fixed small programs are compiled and their
:func:`repro.cellcodegen.listing.format_cell_code` output compared
*character for character* against ``tests/goldens/*.listing``; the
Figure 4-2 send/receive trace of polynomial(12, 4) on fixed-seed inputs
is compared against ``tests/goldens/*.trace``, and the Chrome machine
events of recorded polynomial(12, 4) runs against ``tests/goldens/*.json``.
Any change to scheduling, register allocation, the trace, the machine
lanes or the listing format shows up as a diff here; run ``pytest --update-goldens`` to accept an
intentional change and review the new files in the commit.
"""

from __future__ import annotations

import difflib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cellcodegen.listing import format_cell_code
from repro.compiler import compile_w2
from repro.faults import FaultKind, FaultSpec, InjectionPlan
from repro.machine import simulate
from repro.machine.trace import format_two_cell_trace
from repro.obs.chrome_trace import machine_trace_events
from repro.programs import conv1d, conv2d, passthrough, polynomial

GOLDENS_DIR = Path(__file__).resolve().parent / "goldens"

#: name -> (W2 source, compile kwargs).  Parameters are pinned: goldens
#: are exact artefacts, not families.
GOLDEN_PROGRAMS = {
    "polynomial_8x3": (polynomial(8, 3), {}),
    "conv1d_12x3": (conv1d(12, 3), {}),
    "passthrough_8x2_unroll2": (passthrough(8, 2), {"unroll": 2}),
    # The fault-matrix conv2d variant: its ring-buffer schedule is the
    # regression surface for same-cycle IU address ordering.
    "conv2d_6x5": (conv2d(6, 5), {}),
}


#: name -> the cell pair of the polynomial(12, 4) Figure 4-2 trace.
#: Cells 2 and 3 exercise a middle link and the collector link.
GOLDEN_TRACES = {
    "polynomial_12x4_cells01": (0, 1),
    "polynomial_12x4_cells23": (2, 3),
}

#: name -> the faults of a recorded polynomial(12, 4) run whose Chrome
#: machine events are pinned.  Stalling the last cell moves its block
#: spans and its sends without tripping any check.
GOLDEN_MACHINE_EVENTS = {
    "polynomial_12x4_machine": None,
    "polynomial_12x4_stall3_machine": InjectionPlan(
        (FaultSpec(FaultKind.STALL_CELL, cell=3, cycles=10),)
    ),
}


def _compare_golden(text: str, filename: str, update_goldens: bool) -> None:
    golden_path = GOLDENS_DIR / filename
    if update_goldens:
        GOLDENS_DIR.mkdir(exist_ok=True)
        golden_path.write_text(text)
        return

    assert golden_path.exists(), (
        f"missing golden {golden_path.name}; run pytest --update-goldens"
    )
    expected = golden_path.read_text()
    if text != expected:
        diff = "\n".join(
            difflib.unified_diff(
                expected.splitlines(),
                text.splitlines(),
                fromfile=f"goldens/{filename}",
                tofile="current output",
                lineterm="",
            )
        )
        pytest.fail(
            f"{filename} changed (run pytest --update-goldens "
            f"if intentional):\n{diff}"
        )


@pytest.mark.parametrize("name", sorted(GOLDEN_PROGRAMS))
def test_listing_matches_golden(name, update_goldens):
    source, kwargs = GOLDEN_PROGRAMS[name]
    program = compile_w2(source, **kwargs)
    listing = format_cell_code(program.cell_code) + "\n"
    _compare_golden(listing, f"{name}.listing", update_goldens)


@pytest.mark.parametrize("name", sorted(GOLDEN_TRACES))
def test_figure_4_2_trace_matches_golden(name, update_goldens):
    rng = np.random.default_rng(1986)
    program = compile_w2(polynomial(12, 4))
    inputs = {"z": rng.uniform(-1, 1, 12), "c": rng.standard_normal(4)}
    result = simulate(program, inputs, trace_limit=16)
    text = format_two_cell_trace(result.trace, cells=GOLDEN_TRACES[name])
    _compare_golden(text + "\n", f"{name}.trace", update_goldens)


@pytest.mark.parametrize("name", sorted(GOLDEN_MACHINE_EVENTS))
def test_chrome_machine_events_match_golden(name, update_goldens):
    rng = np.random.default_rng(1986)
    program = compile_w2(polynomial(12, 4))
    inputs = {"z": rng.uniform(-1, 1, 12), "c": rng.standard_normal(4)}
    result = simulate(
        program, inputs, trace_limit=5, record=True,
        faults=GOLDEN_MACHINE_EVENTS[name],
    )
    events = machine_trace_events(result.machine_metrics, result.record)
    text = "[\n" + ",\n".join(json.dumps(event) for event in events) + "\n]\n"
    _compare_golden(text, f"{name}.json", update_goldens)


def test_goldens_directory_has_no_strays():
    """Every golden on disk corresponds to a case above (catches
    renamed cases leaving stale files behind)."""
    expected = {f"{name}.listing" for name in GOLDEN_PROGRAMS}
    expected |= {f"{name}.trace" for name in GOLDEN_TRACES}
    expected |= {f"{name}.json" for name in GOLDEN_MACHINE_EVENTS}
    actual = {
        path.name
        for suffix in ("listing", "trace", "json")
        for path in GOLDENS_DIR.glob(f"*.{suffix}")
    }
    assert actual == expected
