"""IU address-path verification — the PR 3 bug class, checked statically.

The cells consume IU-supplied addresses strictly in instruction-slot
order (the address path is a FIFO), so the IU program is correct only if
its per-block emission stream lines up, position by position, with the
queue-addressed memory operations re-derived from the instruction words:
same count, same deadline cycles, same affine expressions as the block's
``addr_demands`` declared.  On top of the pairing, the emission schedule
itself must be feasible: every address emitted at or before its
deadline, within the lookbehind window, at most ``emit_ports`` per
cycle, and (dynamically) non-decreasing on the absolute timeline with
every address inside the cell's data memory.
"""

from __future__ import annotations

import numpy as np

from ..cellcodegen.emit import CellCode, ScheduledBlock, ScheduledLoop
from ..cellcodegen.emit import block_runs
from ..config import WarpConfig
from ..iucodegen.codegen import IUBlock, IULoop, IUProgram, MAX_LOOKBEHIND
from .replay import BlockReplay
from .report import VerificationReport
from .streams import MAX_EVENTS

IU_CHECKS = (
    "iu.shape",
    "iu.slot_order",
    "iu.expressions",
    "iu.deadline",
    "iu.emit_ports",
    "iu.fifo_order",
    "iu.address_bounds",
)


def walk_emissions(iu: IUProgram) -> np.ndarray | None:
    """Every dynamic emission's (emit cycle, deadline cycle, address),
    as :meth:`~repro.iucodegen.codegen.IUProgram.emission_times` rows
    (taken once per verification); None when the static tree promises
    more than :data:`~repro.verify.streams.MAX_EVENTS` of them."""
    if _dynamic_emissions(iu.items) > MAX_EVENTS:
        return None
    return iu.emission_times()


def check_iu_path(
    code: CellCode,
    iu: IUProgram,
    config: WarpConfig,
    replays: dict[int, BlockReplay],
    report: VerificationReport,
) -> bool:
    """The static checks; False when the IU tree's shape diverges from
    the cell code's, which poisons the dynamic checks."""
    for check in IU_CHECKS:
        report.ran(check)
    return _check_tree(code.items, iu.items, iu, config, replays, report)


def check_emissions(
    iu: IUProgram,
    config: WarpConfig,
    emissions: np.ndarray | None,
    report: VerificationReport,
) -> None:
    """The dynamic checks over the whole emission walk: FIFO order and
    deadlines on the absolute timeline, addresses inside cell memory."""
    total = _dynamic_emissions(iu.items)
    if emissions is None:
        report.notes.append(
            f"iu: {total} dynamic emissions exceed the {MAX_EVENTS} "
            "budget; dynamic address checks skipped"
        )
        return
    emit, deadline, address = emissions.T
    reordered = np.zeros(emit.shape, dtype=bool)
    reordered[1:] = emit[1:] < emit[:-1]
    late = emit > deadline
    outside = (address < 0) | (address >= config.cell.memory_words)
    for i in np.flatnonzero(reordered | late | outside):
        if reordered[i]:
            report.add(
                "iu.fifo_order",
                f"emission at absolute cycle {emit[i]} follows one at "
                f"{emit[i - 1]} — the address path FIFO would reorder them",
            )
        if late[i]:
            report.add(
                "iu.deadline",
                f"address for absolute cycle {deadline[i]} emitted at "
                f"{emit[i]}, after its deadline",
            )
        if outside[i]:
            report.add(
                "iu.address_bounds",
                f"emitted address {address[i]} outside the "
                f"{config.cell.memory_words}-word data memory",
            )
    if emit.size != total:
        report.add(
            "iu.shape",
            f"emission walk produced {emit.size} addresses but the static "
            f"tree promises {total}",
        )


def _check_tree(
    cell_items,
    iu_items,
    iu: IUProgram,
    config: WarpConfig,
    replays,
    report: VerificationReport,
) -> bool:
    """Walk both trees in lockstep; any shape divergence poisons the
    deeper checks, so report it and stop."""
    if len(cell_items) != len(iu_items):
        report.add(
            "iu.shape",
            f"cell program has {len(cell_items)} items where the IU "
            f"program has {len(iu_items)}",
        )
        return False
    ok = True
    for cell_item, iu_item in zip(cell_items, iu_items):
        if isinstance(cell_item, ScheduledBlock):
            if not isinstance(iu_item, IUBlock):
                report.add(
                    "iu.shape",
                    f"cell block {cell_item.block_id} pairs with an IU "
                    "loop",
                    block_id=cell_item.block_id,
                )
                ok = False
                continue
            if (
                iu_item.block_id != cell_item.block_id
                or iu_item.length != cell_item.length
            ):
                report.add(
                    "iu.shape",
                    f"IU block {iu_item.block_id} (length "
                    f"{iu_item.length}) pairs with cell block "
                    f"{cell_item.block_id} (length {cell_item.length})",
                    block_id=cell_item.block_id,
                )
                ok = False
                continue
            _check_block(cell_item, iu_item, iu, config, replays, report)
        else:
            assert isinstance(cell_item, ScheduledLoop)
            if not isinstance(iu_item, IULoop):
                report.add(
                    "iu.shape",
                    f"cell loop {cell_item.loop_id} pairs with an IU block",
                )
                ok = False
                continue
            if (
                iu_item.loop_id != cell_item.loop_id
                or iu_item.trip != cell_item.trip
                or iu_item.var != cell_item.var
                or iu_item.start != cell_item.start
                or iu_item.step != cell_item.step
            ):
                report.add(
                    "iu.shape",
                    f"IU loop {iu_item.loop_id} "
                    f"({iu_item.var}: {iu_item.start} step {iu_item.step} "
                    f"x{iu_item.trip}) diverges from cell loop "
                    f"{cell_item.loop_id} ({cell_item.var}: "
                    f"{cell_item.start} step {cell_item.step} "
                    f"x{cell_item.trip})",
                )
                ok = False
                continue
            ok = _check_tree(
                cell_item.body, iu_item.body, iu, config, replays, report
            ) and ok
    return ok


def _check_block(
    block: ScheduledBlock,
    iu_block: IUBlock,
    iu: IUProgram,
    config: WarpConfig,
    replays: dict[int, BlockReplay],
    report: VerificationReport,
) -> None:
    replay = replays.get(block.block_id)
    slot_cycles = (
        [cycle for cycle, _is_load in replay.addr_ops]
        if replay is not None
        else [d.cycle for d in block.addr_demands]
    )
    deadlines = [e.deadline for e in iu_block.emissions]
    if deadlines != slot_cycles:
        report.add(
            "iu.slot_order",
            f"IU emission deadlines {deadlines} do not match the "
            f"queue-addressed memory ops at cycles {slot_cycles} "
            "(instruction-slot order) — same-cycle addresses would be "
            "consumed by the wrong reference",
            block_id=block.block_id,
        )
        return
    # Pair by position: emission k feeds the k-th addressed op, whose
    # declared expression must be the one the IU will evaluate.
    for position, (emission, demand) in enumerate(
        zip(iu_block.emissions, block.addr_demands)
    ):
        if not (0 <= emission.expr_index < len(iu.plan.expressions)):
            report.add(
                "iu.expressions",
                f"emission {position} references expression "
                f"{emission.expr_index}, outside the plan's "
                f"{len(iu.plan.expressions)} expressions",
                block_id=block.block_id,
                cycle=emission.deadline,
            )
            continue
        expression = iu.plan.expressions[emission.expr_index]
        if expression != demand.expression:
            report.add(
                "iu.expressions",
                f"emission {position} computes {expression} but the cell "
                f"declared {demand.expression} for the reference at "
                f"cycle {demand.cycle}",
                block_id=block.block_id,
                cycle=demand.cycle,
            )
        if emission.cycle > emission.deadline:
            report.add(
                "iu.deadline",
                f"emission {position} scheduled at IU cycle "
                f"{emission.cycle}, after its cycle-{emission.deadline} "
                "deadline",
                block_id=block.block_id,
                cycle=emission.deadline,
            )
        if emission.deadline - emission.cycle > MAX_LOOKBEHIND:
            report.add(
                "iu.deadline",
                f"emission {position} borrows "
                f"{emission.deadline - emission.cycle} cycles, past the "
                f"{MAX_LOOKBEHIND}-cycle lookbehind window",
                block_id=block.block_id,
                cycle=emission.deadline,
            )
    port_use: dict[int, int] = {}
    for emission in iu_block.emissions:
        port_use[emission.cycle] = port_use.get(emission.cycle, 0) + 1
    for cycle, used in sorted(port_use.items()):
        if used > config.iu.emit_ports:
            report.add(
                "iu.emit_ports",
                f"{used} addresses emitted in IU cycle {cycle} "
                f"({config.iu.emit_ports} emit ports)",
                block_id=block.block_id,
                cycle=cycle,
            )
    cycles = [e.cycle for e in iu_block.emissions]
    if any(b < a for a, b in zip(cycles, cycles[1:])):
        report.add(
            "iu.fifo_order",
            f"emission cycles {cycles} are not FIFO-ordered within the "
            "block",
            block_id=block.block_id,
        )


def _dynamic_emissions(items) -> int:
    return sum(runs * len(b.emissions) for b, runs in block_runs(items))
