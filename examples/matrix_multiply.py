"""Matrix multiplication on the Warp array (Section 2.2's motivating
mapping): each cell owns a group of columns of B in its 4K-word local
memory, rows of A stream through all cells, and result columns are
collected down the Y channel.

This workload exercises the full IU path: every ``bcol``/``arow`` access
needs an address from the interface unit's address stream, generated by
strength reduction at compile time.

Run:  python examples/matrix_multiply.py
"""

import numpy as np

from repro import compile_w2, simulate
from repro.compiler import decomposition_report
from repro.programs import matmul


def main() -> None:
    n, cells = 24, 8
    rng = np.random.default_rng(11)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))

    print(f"C = A x B for {n}x{n} matrices on {cells} cells\n")

    print(f"{'unroll':>6} {'cycles':>8} {'FP ops/cycle':>13} "
          f"{'cell ucode':>11}")
    for unroll in (1, 2, 4):
        program = compile_w2(matmul(n, cells), unroll=unroll)
        result = simulate(program, {"a": a, "b": b})
        assert np.allclose(result.output("c", (n, n)), a @ b)
        flops = sum(c.fp_ops for c in result.machine_metrics.cells)
        print(
            f"{unroll:>6} {result.total_cycles:>8} "
            f"{flops / result.total_cycles:>13.2f} "
            f"{program.metrics.cell_ucode:>11}"
        )

    # Where did the computation go?  (Section 6.1's decomposition.)
    program = compile_w2(matmul(n, cells))
    report = decomposition_report(program)
    print("\ncomputation decomposition:")
    print(f"    cell microcode        : {report.cell_instructions} instructions")
    print(f"    IU microcode          : {report.iu_instructions} instructions")
    print(f"    IU-addressed mem refs : {report.iu_supplied_addresses} "
          "in the microcode")
    print(f"    host feeds            : {report.host_inputs} words")
    print(f"    host stores           : {report.host_outputs} words")
    print(f"    IU induction registers: {program.iu_program.n_registers_used} "
          f"of {program.config.iu.n_registers}")

    # The IU must meet every address deadline.
    emissions = program.iu_program.emission_times()
    slack = emissions[:, 1] - emissions[:, 0]
    print(f"\nIU address emissions: {len(emissions)}; "
          f"deadline slack min/median: {slack.min()}/{int(np.median(slack))} cycles")


if __name__ == "__main__":
    main()
