"""Edge detection with the 3x3 systolic convolution (the paper's
headline application: "two-dimensional convolution ... at a peak rate of
100 million floating-point operations per second").

Three cells, one kernel row each; every cell delays the pixel stream by
one image row through a ring buffer in its local memory — so the whole
IU address path (two memory references per pixel, strength-reduced to
add-only induction registers) is exercised on every cycle.

Run:  python examples/edge_detection.py
"""

import numpy as np

from repro import compile_w2, simulate
from repro.compiler import decomposition_report
from repro.programs import conv2d

WIDTH, HEIGHT = 40, 20


def synthetic_scene() -> np.ndarray:
    """A dark scene with a bright rectangle and a diagonal bar."""
    image = np.zeros((HEIGHT, WIDTH))
    image[5:15, 6:18] = 1.0
    for d in range(12):
        r, c = 4 + d, 24 + d
        if r < HEIGHT and c < WIDTH:
            image[r, c - 1 : c + 2] = 1.0
    return image


def show(label: str, data: np.ndarray) -> None:
    glyphs = " .:-=+*#%@"
    print(f"\n{label}:")
    lo, hi = data.min(), data.max()
    scaled = (data - lo) / max(hi - lo, 1e-9) * (len(glyphs) - 1)
    for row in scaled.astype(int):
        print("    " + "".join(glyphs[v] for v in row))


def main() -> None:
    image = synthetic_scene()
    laplacian = np.array(
        [[0.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 0.0]]
    )

    program = compile_w2(conv2d(WIDTH, HEIGHT), unroll=2)
    report = decomposition_report(program)
    print(f"compiled conv2d: 3 cells, "
          f"{program.metrics.cell_ucode} cell instructions, "
          f"skew {program.skew.skew}")
    dynamic = len(program.iu_program.emission_times())
    print(f"IU address path: {report.iu_supplied_addresses} addressed "
          f"memory references in the microcode, {dynamic} addresses "
          f"streamed per run ({program.iu_program.n_registers_used} "
          "induction registers)")

    result = simulate(program, {"x": image, "k": laplacian})
    response = result.output("y", (HEIGHT, WIDTH))

    show("input scene", image)
    # The systolic output is shifted by the pipeline's (1 row, 2 col)
    # latency; crop to the aligned interior for display.
    edges = np.abs(response[1:, 2:])
    show("edge response (|Laplacian|)", edges)

    pixels = WIDTH * HEIGHT
    flops = sum(c.fp_ops for c in result.machine_metrics.cells)
    print(f"\n{result.total_cycles} cycles for {pixels} pixels "
          f"({result.total_cycles / pixels:.1f} cycles/pixel, "
          f"{flops / result.total_cycles:.2f} FP ops/cycle on 3 cells)")


if __name__ == "__main__":
    main()
