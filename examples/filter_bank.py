"""A bank of FIR filters in parallel mode (Section 3's second usage
pattern): every cell owns one filter, the signal is broadcast down the
array, and each sample's outputs are collected through the Y channel.

A small analysis filter bank (low-pass to high-pass) decomposes a chirp;
the per-band energies show the chirp sweeping across the bands.

Run:  python examples/filter_bank.py
"""

import numpy as np

from repro import compile_w2, simulate
from repro.programs import fir_bank


def design_bank(n_filters: int, n_taps: int) -> np.ndarray:
    """Cosine-modulated prototype: band f centred at (f+0.5)/(2F) cycles."""
    taps = np.zeros((n_filters, n_taps))
    window = np.hanning(n_taps)
    k = np.arange(n_taps)
    for f in range(n_filters):
        centre = (f + 0.5) / (2.0 * n_filters)
        taps[f] = window * np.cos(2 * np.pi * centre * k)
        taps[f] /= np.abs(taps[f]).sum()
    return taps


def main() -> None:
    n_samples, n_filters, n_taps = 240, 6, 12
    t = np.arange(n_samples)
    # A chirp sweeping from DC to a quarter of the sample rate.
    phase = 2 * np.pi * (0.002 * t + 0.25 * t**2 / (2 * n_samples))
    signal = np.sin(phase)
    taps = design_bank(n_filters, n_taps)

    program = compile_w2(fir_bank(n_samples, n_filters, n_taps), unroll=2)
    print(f"compiled firbank: {n_filters} cells (one filter each), "
          f"{program.metrics.cell_ucode} cell instructions, "
          f"skew {program.skew.skew}")
    dynamic = len(program.iu_program.emission_times())
    print(f"IU streams {dynamic} addresses "
          f"({program.iu_program.n_registers_used} induction registers)")

    result = simulate(program, {"x": signal, "taps": taps})
    bank = result.output("y", (n_filters, n_samples))

    expected = np.stack(
        [np.convolve(signal, taps[f])[:n_samples] for f in range(n_filters)]
    )
    assert np.allclose(bank, expected)

    # Energy per band over four time windows: the chirp should climb.
    quarters = np.array_split(np.arange(n_samples), 4)
    print("\nband energy by time quarter (rows = band, low to high):")
    header = "    band " + "".join(f"   Q{q+1:<6}" for q in range(4))
    print(header)
    for f in range(n_filters):
        cells = "".join(
            f"{np.sum(bank[f, idx] ** 2):>9.3f} " for idx in quarters
        )
        print(f"    {f:>4} {cells}")

    dominant = [int(np.argmax([np.sum(bank[f, idx] ** 2)
                               for f in range(n_filters)]))
                for idx in quarters]
    print(f"\ndominant band per quarter: {dominant} "
          "(sweeping upward with the chirp)")
    print(f"{result.total_cycles} cycles "
          f"({result.total_cycles / n_samples:.1f} cycles/sample across "
          f"{n_filters} filters)")


if __name__ == "__main__":
    main()
