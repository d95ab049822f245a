"""The W2 sample programs evaluated in the paper (Table 7-1), plus extras.

Each function returns W2 source text, parameterised where the paper's
sizes would make cycle-level simulation slow (e.g. image dimensions); the
defaults are the paper's sizes.  The five Table 7-1 programs:

* :func:`polynomial` — Figure 4-1: Horner's-rule polynomial evaluation,
  one coefficient per cell;
* :func:`conv1d` — 1-dimensional convolution, one kernel element per cell;
* :func:`binop` — an elementwise binary operator over an image;
* :func:`colorseg` — colour segmentation by per-pixel classification;
* :func:`mandelbrot` — fixed-iteration Mandelbrot on one cell.

Extras used by examples and tests: :func:`matmul`, :func:`passthrough`,
:func:`deep_nest`, and the bidirectional programs of Figure 5-1.
"""

from .sources import (
    binop,
    bidirectional_cycle,
    bidirectional_exchange,
    colorseg,
    conv1d,
    conv2d,
    deep_nest,
    fir_bank,
    mandelbrot,
    matmul,
    passthrough,
    polynomial,
    TABLE_7_1_PROGRAMS,
)

__all__ = [
    "TABLE_7_1_PROGRAMS",
    "bidirectional_cycle",
    "bidirectional_exchange",
    "binop",
    "colorseg",
    "conv1d",
    "conv2d",
    "deep_nest",
    "fir_bank",
    "mandelbrot",
    "matmul",
    "passthrough",
    "polynomial",
]
