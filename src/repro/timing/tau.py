"""The timing functions ``tau(n)`` of Section 6.2.1.

For each static I/O statement ``m``, ``tau_m(n)`` maps the ordinal
number of a stream operation to the clock cycle it executes, relative to
the program start; it is defined only for ordinals that this statement
actually executes (the statement's *domain*).

Evaluation follows the paper's nested decomposition

    g(1) = n,   g(j+1) = (g(j) - s_j) mod n_j
    tau(n) = sum_j ( t_j + floor((g(j) - s_j) / n_j) * l_j )

and the domain is the set of ``n`` for which every level's iteration
number lies within the loop's trip count.

For the bound computation, ``tau`` is also exposed as an exact linear
form over ``n`` and the ``g(j)`` remainders (with rational coefficients,
as in the paper's ``52/3 + 5/3 n - 2/3 (n-4) mod 3`` example), each
``g(j)`` ranging over a known interval.

The scalar methods are the reference; :func:`evaluate_domains` and
:func:`time_difference_bounds` evaluate the same closed forms in bulk,
exactly (integers only, never floats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .vectors import IOCharacterization


@dataclass(frozen=True)
class LinearTerm:
    """``coefficient * variable`` where the variable ranges over
    ``[lower, upper]`` (inclusive)."""

    coefficient: Fraction
    lower: int
    upper: int

    def maximum(self) -> Fraction:
        bound = self.upper if self.coefficient >= 0 else self.lower
        return self.coefficient * bound

    def minimum(self) -> Fraction:
        bound = self.lower if self.coefficient >= 0 else self.upper
        return self.coefficient * bound


@dataclass(frozen=True)
class LinearForm:
    """``constant + coeff_n * n + sum(terms over g(j) remainders)``."""

    constant: Fraction
    n_coefficient: Fraction
    #: Terms over the g(j) variables, j >= 2.
    g_terms: tuple[LinearTerm, ...]
    #: Domain of n.
    n_lower: int
    n_upper: int


class TimingFunction:
    """``tau(n)`` for one characterised statement."""

    def __init__(self, char: IOCharacterization):
        self.char = char
        self._k = char.depth

    # Exact evaluation -----------------------------------------------------

    def in_domain(self, n: int) -> bool:
        g = n
        for j in range(self._k):
            adjusted = g - self.char.S[j]
            if adjusted < 0:
                return False
            iteration, g = divmod(adjusted, self.char.N[j])
            if iteration >= self.char.R[j]:
                return False
        return g == 0

    def __call__(self, n: int) -> int:
        """Evaluate tau(n); raises ValueError outside the domain."""
        g = n
        total = 0
        for j in range(self._k):
            adjusted = g - self.char.S[j]
            if adjusted < 0:
                raise ValueError(f"n={n} not in domain of {self.char}")
            iteration, g = divmod(adjusted, self.char.N[j])
            if iteration >= self.char.R[j]:
                raise ValueError(f"n={n} not in domain of {self.char}")
            total += self.char.T[j] + iteration * self.char.L[j]
        if g != 0:
            raise ValueError(f"n={n} not in domain of {self.char}")
        return total

    def domain(self) -> list[int]:
        """All valid ordinals (enumerated; use with small programs)."""
        return [n for n in range(self.n_min(), self.n_max() + 1) if self.in_domain(n)]

    # Domain extremes ------------------------------------------------------

    def n_min(self) -> int:
        """Smallest valid ordinal: first iteration at every level."""
        return sum(self.char.S)

    def n_max(self) -> int:
        """Largest valid ordinal: last iteration at every level."""
        n = 0
        # Build from the innermost level outwards: at level j the ordinal
        # within the loop is s_j + (r_j - 1) * n_j + (inner ordinal).
        for j in reversed(range(self._k)):
            n = self.char.S[j] + (self.char.R[j] - 1) * self.char.N[j] + n
        return n

    # Linear form for the bounding method ------------------------------------

    def linear_form(self) -> LinearForm:
        """The paper's closed form.

        tau(n) = sum_j t_j - sum_j (l_j/n_j) s_j + (l_1/n_1) g(1)
                 + sum_{j>=2} (l_j/n_j - l_{j-1}/n_{j-1}) g(j)
                 - (l_k/n_k) g(k+1)

        with g(1) = n and each g(j), j >= 2, bounded by both its mod
        range ``[0, n_{j-1} - 1]`` and the domain constraint
        ``sum_{m>=j} s_m <= g(j) <= (r_j - 1) n_j + sum_{m>=j} s_m``.
        g(k+1) is always 0 for single-operation statements (n_k = 1), so
        its term vanishes.
        """
        char = self.char
        ratio = [Fraction(char.L[j], char.N[j]) for j in range(self._k)]
        constant = Fraction(sum(char.T))
        for j in range(self._k):
            constant -= ratio[j] * char.S[j]
        terms = tuple(
            LinearTerm(ratio[j] - ratio[j - 1], lower, upper)
            for j, lower, upper in self._g_ranges()
            if ratio[j] != ratio[j - 1]
        )
        return LinearForm(
            constant=constant,
            n_coefficient=ratio[0],
            g_terms=terms,
            n_lower=self.n_min(),
            n_upper=self.n_max(),
        )

    def scaled_extremes(self, denominator: int) -> tuple[int, int, int]:
        """:meth:`linear_form` times ``denominator`` (a multiple of every
        ``N[j]``), in integers: ``(n coefficient, constant + minimum of
        the g terms, constant + maximum of the g terms)``."""
        char = self.char
        ratio = [char.L[j] * (denominator // char.N[j]) for j in range(self._k)]
        constant = sum(char.T) * denominator - sum(
            r * s for r, s in zip(ratio, char.S)
        )
        low = high = constant
        for j, lower, upper in self._g_ranges():
            coefficient = ratio[j] - ratio[j - 1]
            low += coefficient * (lower if coefficient >= 0 else upper)
            high += coefficient * (upper if coefficient >= 0 else lower)
        return ratio[0], low, high

    def _g_ranges(self) -> list[tuple[int, int, int]]:
        """``(j, lower, upper)`` of every g(j+1) variable (paper
        indexing, so j >= 1) whose range is not empty."""
        char = self.char
        suffix_s = [0] * (self._k + 1)
        for j in reversed(range(self._k)):
            suffix_s[j] = suffix_s[j + 1] + char.S[j]
        ranges = []
        for j in range(1, self._k):
            lower = suffix_s[j]
            upper = min(
                (char.R[j] - 1) * char.N[j] + suffix_s[j],
                char.N[j - 1] - 1,
            )
            if upper >= lower:
                ranges.append((j, lower, upper))
        return ranges


def evaluate_domains(
    chars: Sequence[IOCharacterization],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every statement's domain and tau(n) over it, for all of ``chars``
    in one pass: ``(owner, domain, times)`` as int64 arrays, ``owner``
    being each entry's index into ``chars``.  Each statement's entries
    are contiguous and in ascending ``n``, statements in the order given.

    Each statement's iteration box (``R[0] x ... x R[k-1]``, outermost
    first) is enumerated and mapped to its ordinal ``n = sum_j S[j] +
    i_j * N[j]``; an iteration vector is kept when the decomposition of
    ``n`` gives it back, that is when every inner remainder ``g(j+1) =
    sum_{m > j} S[m] + i_m * N[m]`` lies in ``[0, N[j])``.  Where every
    ``N[j] >= 1`` (a statement is one of each of its loops' body events,
    so every characterisation :func:`~repro.timing.vectors.characterize_streams`
    builds), the kept ordinals are exactly :meth:`TimingFunction.domain`,
    in order, from one element per promised execution rather than one
    per ordinal in ``[n_min, n_max]``.  Shorter statements are padded on
    the inside with single-iteration levels (``R = N = 1``, ``S = L =
    0``), which change no ordinal and no time.
    """
    if not chars:
        empty = np.empty(0, np.int64)
        return empty, empty, empty
    depth = max(char.depth for char in chars)
    fills = (1, 1, 0, 0)  # R, N, S and L of a single-iteration level
    # (statements, 4, depth): R, N, S and L, outermost level first.
    levels = np.array(
        [
            [v + (f,) * (depth - len(v)) for v, f in zip((c.R, c.N, c.S, c.L), fills)]
            for c in chars
        ],
        np.int64,
    ).reshape(len(chars), 4, depth)
    sizes = np.prod(np.maximum(levels[:, 0], 0), axis=1)
    owner = np.repeat(np.arange(len(chars)), sizes)
    R, N, S, L = np.repeat(levels, sizes, axis=0).transpose(1, 2, 0)
    # Each entry's index in its statement's box, consumed level by level
    # from the innermost (least significant) digit.
    rank = np.arange(owner.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    times = np.repeat(np.array([sum(c.T) for c in chars], np.int64), sizes)
    n = np.zeros_like(owner)
    kept = np.ones(owner.size, dtype=bool)
    for j in reversed(range(depth)):
        kept &= (n >= 0) & (n < N[j])
        rank, iteration = np.divmod(rank, R[j])
        n += S[j] + iteration * N[j]
        times += iteration * L[j]
    return owner[kept], n[kept], times[kept]


def max_time_difference_bound(
    output: TimingFunction, input_: TimingFunction
) -> Fraction | None:
    """Upper bound on ``max(tau_O(n) - tau_I(n))`` over the (relaxed)
    intersection of both domains — the paper's cheap bound.

    Returns None when the ordinal ranges are disjoint (no data produced
    by the output statement is ever read by the input statement).
    """
    out_form = output.linear_form()
    in_form = input_.linear_form()
    n_lower = max(out_form.n_lower, in_form.n_lower)
    n_upper = min(out_form.n_upper, in_form.n_upper)
    if n_lower > n_upper:
        return None
    n_coeff = out_form.n_coefficient - in_form.n_coefficient
    best = out_form.constant - in_form.constant
    best += n_coeff * (n_upper if n_coeff >= 0 else n_lower)
    for term in out_form.g_terms:
        best += term.maximum()
    for term in in_form.g_terms:
        best -= term.minimum()
    return best


def time_difference_bounds(
    outputs: list[TimingFunction], inputs: list[TimingFunction]
) -> tuple[list[list[int | None]], int]:
    """:func:`max_time_difference_bound` of every (output, input) pair,
    as ``(numerators, denominator)``: ``numerators[i][j] / denominator``
    is the pair's bound, None where the ordinal ranges are disjoint.

    The part of each bound that depends on one side only (its constant
    plus the extreme of its ``g`` terms) is computed once per statement,
    in integers over the least common denominator of every ``N[j]``, so
    the grid is exact without a single ``Fraction``.
    """
    denominator = math.lcm(*(n for tau in outputs + inputs for n in tau.char.N))
    sides = [
        [
            (tau.n_min(), tau.n_max(), *tau.scaled_extremes(denominator))
            for tau in side
        ]
        for side in (outputs, inputs)
    ]
    numerators: list[list[int | None]] = []
    for out_lower, out_upper, out_slope, _low, high in sides[0]:
        row: list[int | None] = []
        for in_lower, in_upper, in_slope, low, _high in sides[1]:
            lower, upper = max(out_lower, in_lower), min(out_upper, in_upper)
            slope = out_slope - in_slope
            row.append(
                None
                if lower > upper
                else high - low + slope * (upper if slope >= 0 else lower)
            )
        numerators.append(row)
    return numerators, denominator
