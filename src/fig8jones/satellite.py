"""Color profiles of the figure-eight colored Jones values at a fixed
circle position, the numerical ingredient of the satellite heuristics.

For a base color N and growth parameter r, the profile evaluates
J_c(E; exp(2 pi i r/N)) for every odd c up to 2N-1 at the *fixed* point
t = exp(2 pi i r/N) and records 2 pi log|J_c| / N per row.

When r is an integer the evaluation point is a root of unity and
Habiro-Le factors vanish exactly at predictable indices (r(c +- j) a
multiple of N), truncating the sum; the integer-phase kernel hits those
zeros exactly.  A float phase misses them by an ulp and the product
rebuilds spurious exponential growth past the dead factor, which is
invisible in the output but wrong by hundreds of orders of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels

__all__ = ["ProfileRow", "ColorProfile", "cable_profile", "argmax_color"]


@dataclass(frozen=True)
class ProfileRow:
    c: int
    value: float
    flagged: bool = False


@dataclass(frozen=True)
class ColorProfile:
    """Rows (c, 2 pi log|J_c(E; exp(2 pi i r/N))| / N) for odd c,
    sorted by c; rows where J_c vanished to working precision are
    flagged and carry value NaN."""

    N: int
    r: float
    rows: tuple[ProfileRow, ...]


def cable_profile(N: int, r: float) -> ColorProfile:
    """Profile of J_c over odd colors c in [1, 2N-1] at t = exp(2 pi i r/N)."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if not (0.0 < r < N) or not math.isfinite(r):
        raise ValueError(f"r must satisfy 0 < r < N, got {r}")
    cs = np.arange(1, 2 * N, 2, dtype=np.int64)
    if float(r).is_integer():
        signs, logabs = _kernels.jones_grid_exact(cs, int(round(r)), N)
    else:
        x = r / N
        signs, logabs = _kernels.jones_grid(cs, np.full(len(cs), x))
    rows = []
    for c, s, la in zip(cs, signs, logabs):
        if s == 0:
            rows.append(ProfileRow(int(c), math.nan, flagged=True))
        else:
            rows.append(ProfileRow(int(c), 2.0 * math.pi * la / N))
    return ColorProfile(N, float(r), tuple(rows))


def argmax_color(N: int, r: float) -> int:
    """Odd color with the largest profile value; ties resolve to the
    larger color, flagged rows are skipped."""
    profile = cable_profile(N, r)
    best_c = None
    best_v = -math.inf
    for row in profile.rows:
        if row.flagged:
            continue
        if row.value >= best_v:
            best_v = row.value
            best_c = row.c
    if best_c is None:
        raise ArithmeticError("every profile row vanished")
    return best_c
