"""Large-N limit formulas for the normalized colored Jones growth, the
finite-N convergence experiments, and the growth integral.

The limit of 2 r pi log|J_N(E; exp(2 pi i r/N))| / N is piecewise smooth
in r.  On [0,1] it is called V, on each interval (k, k+1) it repeats a
single profile W of the fractional part.  Both are assembled from
Lobachevsky-function differences driven by a branch angle:

    branch value(x) = scale * (Lambda(x pi + theta/2) - Lambda(x pi - theta/2))

with theta = theta_r(x, variant).  The calibrated tables below were
fixed against finite-N data (N = 2000..8000) and closed-form anchors:
V(1) = W(0) = W(1) = fig8_volume(), and the growth integral
integral_0^1 W = 1.450191516.  The middle branches carry scale -2 with
the PLUS_HALF angle and no shift; by pi-periodicity and the complement
identity theta_minus(x - 1/2) = pi - theta_plus(x), this equals the
pi/2-shifted difference of the same shape with the complementary angle,
which is how the branch is usually typeset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DomainError
from .special_functions import ThetaVariant, fig8_volume, lobachevsky, theta_r

__all__ = [
    "LimitBranch",
    "PiecewiseLimitSpec",
    "ConvergenceRecord",
    "V_SPEC",
    "W_SPEC",
    "limit_theorem3",
    "limit_V",
    "limit_W",
    "convergence_table",
    "mahler_growth_integral",
]


@dataclass(frozen=True)
class LimitBranch:
    """One branch of a piecewise limit curve on [lo, hi)."""

    lo: float
    hi: float
    variant: ThetaVariant | None  # None: the branch is identically zero
    scale: float

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        if self.variant is None or self.scale == 0.0:
            return np.zeros_like(x)
        th = theta_r(x, self.variant)
        return self.scale * (
            lobachevsky(x * np.pi + th / 2.0) - lobachevsky(x * np.pi - th / 2.0)
        )


@dataclass(frozen=True)
class PiecewiseLimitSpec:
    """Ordered branch table partitioning [0, 1]; the last branch is
    closed on the right."""

    branches: tuple[LimitBranch, ...]

    def __post_init__(self):
        lo = 0.0
        for b in self.branches:
            if not math.isclose(b.lo, lo):
                raise ValueError("branch intervals must partition [0,1]")
            lo = b.hi
        if not math.isclose(lo, 1.0):
            raise ValueError("branch intervals must end at 1")

    def evaluate(self, x) -> np.ndarray | float:
        arr = np.asarray(x, dtype=float)
        if np.any((arr < 0.0) | (arr > 1.0)):
            raise DomainError("limit curves are defined on [0, 1]",
                              interval="[0, 1]")
        out = np.empty_like(arr)
        for i, b in enumerate(self.branches):
            if i == len(self.branches) - 1:
                m = (arr >= b.lo) & (arr <= b.hi)
            else:
                m = (arr >= b.lo) & (arr < b.hi)
            if np.any(m):
                out[m] = b.evaluate(arr[m])
        if np.isscalar(x) or arr.ndim == 0:
            return float(out)
        return out


V_SPEC = PiecewiseLimitSpec((
    LimitBranch(0.0, 1.0 / 6.0, None, 0.0),
    LimitBranch(1.0 / 6.0, 0.75, ThetaVariant.PLUS_HALF, -2.0),
    LimitBranch(0.75, 1.0, ThetaVariant.MINUS_HALF, 2.0),
))

W_SPEC = PiecewiseLimitSpec((
    LimitBranch(0.0, 0.25, ThetaVariant.MINUS_HALF, 2.0),
    LimitBranch(0.25, 0.75, ThetaVariant.PLUS_HALF, -2.0),
    LimitBranch(0.75, 1.0, ThetaVariant.MINUS_HALF, 2.0),
))


@dataclass
class ConvergenceRecord:
    """One row of a convergence experiment: finite-N normalized log
    against the predicted limit.  flagged marks rows where the finite
    value is unavailable (J_N vanished to working precision)."""

    N: int
    r: float
    finite_value: float
    predicted: float
    delta: float = field(init=False)
    flagged: bool = False

    def __post_init__(self):
        self.delta = self.finite_value - self.predicted


def limit_theorem3(r: float) -> float:
    """Limit of 2 pi log|J_N(E; exp(2 pi i r/N))| / N.

    Defined for positive integer r (value: fig8_volume()/r) and for
    5/6 < r < 7/6 (value: (2 Lambda(r pi + theta/2) - 2 Lambda(r pi -
    theta/2)) / r with the MINUS_HALF branch angle).
    """
    if r <= 0.0 or not math.isfinite(r):
        raise DomainError(f"r must be positive, got {r}",
                          interval="positive integers or (5/6, 7/6)")
    if float(r).is_integer():
        return fig8_volume() / r
    if not (5.0 / 6.0 < r < 7.0 / 6.0):
        raise DomainError(
            f"non-integer r must satisfy 5/6 < r < 7/6, got {r}",
            interval="positive integers or (5/6, 7/6)",
        )
    th = theta_r(r, ThetaVariant.MINUS_HALF)
    return (
        2.0 * lobachevsky(r * math.pi + th / 2.0)
        - 2.0 * lobachevsky(r * math.pi - th / 2.0)
    ) / r


def limit_V(x):
    """Limit curve on [0, 1]: zero until 1/6, then two branch arcs
    meeting continuously, with V(1) = fig8_volume()."""
    return V_SPEC.evaluate(x)


def limit_W(x):
    """Repeating limit profile for r > 1, evaluated on the fractional
    part; W(0) = W(1) = fig8_volume()."""
    return W_SPEC.evaluate(x)


def _predicted(r: float) -> float:
    if r <= 1.0:
        return float(limit_V(r))
    return float(limit_W(r - math.floor(r)))


def convergence_table(r_grid, N: int) -> list[ConvergenceRecord]:
    """Evaluate finite-N normalized logs over a grid of growth
    parameters r (position x = r/N) against the predicted limits.

    Grid points where J_N vanishes to working precision produce flagged
    records with NaN finite value rather than failing the run.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    rs = [float(r) for r in r_grid]
    for r in rs:
        if not (r >= 0.0 and math.isfinite(r)):
            raise DomainError(f"grid values must be finite and >= 0, got {r}")
        if r / N >= 1.0:
            raise DomainError(f"r = {r} needs r/N < 1 at N = {N}")
    xs = np.array([r / N for r in rs])
    signs, logabs = _kernels.jones_grid(np.full(len(xs), N, dtype=np.int64), xs)
    records = []
    for r, s, la in zip(rs, signs, logabs):
        pred = _predicted(r)
        if s == 0:
            rec = ConvergenceRecord(N, r, math.nan, pred, flagged=True)
        else:
            rec = ConvergenceRecord(N, r, 2.0 * r * math.pi * la / N, pred)
        records.append(rec)
    return records


def mahler_growth_integral(quad_points: int = 1 << 16) -> float:
    """Midpoint quadrature of the calibrated W over [0, 1].

    Converges to 1.450191516... ; doubling quad_points moves the result
    by well under 1e-6 already at the default resolution.
    """
    if quad_points < 2:
        raise ValueError(f"quad_points must be >= 2, got {quad_points}")
    xs = (np.arange(quad_points) + 0.5) / quad_points
    return float(np.mean(limit_W(xs)))
