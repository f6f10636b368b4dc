"""Stable evaluation of the figure-eight colored Jones polynomial on the
unit circle, with the auxiliary quantities used in its growth analysis.

The color-N value at t = exp(2 pi i x) is a sum of N telescoping
products; the j-th real factor is

    g(j) = 2 cos(2 pi x N) - 2 cos(2 pi x j).

Partial products f(k) span hundreds of orders of magnitude by N ~ 1e5,
so every quantity lives in signed log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, ZeroValueError
from .special_functions import ThetaVariant, theta_r

__all__ = [
    "SignedLogValue",
    "EvaluationPoint",
    "CriticalIndices",
    "term_g",
    "partial_product_f",
    "colored_jones",
    "normalized_log",
    "critical_indices",
    "f_max",
]


@dataclass(frozen=True)
class SignedLogValue:
    """A real number stored as (sign, log of absolute value).

    sign is -1, 0 or +1; logabs is -inf when sign == 0 (the stored value
    is ignored in that case) and finite otherwise.
    """

    sign: int
    logabs: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.sign != 0 and not math.isfinite(self.logabs):
            raise ValueError("logabs must be finite for nonzero values")

    @classmethod
    def zero(cls) -> "SignedLogValue":
        return cls(0, -math.inf)

    @property
    def value(self) -> float:
        """Back to an ordinary float; overflows to +-inf for huge logabs."""
        if self.sign == 0:
            return 0.0
        if self.logabs > 709.0:
            return math.inf * self.sign
        return self.sign * math.exp(self.logabs)


@dataclass(frozen=True)
class EvaluationPoint:
    """Color N >= 1 and position x in [0, 1) on the unit circle,
    t = exp(2 pi i x).  The growth parameter r = N*x is derived."""

    N: int
    x: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not (0.0 <= self.x < 1.0) or not math.isfinite(self.x):
            raise ValueError(f"x must lie in [0, 1), got {self.x}")

    @property
    def r(self) -> float:
        return self.N * self.x

    @classmethod
    def from_r(cls, N: int, r: float) -> "EvaluationPoint":
        return cls(N, r / N)


@dataclass(frozen=True)
class CriticalIndices:
    """Index-scale positions A < B < C of the sign change and the
    |f| minimum / maximum when 5/6 < r < 1."""

    A: float
    B: float
    C: float


def term_g(j: int, p: EvaluationPoint) -> float:
    """The j-th real factor 2 cos(2 pi x N) - 2 cos(2 pi x j).

    For x = r/N this is 4 sin(r j pi/N + r pi) sin(r j pi/N - r pi).
    The product range is 1 <= j <= N-1; j = N is admitted as the
    coinciding-cosine boundary case (identically zero).
    """
    if not 1 <= j <= p.N:
        raise ValueError(f"j must satisfy 1 <= j <= N = {p.N}, got {j}")
    if j == p.N:
        return 0.0
    uN = _fold(p.x * p.N)
    u = _fold(p.x * j)
    return 2.0 * math.cos(2.0 * math.pi * uN) - 2.0 * math.cos(2.0 * math.pi * u)


def _fold(u: float) -> float:
    u -= math.floor(u)
    return 1.0 - u if u > 0.5 else u


def partial_product_f(k: int, p: EvaluationPoint) -> SignedLogValue:
    """f(k) = product of g(j) for j = 1..k; f(0) = 1 (empty product)."""
    if not 0 <= k <= p.N - 1:
        raise ValueError(f"k must satisfy 0 <= k <= N-1 = {p.N - 1}, got {k}")
    sgnf, logf = _kernels.jones_prefix(p.N, p.x)
    s = int(sgnf[k])
    if s == 0:
        return SignedLogValue.zero()
    return SignedLogValue(s, float(logf[k]))


def colored_jones(p: EvaluationPoint) -> SignedLogValue:
    """J_N(E; exp(2 pi i x)) as a SignedLogValue.

    Sum of the partial products f(0..N-1), accumulated by peeling the
    maximal log magnitude and summing signed ratios in a fixed order.
    The result is exactly real: each factor pair of the defining product
    multiplies to the real number g(j) on the unit circle.
    """
    s, logabs = _kernels.jones_scan(p.N, p.x)
    if s == 0:
        return SignedLogValue.zero()
    return SignedLogValue(s, logabs)


def normalized_log(p: EvaluationPoint, v: SignedLogValue) -> float:
    """2 r pi log|J_N| / N with r = N*x and v = J_N at p (as from
    ``colored_jones(p)``), the quantity whose large-N limit the piecewise
    limit curves describe."""
    if v.sign == 0:
        raise ZeroValueError(
            f"J_N vanishes at N={p.N}, x={p.x}; normalized log undefined"
        )
    return 2.0 * p.r * math.pi * v.logabs / p.N


def critical_indices(r: float, N: int) -> CriticalIndices:
    """A = N(1-r)/r, B = N theta(r)/(2 r pi), C = N(2 pi - theta(r))/(2 r pi)
    for 5/6 < r < 1, with theta the MINUS_HALF branch angle."""
    if not (5.0 / 6.0 < r < 1.0):
        raise DomainError(f"critical indices need 5/6 < r < 1, got {r}",
                          interval="(5/6, 1)")
    th = theta_r(r, ThetaVariant.MINUS_HALF)
    A = N * (1.0 - r) / r
    B = N * th / (2.0 * r * math.pi)
    C = N * (2.0 * math.pi - th) / (2.0 * r * math.pi)
    if not (0.0 < A < B < C < N):
        raise AssertionError(
            f"index ordering violated: A={A}, B={B}, C={C}, N={N}"
        )
    return CriticalIndices(A, B, C)


def f_max(p: EvaluationPoint) -> tuple[int, SignedLogValue]:
    """Exhaustive scan for the index and value of max_k |f(k)|, k < N."""
    sgnf, logf = _kernels.jones_prefix(p.N, p.x)
    k = int(np.argmax(logf))
    s = int(sgnf[k])
    if s == 0:
        return k, SignedLogValue.zero()
    return k, SignedLogValue(s, float(logf[k]))
