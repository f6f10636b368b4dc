"""Lobachevsky function, branch-angle solvers, and the figure-eight volume.

The Lobachevsky function used throughout is

    Lambda(theta) = -integral_0^theta log|2 sin u| du,

the 2-sin normalization (odd, pi-periodic).  It equals the Clausen-type
Fourier series (1/2) * sum_{n>=1} sin(2 n theta) / n^2; evaluation here
uses an equivalent power series after reduction to [0, pi/2], which
converges geometrically everywhere (the raw Fourier partial sums only
gain one digit per decade of terms and cannot reach 1e-12).
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import DomainError

__all__ = [
    "ThetaVariant",
    "lobachevsky",
    "theta_r",
    "fig8_volume",
]


def _zeta_even(n: int) -> np.ndarray:
    """zeta(2k) for k = 1..n, each correctly rounded to a float.

    a_k = zeta(2k) / pi^(2k) satisfies a_1 = 1/6 and
    (k + 1/2) a_k = sum_{0<i<k} a_i a_(k-i).  The recurrence and the
    powers of pi run in fixed point with 600 fraction bits, which leaves
    over 300 significant bits at k = 80; the final int / int division
    rounds correctly.
    """
    bits = 600
    pi = (int("31415926535897932384626433832795028841971693993751"
              "05820974944592307816406286208998628034825342117067")
          << bits) // 10 ** 99
    pi2 = pi * pi >> bits
    a = [0, (1 << bits) // 6]
    for k in range(2, n + 1):
        a.append(2 * (sum(a[i] * a[k - i] for i in range(1, k)) >> bits)
                 // (2 * k + 1))
    zeta, pi_pow = [], 1 << bits
    for k in range(1, n + 1):
        pi_pow = pi_pow * pi2 >> bits
        zeta.append(a[k] * pi_pow >> bits)
    return np.array([z / (1 << bits) for z in zeta])


# zeta(2k) for the power series, computed here so that no special-function
# library is imported; 80 terms bound the tail below 1e-39 for reduced
# arguments <= pi/2 (term ratio <= ~1/4).
_ZETA_EVEN = _zeta_even(80)
_KR = np.arange(1, 81)
_SERIES_COEF = _ZETA_EVEN / (_KR * (2 * _KR + 1) * np.pi ** (2.0 * _KR))


class ThetaVariant(enum.Enum):
    """Which branch equation cos(theta) = cos(2 r pi) + offset to solve.

    MINUS_HALF is the equation attached to the proved limit formula;
    PLUS_HALF is the companion equation whose solution set covers the
    middle interval [1/6, 5/6] where MINUS_HALF has no solution.
    """

    MINUS_HALF = -0.5
    PLUS_HALF = +0.5

    @property
    def offset(self) -> float:
        return self.value

    def admissible(self) -> str:
        if self is ThetaVariant.MINUS_HALF:
            return "r mod 1 in [0,1/3] U [2/3,1]"
        return "r mod 1 in [1/6,5/6]"


def _lob_reduced(t: np.ndarray) -> np.ndarray:
    """Series for Lambda on 0 <= t <= pi/2.

    Lambda(t) = t - t*log(2t) + sum_k zeta(2k) t^(2k+1) / (k(2k+1) pi^(2k)).
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        base = t * (1.0 - np.log(2.0 * t))
    base = np.where(t == 0.0, 0.0, base)
    ser = t * np.sum(_SERIES_COEF * t[..., None] ** (2 * _KR), axis=-1)
    return base + ser


def lobachevsky(theta):
    """Lobachevsky function Lambda(theta) = -int_0^theta log|2 sin u| du.

    Parameters
    ----------
    theta : float or ndarray
        Argument in radians; any finite real value (Lambda is odd and
        pi-periodic, so the argument is reduced internally).

    Returns
    -------
    float or ndarray
        Lambda(theta); the fixed-length series bounds the truncation
        error below 1e-15.
    """
    arr = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("theta must be finite")
    t = np.mod(arr, np.pi)
    flip = t > np.pi / 2
    t = np.where(flip, np.pi - t, t)
    val = _lob_reduced(t)
    val = np.where(flip, -val, val)
    if np.isscalar(theta) or arr.ndim == 0:
        return float(val)
    return val


def theta_r(r, variant: ThetaVariant = ThetaVariant.MINUS_HALF):
    """Smallest positive solution of cos(theta) = cos(2 r pi) + offset.

    Returns the arccos branch value in [0, pi].  Raises DomainError when
    the right-hand side leaves [-1, 1]; a few ulps of overshoot from the
    cosine evaluation at interval endpoints are clamped.
    """
    arr = np.asarray(r, dtype=float)
    c = np.cos(2.0 * np.pi * arr) + variant.offset
    bad = np.abs(c) > 1.0 + 1e-9
    if np.any(bad):
        raise DomainError(
            f"theta_r undefined at r={arr[bad] if arr.ndim else float(arr)}",
            interval=variant.admissible(),
        )
    val = np.arccos(np.clip(c, -1.0, 1.0))
    if np.isscalar(r) or arr.ndim == 0:
        return float(val)
    return val


def fig8_volume() -> float:
    """Hyperbolic volume of the figure-eight knot complement.

    Computed as 2*(Lambda(pi + pi/6) - Lambda(pi - pi/6)) = 4*Lambda(pi/6),
    i.e. the r = 1 value of the limit formula; approximately 2.029883213.
    """
    th = theta_r(1.0, ThetaVariant.MINUS_HALF)  # pi/3
    return 2.0 * (
        lobachevsky(math.pi + th / 2.0) - lobachevsky(math.pi - th / 2.0)
    )
