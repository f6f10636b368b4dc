"""Logarithmic Mahler measure, branched-cover homology orders, and the
growth experiments that tie them to the colored Jones values.

Two independent routes to m(f) are kept deliberately separate: the
root-product (leading coefficient times roots outside the unit disk)
and direct quadrature of log|f| over the circle.  Homology orders of
the N-fold branched cyclic cover come from the product of the Alexander
polynomial over N-th roots of unity.  The product is an integer: the
default path computes it exactly as one integer determinant built from
the companion matrix of f, and a floating path returns it only when a
forward error bound certifies the rounding.

The quadrature takes any sampler ``sample(xs) -> (signs, log|f|)``: a
polynomial's ``eval_circle_batch``, or ``jones_on_circle`` /
``const_on_circle`` with their first argument bound by
``functools.partial``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _kernels
from .errors import PrecisionError, SingularityError
from .limits import ConvergenceRecord

__all__ = [
    "LaurentPolynomialZ",
    "FIG8_ALEXANDER",
    "const_on_circle",
    "jones_on_circle",
    "NearUnitRootWarning",
    "mahler_from_roots",
    "log_mahler_quadrature",
    "homology_order",
    "silver_williams_convergence",
    "jones_mahler_growth",
]


class NearUnitRootWarning(UserWarning):
    """A root sits within tolerance of the unit circle; its Mahler
    contribution is clamped at max(log|root|, 0)."""


@dataclass(frozen=True)
class LaurentPolynomialZ:
    """Integer Laurent polynomial: coefficients[i] multiplies
    t**(low_exponent + i).  First and last coefficients are nonzero."""

    low_exponent: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        c = self.coefficients
        if len(c) == 0:
            raise ValueError("polynomial must be non-empty")
        if c[0] == 0 or c[-1] == 0:
            raise ValueError("first and last coefficients must be nonzero")
        if not all(isinstance(v, int) for v in c):
            raise ValueError("coefficients must be integers")

    @classmethod
    def parse(cls, text: str) -> "LaurentPolynomialZ":
        """Parse the CLI syntax 'c0,c1,...,ck@low'; '@low' defaults to 0."""
        if "@" in text:
            coeffs_part, low_part = text.rsplit("@", 1)
            low = int(low_part)
        else:
            coeffs_part, low = text, 0
        coeffs = tuple(int(v.strip()) for v in coeffs_part.split(","))
        return cls(low, coeffs)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coefficients) + f"@{self.low_exponent}"

    def eval_circle_batch(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(signs, log|f|) at z = exp(2 pi i xs); sign is that of |f|
        (+1) or 0 for exact zeros."""
        z = np.exp(2j * np.pi * np.asarray(xs, dtype=float))
        vals = np.polyval(list(reversed(self.coefficients)), z)
        mag = np.abs(vals)  # |z^low| == 1
        signs = np.where(mag == 0.0, 0, 1).astype(np.int8)
        with np.errstate(divide="ignore"):
            return signs, np.log(mag)


FIG8_ALEXANDER = LaurentPolynomialZ(-1, (-1, 3, -1))


# ---------------------------------------------------------------------------
# circle samplers
# ---------------------------------------------------------------------------

def const_on_circle(value: float, xs) -> tuple[np.ndarray, np.ndarray]:
    """(signs, log|value|) at every x: a constant sampler, useful for
    calibration checks."""
    n, value = len(xs), float(value)
    if value == 0.0:
        return np.zeros(n, dtype=np.int8), np.full(n, -np.inf)
    s = 1 if value > 0 else -1
    return np.full(n, s, dtype=np.int8), np.full(n, math.log(abs(value)))


def jones_on_circle(N: int, xs) -> tuple[np.ndarray, np.ndarray]:
    """(signs, log|J_N(E; exp(2 pi i x))|) over xs via the Habiro-Le
    kernels."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    xs = np.asarray(xs, dtype=float) % 1.0
    return _kernels.jones_grid(np.full(len(xs), N, dtype=np.int64), xs)


# ---------------------------------------------------------------------------
# Mahler measure
# ---------------------------------------------------------------------------

def mahler_from_roots(f: LaurentPolynomialZ, tol: float = 1e-9) -> float:
    """m(f) = log|lead| + sum of log|root| over roots outside the unit
    circle, via companion-matrix root finding.

    Roots within tol of the unit circle contribute max(log|root|, 0) and
    raise NearUnitRootWarning.  Degree-0 polynomials give log|constant|.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    coeffs = f.coefficients
    if len(coeffs) == 1:
        return math.log(abs(coeffs[0]))
    try:
        roots = np.roots(list(reversed(coeffs)))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise PrecisionError(f"root finding failed: {exc}") from exc
    m = math.log(abs(coeffs[-1]))
    mags = np.abs(roots)
    near = np.abs(mags - 1.0) <= tol
    if np.any(near):
        warnings.warn(
            f"{int(np.sum(near))} root(s) of {f} within {tol} of the unit "
            "circle; contributions clamped at max(log|root|, 0)",
            NearUnitRootWarning,
            stacklevel=2,
        )
    for mag, is_near in zip(mags, near):
        if is_near:
            m += max(math.log(mag), 0.0)
        elif mag > 1.0:
            m += math.log(mag)
    return m


def log_mahler_quadrature(sample, n: int) -> float:
    """Midpoint quadrature of log|f| over one turn with n uniform
    samples.

    sample(xs) returns (signs, log|f|) at t = exp(2 pi i xs), with sign
    0 marking an exact zero.  Samples that are exactly zero
    (integrable log singularities) are replaced by one level of dyadic
    refinement: the offending panel is split into 8 sub-midpoints and
    the surviving values averaged.  The sub-midpoints of all such
    panels are sampled in one call.  More than n/10 zero samples raises
    SingularityError.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    xs = (np.arange(n) + 0.5) / n
    signs, logs = sample(xs)
    zero_idx = np.nonzero(signs == 0)[0]
    if len(zero_idx) > n / 10:
        raise SingularityError(
            f"{len(zero_idx)} of {n} samples vanished; sampler looks "
            "identically zero"
        )
    vals = logs.astype(float)
    if len(zero_idx):
        sub = (zero_idx[:, None] + (np.arange(8) + 0.5) / 8.0) / n
        ss, sl = sample(sub.ravel())
        for i, s8, l8 in zip(zero_idx, ss.reshape(-1, 8), sl.reshape(-1, 8)):
            live = s8 != 0
            vals[i] = np.mean(l8[live]) if np.any(live) else 0.0
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# homology orders of branched cyclic covers
# ---------------------------------------------------------------------------

def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _scale_add(a: list[list[int]], s: int, b: list[list[int]]) -> list[list[int]]:
    return [[x * s + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _bareiss_det(m: list[list[int]]) -> int:
    """Integer determinant by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def _homology_exact(f: LaurentPolynomialZ, N: int) -> int:
    """|prod_{k=1}^{N-1} f(zeta_N^k)| as an integer determinant.

    With p the coefficients of f, d its degree, L its leading
    coefficient and B = L * companion(p / L) (L on the subdiagonal,
    -p_0 ... -p_{d-1} in the last column), the product is
    |det G| |L|^(N-1) / |L|^(d(N-1)) with G = sum_{k<N} B^k L^(N-1-k),
    because 1 + x + ... + x^(N-1) = prod_{k=1}^{N-1} (x - zeta_N^k).
    A (t - 1) factor thus contributes N, and a root of unity of order
    dividing N makes det G = 0.  G is built by doubling over the bits
    of N: G_2n = G_n L^n + B^n G_n and G_(n+1) = G_n L + B^n.
    """
    p = f.coefficients
    d, L = len(p) - 1, p[-1]
    B = [[L if i == j + 1 else 0 for j in range(d - 1)] + [-p[i]]
         for i in range(d)]
    G = [[int(i == j) for j in range(d)] for i in range(d)]
    P, Ln = B, L  # B^n and L^n, starting from G_1 = I
    for bit in bin(N)[3:]:
        G = _scale_add(G, Ln, _matmul(P, G))
        P, Ln = _matmul(P, P), Ln * Ln
        if bit == "1":
            G = _scale_add(G, L, P)
            P, Ln = _matmul(P, B), Ln * L
    order, rem = divmod(abs(_bareiss_det(G) * L ** (N - 1)),
                        abs(L) ** (d * (N - 1)))
    if rem:
        raise PrecisionError(f"homology product not integral at N={N}")
    return order


def _homology_float(f: LaurentPolynomialZ, N: int) -> int:
    """The rounded complex product, certified by a forward error bound.

    First-order forward error (Higham, ch. 3): the rounded zeta_N^k is
    within 28u of the true root (three roundings of the angle 2 pi k/N,
    then exp), which moves f by at most 28u d S, and Horner adds at most
    2d sqrt(5) u S, with S = sum |p_i|.  So each factor is off by at most
    32 u d S, and each complex product adds a relative sqrt(5) u < 3u.
    A bound of 0.25 or more raises PrecisionError.
    """
    coeffs = f.coefficients
    z = np.exp(2j * np.pi * np.arange(1, N) / N)
    vals = np.polyval(list(reversed(coeffs)), z)  # |z^low| = 1 is dropped
    prod = complex(1.0)
    for v in vals:
        prod *= complex(v)
    u = 2.0 ** -53
    factor_err = 32 * u * (len(coeffs) - 1) * sum(abs(c) for c in coeffs)
    with np.errstate(divide="ignore"):
        err = abs(prod) * (factor_err * float(np.sum(1.0 / np.abs(vals)))
                           + 3 * u * (N - 1))
    if not err < 0.25:
        raise PrecisionError(f"homology product {abs(prod):.17g} has error bound "
                             f"{err:.3g} at N={N}, outside the certified float "
                             "window; use the exact path")
    nearest = round(abs(prod.real))
    if abs(prod.imag) > 0.25 or abs(abs(prod.real) - nearest) > 0.25:
        raise PrecisionError(f"homology product {prod} not within 0.25 of an integer")
    return int(nearest)


def homology_order(f: LaurentPolynomialZ, N: int, method: str = "exact") -> int:
    """Order of the first homology of the N-fold branched cyclic cover
    whose Alexander polynomial is f: |prod_{d=1}^{N-1} f(zeta_N^d)|,
    and 0 when the product vanishes (infinite homology).

    'exact' computes the product as an integer determinant.
    'float' uses the complex product and raises PrecisionError unless
    its forward error bound, |prod| (sum_k 32 u d S / |f(zeta^k)| +
    3 u (N - 1)) with u = 2^-53, d the degree and S the sum of
    |coefficients|, stays below 0.25; for the figure-eight it
    certifies N <= 28.
    """
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    if abs(sum(f.coefficients)) != 1:
        warnings.warn(
            f"f(1) = {sum(f.coefficients)}; Alexander polynomials have "
            "f(1) = +-1, results may not be homology orders",
            UserWarning,
            stacklevel=2,
        )
    if method == "float":
        return _homology_float(f, N)
    if method == "exact":
        return _homology_exact(f, N)
    raise ValueError(f"unknown method {method!r}")


def silver_williams_convergence(
    f: LaurentPolynomialZ, N_list
) -> list[ConvergenceRecord]:
    """log|H_1(M_N)| / N against m(f) for each N.

    The record's r field replicates N (the growth index of this family);
    N where the homology is infinite (order 0) produce flagged records.
    """
    predicted = mahler_from_roots(f)
    records = []
    for N in N_list:
        h = homology_order(f, int(N))
        if h == 0:
            rec = ConvergenceRecord(int(N), float(N), math.nan, predicted,
                                    flagged=True)
        else:
            rec = ConvergenceRecord(int(N), float(N), math.log(h) / N, predicted)
        records.append(rec)
    return records


def jones_mahler_growth(N_list, n_quad: int) -> list[tuple[int, float, float]]:
    """Rows (N, m(J_N), 2 pi m(J_N)/log N) with m via circle quadrature.

    The ratio column is the quantity whose limiting behavior the growth
    integral conjecturally describes; it is reported, never asserted.
    """
    rows = []
    for N in N_list:
        N = int(N)
        m = log_mahler_quadrature(partial(jones_on_circle, N), n_quad)
        ratio = 2.0 * math.pi * m / math.log(N) if N > 1 else math.nan
        rows.append((N, m, ratio))
    return rows
