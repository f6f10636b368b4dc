"""Logarithmic Mahler measure, branched-cover homology orders, and the
growth experiments that tie them to the colored Jones values.

Two independent routes to m(f) are kept deliberately separate: the
root-product (leading coefficient times roots outside the unit disk)
and direct quadrature of log|f| over the circle.  Homology orders of
the N-fold branched cyclic cover come from the product of the Alexander
polynomial over N-th roots of unity.  The product is an integer,
computed exactly as one integer determinant built from the companion
matrix of f; the rounded complex product, certified by a forward error
bound, is kept only as the tests' independent reference.

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
from typing import TYPE_CHECKING

import numpy as np

from .errors import PrecisionError, SingularityError

if TYPE_CHECKING:
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
    """A root sits within tolerance of the unit circle, so which side of
    the circle it lies on, and whether it contributes to the Mahler
    measure, is uncertain."""


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
        z = np.exp(2j * np.pi * _positions(xs))
        vals = np.polyval(list(reversed(self.coefficients)), z)
        mag = np.abs(vals)  # |z^low| == 1
        signs = np.where(mag == 0.0, 0, 1).astype(np.int8)
        with np.errstate(divide="ignore"):
            return signs, np.log(mag)


FIG8_ALEXANDER = LaurentPolynomialZ(-1, (-1, 3, -1))


# ---------------------------------------------------------------------------
# circle samplers
# ---------------------------------------------------------------------------

def _positions(xs) -> np.ndarray:
    """xs as floats, refusing a non-finite x: it has no point on the circle."""
    xs = np.asarray(xs, dtype=float)
    if not np.isfinite(xs).all():
        raise ValueError(f"positions must be finite, got {xs[~np.isfinite(xs)][0]}")
    return xs


def const_on_circle(value: float, xs) -> tuple[np.ndarray, np.ndarray]:
    """(signs, log|value|) at every x: a constant sampler, useful for
    calibration checks."""
    n, value = len(xs), float(value)
    if not math.isfinite(value):
        raise ValueError(f"value must be finite, got {value}")
    if value == 0.0:
        return np.zeros(n, dtype=np.int8), np.full(n, -np.inf)
    s = 1 if value > 0 else -1
    return np.full(n, s, dtype=np.int8), np.full(n, math.log(abs(value)))


def jones_on_circle(N: int, xs) -> tuple[np.ndarray, np.ndarray]:
    """(signs, log|J_N(E; exp(2 pi i x))|) over xs via the Habiro-Le
    kernels, which fold any real x onto [0, 1/2] exactly."""
    from . import _kernels  # here, so homology and sw never load the kernels

    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return _kernels.jones_grid(np.full(len(xs), N, dtype=np.int64), _positions(xs))


# ---------------------------------------------------------------------------
# Mahler measure
# ---------------------------------------------------------------------------

# Roots this close to the unit circle raise NearUnitRootWarning
_NEAR_UNIT = 1e-9


def mahler_from_roots(f: LaurentPolynomialZ) -> float:
    """m(f) = log|lead| + sum of log|root| over roots outside the unit
    circle, via companion-matrix root finding.

    Every root contributes max(log|root|, 0).  Roots within
    ``_NEAR_UNIT`` of the unit circle, whose side of it is uncertain,
    raise NearUnitRootWarning.  Degree-0 polynomials give log|constant|.
    """
    coeffs = f.coefficients
    try:
        roots = np.roots(list(reversed(coeffs)))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise PrecisionError(f"root finding failed: {exc}") from exc
    m = math.log(abs(coeffs[-1]))
    mags = np.abs(roots)
    near = np.abs(mags - 1.0) <= _NEAR_UNIT
    if np.any(near):
        warnings.warn(
            f"{int(np.sum(near))} root(s) of {f} within {_NEAR_UNIT} of the unit "
            "circle; contributions clamped at max(log|root|, 0)",
            NearUnitRootWarning,
            stacklevel=2,
        )
    for mag in mags[mags > 1.0]:
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


def _geometric(B: list[list[int]], L: int, m: int):
    """(G_m, B^m, L^m) with G_m = sum_{k<m} B^k L^(m-1-k), by doubling
    over the bits of m: G_2n = G_n L^n + B^n G_n and
    G_(n+1) = G_n L + B^n, from G_1 = I."""
    G = [[int(i == j) for j in range(len(B))] for i in range(len(B))]
    P, Ln = B, L
    for bit in bin(m)[3:]:
        G = _scale_add(G, Ln, _matmul(P, G))
        P, Ln = _matmul(P, P), Ln * Ln
        if bit == "1":
            G = _scale_add(G, L, P)
            P, Ln = _matmul(P, B), Ln * L
    return G, P, Ln


def _homology_exact(f: LaurentPolynomialZ, Ns: list[int]) -> list[int]:
    """|prod_{k=1}^{N-1} f(zeta_N^k)| as an integer determinant, for
    each N of Ns (in their order).

    With p the coefficients of f, d its degree, L its leading
    coefficient and B = L * companion(p / L) (L on the subdiagonal,
    -p_0 ... -p_{d-1} in the last column), the product is
    |det G_N| |L|^(N-1) / |L|^(d(N-1)) with G_N = sum_{k<N} B^k L^(N-1-k),
    because 1 + x + ... + x^(N-1) = prod_{k=1}^{N-1} (x - zeta_N^k).
    A (t - 1) factor thus contributes N, and a root of unity of order
    dividing N makes det G_N = 0.

    The distinct N are visited once in increasing order, and (G_n, B^n)
    advances by each gap m to the next N by
    G_(n+m) = G_n L^m + B^n G_m, with (G_m, B^m, L^m) from doubling.
    A gap m costs about log2(m) small matrix products, so a list costs
    a sum of logs of its gaps, plus two products with the running
    state and one determinant per distinct N.
    """
    p = f.coefficients
    d, L = len(p) - 1, p[-1]
    B = [[L if i == j + 1 else 0 for j in range(d - 1)] + [-p[i]]
         for i in range(d)]
    G, P, _ = _geometric(B, L, 1)  # (G_n, B^n) at n = 1
    n, orders = 1, {}
    for N in sorted(set(Ns)):
        Gm, Pm, Lm = _geometric(B, L, N - n)
        G = _scale_add(G, Lm, _matmul(P, Gm))
        P, n = _matmul(P, Pm), N
        orders[N], rem = divmod(abs(_bareiss_det(G) * L ** (N - 1)),
                                abs(L) ** (d * (N - 1)))
        if rem:
            raise PrecisionError(f"homology product not integral at N={N}")
    return [orders[N] for N in Ns]


def _homology_float(f: LaurentPolynomialZ, N: int) -> int:
    """The rounded complex product, certified by a forward error bound:
    the independent reference the tests compare ``_homology_exact``
    against.  Nothing in the package calls it; it goes with the
    benchmark change that drops its traced wrapper (ROADMAP item 9).

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


def _check_covers(f: LaurentPolynomialZ, Ns: list[int]) -> None:
    """Refuse N < 2 and warn, at the public caller's caller, when f(1)
    is not +-1."""
    for N in Ns:
        if N < 2:
            raise ValueError(f"N must be >= 2, got {N}")
    if abs(sum(f.coefficients)) != 1:
        warnings.warn(
            f"f(1) = {sum(f.coefficients)}; Alexander polynomials have "
            "f(1) = +-1, results may not be homology orders",
            UserWarning,
            stacklevel=3,
        )


def homology_order(f: LaurentPolynomialZ, N: int) -> int:
    """Order of the first homology of the N-fold branched cyclic cover
    whose Alexander polynomial is f: |prod_{d=1}^{N-1} f(zeta_N^d)|,
    and 0 when the product vanishes (infinite homology).

    The product is an integer determinant: the one-N case of the list
    walk in silver_williams_convergence, whose cost is about log2(N)
    small matrix products by doubling.
    """
    _check_covers(f, [N])
    return _homology_exact(f, [N])[0]


def silver_williams_convergence(
    f: LaurentPolynomialZ, N_list
) -> list[ConvergenceRecord]:
    """log|H_1(M_N)| / N against m(f) for each N, in the list's order.

    The orders come from one exact walk over the sorted distinct N,
    which advances its state from each N to the next by the gap m
    between them at a cost of about log2(m) small matrix products: a
    list costs a sum of logs of its gaps, where computing each N alone
    costs a sum of logs of the N.  The record's r field replicates N
    (the growth index of this family); N where the homology is infinite
    (order 0) produce flagged records.
    """
    # here, so the other commands never load the limit curves
    from .limits import ConvergenceRecord

    predicted = mahler_from_roots(f)
    Ns = [int(N) for N in N_list]
    _check_covers(f, Ns)
    records = []
    for N, h in zip(Ns, _homology_exact(f, Ns)):
        if h == 0:
            rec = ConvergenceRecord(N, float(N), math.nan, predicted,
                                    flagged=True)
        else:
            rec = ConvergenceRecord(N, float(N), math.log(h) / N, predicted)
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
