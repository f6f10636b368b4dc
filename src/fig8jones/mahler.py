"""Logarithmic Mahler measure, branched-cover homology orders, and the
growth experiments that tie them to the colored Jones values.

Two independent routes to m(f) are kept deliberately separate: the
root-product (leading coefficient times roots outside the unit disk)
and direct quadrature of log|f| over the circle.  Homology orders of
the N-fold branched cyclic cover come from the product of the Alexander
polynomial over N-th roots of unity; the product is an integer, so a
floating evaluation is only accepted inside a strict rounding window
and an exact integer path (polynomial powers modulo f plus a resultant)
takes over beyond it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
from .errors import PrecisionError, SingularityError
from .jones_fig8 import SignedLogValue
from .limits import ConvergenceRecord

__all__ = [
    "LaurentPolynomialZ",
    "FIG8_ALEXANDER",
    "LaurentSampler",
    "ConstSampler",
    "JonesSampler",
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

    @property
    def degree_span(self) -> int:
        return len(self.coefficients) - 1

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

    def __mul__(self, other: "LaurentPolynomialZ") -> "LaurentPolynomialZ":
        a, b = self.coefficients, other.coefficients
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return LaurentPolynomialZ(
            self.low_exponent + other.low_exponent, tuple(out)
        )

    def eval_at(self, z: complex) -> complex:
        """Direct evaluation at a nonzero complex point."""
        acc = 0.0 + 0.0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc * z ** self.low_exponent

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

class LaurentSampler:
    """Sampler of log|f(exp(2 pi i x))| for an integer Laurent polynomial."""

    def __init__(self, f: LaurentPolynomialZ):
        self.f = f

    def __call__(self, x: float) -> SignedLogValue:
        s, l = self.batch(np.array([x]))
        return SignedLogValue.zero() if s[0] == 0 else SignedLogValue(1, float(l[0]))

    def batch(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.f.eval_circle_batch(xs)


class ConstSampler:
    """Sampler of a constant function (useful for calibration checks)."""

    def __init__(self, value: float):
        self.value = float(value)

    def __call__(self, x: float) -> SignedLogValue:
        return SignedLogValue.from_float(self.value)

    def batch(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = len(xs)
        if self.value == 0.0:
            return np.zeros(n, dtype=np.int8), np.full(n, -np.inf)
        s = 1 if self.value > 0 else -1
        return (np.full(n, s, dtype=np.int8),
                np.full(n, math.log(abs(self.value))))


class JonesSampler:
    """Sampler of log|J_N(E; exp(2 pi i x))| via the Habiro-Le kernels."""

    def __init__(self, N: int):
        if N < 1:
            raise ValueError(f"N must be >= 1, got {N}")
        self.N = N

    def __call__(self, x: float) -> SignedLogValue:
        s, l = _kernels.jones_scan(self.N, float(x) % 1.0)
        return SignedLogValue.zero() if s == 0 else SignedLogValue(s, l)

    def batch(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        xs = np.asarray(xs, dtype=float) % 1.0
        return _kernels.jones_grid(np.full(len(xs), self.N, dtype=np.int64), xs)


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


def _sample(sampler, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    batch = getattr(sampler, "batch", None)
    if batch is not None:
        return batch(xs)
    signs = np.empty(len(xs), dtype=np.int8)
    logs = np.empty(len(xs))
    for i, x in enumerate(xs):
        v = sampler(float(x))
        signs[i] = v.sign
        logs[i] = v.logabs
    return signs, logs


def log_mahler_quadrature(sampler, n: int) -> float:
    """Midpoint quadrature of log|sampler| over one turn with n uniform
    samples.

    Samples that are exactly zero (integrable log singularities) are
    replaced by one level of dyadic refinement: the offending panel is
    split into 8 sub-midpoints and the surviving values averaged.  More
    than n/10 zero samples raises SingularityError.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    xs = (np.arange(n) + 0.5) / n
    signs, logs = _sample(sampler, xs)
    zero_idx = np.nonzero(signs == 0)[0]
    if len(zero_idx) > n / 10:
        raise SingularityError(
            f"{len(zero_idx)} of {n} samples vanished; sampler looks "
            "identically zero"
        )
    vals = logs.astype(float)
    for i in zero_idx:
        sub = (i + (np.arange(8) + 0.5) / 8.0) / n
        ss, sl = _sample(sampler, sub)
        live = ss != 0
        vals[i] = np.mean(sl[live]) if np.any(live) else 0.0
    return float(np.mean(vals))


# ---------------------------------------------------------------------------
# homology orders of branched cyclic covers
# ---------------------------------------------------------------------------

def _poly_divmod_linear(coeffs: list[int], root: int) -> list[int] | None:
    """Exact division by (t - root) if it divides; None otherwise."""
    q = []
    acc = 0
    for c in reversed(coeffs):  # synthetic division, high to low
        acc = c + acc * root
        q.append(acc)
    rem = q.pop()
    if rem != 0:
        return None
    return list(reversed(q))


def _monic_from(p: list[int]) -> list[Fraction]:
    lead = Fraction(p[-1])
    return [Fraction(c) / lead for c in p]


def _polymod(a: list[Fraction], m: list[Fraction]) -> list[Fraction]:
    a = a[:]
    dm = len(m) - 1
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        q = a[-1]
        off = len(a) - 1 - dm
        for i in range(dm + 1):
            a[off + i] -= q * m[i]
        a.pop()
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _polymulmod(a, b, m):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _polymod(out, m)


def _powmod_t(N: int, m: list[Fraction]) -> list[Fraction]:
    """t^N mod m by square-and-multiply."""
    result = [Fraction(1)]
    base = _polymod([Fraction(0), Fraction(1)], m)
    e = N
    while e:
        if e & 1:
            result = _polymulmod(result, base, m)
        base = _polymulmod(base, base, m)
        e >>= 1
    return result


def _poly_inv_mod(a: list[Fraction], m: list[Fraction]) -> list[Fraction] | None:
    """Inverse of a modulo m in Q[t] via extended Euclid; None if not coprime."""
    def degree(p):
        for i in range(len(p) - 1, -1, -1):
            if p[i] != 0:
                return i
        return -1

    def scale(p, s):
        return [c * s for c in p]

    def sub(p, q):
        n = max(len(p), len(q))
        p = p + [Fraction(0)] * (n - len(p))
        q = q + [Fraction(0)] * (n - len(q))
        return [pi - qi for pi, qi in zip(p, q)]

    def shift(p, k):
        return [Fraction(0)] * k + p

    r0, r1 = m[:], a[:]
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while degree(r1) >= 0:
        d0, d1 = degree(r0), degree(r1)
        if d0 < d1:
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        q = r0[d0] / r1[d1]
        r0 = sub(r0, shift(scale(r1, q), d0 - d1))
        s0 = sub(s0, shift(scale(s1, q), d0 - d1))
        if degree(r0) < degree(r1):
            r0, r1, s0, s1 = r1, r0, s1, s0
    if degree(r0) != 0:
        return None
    inv_lead = 1 / r0[degree(r0)]
    return _polymod(scale(s0, inv_lead), m)


def _resultant(m: list[Fraction], b: list[Fraction]) -> Fraction:
    """Res(m, b) for monic m: product of b over the roots of m, via a
    Sylvester determinant with exact rational elimination."""
    def degree(p):
        for i in range(len(p) - 1, -1, -1):
            if p[i] != 0:
                return i
        return -1

    dm = degree(m)
    db = degree(b)
    if db < 0:
        return Fraction(0)
    if dm == 0:
        return Fraction(1)
    if db == 0:
        return b[0] ** dm
    n = dm + db
    mat = [[Fraction(0)] * n for _ in range(n)]
    for i in range(db):
        for j, c in enumerate(reversed(m[: dm + 1])):
            mat[i][i + j] = c
    for i in range(dm):
        for j, c in enumerate(reversed(b[: db + 1])):
            mat[db + i][i + j] = c
    det = Fraction(1)
    for col in range(n):
        piv = None
        for row in range(col, n):
            if mat[row][col] != 0:
                piv = row
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for row in range(col + 1, n):
            if mat[row][col] != 0:
                factor = mat[row][col] * inv
                for k in range(col, n):
                    mat[row][k] -= factor * mat[col][k]
    return det


def _homology_exact(f: LaurentPolynomialZ, N: int) -> int:
    """|prod_{d=1}^{N-1} f(zeta_N^d)| by exact integer/rational arithmetic."""
    p = list(f.coefficients)
    # peel (t - 1)^mult; each contributes prod_{d=1}^{N-1} (zeta^d - 1) = +-N
    mult = 0
    while sum(p) == 0:
        p = _poly_divmod_linear(p, 1)
        mult += 1
    if len(p) == 1:
        total = Fraction(abs(p[0]) ** (N - 1))
    else:
        lead = p[-1]
        m = _monic_from(p)
        tN = _powmod_t(N, m)
        tN = tN + [Fraction(0)] * (1 - len(tN))
        tN[0] -= 1  # t^N - 1 mod m
        inv = _poly_inv_mod([Fraction(-1), Fraction(1)], m)
        if inv is None:  # cannot happen: (t-1) factors were peeled
            raise PrecisionError("unexpected common factor with t - 1")
        geo = _polymulmod(tN, inv, m)  # (t^N - 1)/(t - 1) mod m
        res = _resultant(m, geo)
        total = Fraction(abs(lead)) ** (N - 1) * abs(res)
    total *= Fraction(N) ** mult
    if total.denominator != 1:
        raise PrecisionError(f"homology product not integral: {total}")
    return int(total)


def _homology_float(f: LaurentPolynomialZ, N: int) -> int:
    z = np.exp(2j * np.pi * np.arange(1, N) / N)
    vals = np.polyval(list(reversed(f.coefficients)), z)
    vals = vals * z ** float(f.low_exponent)
    prod = complex(1.0)
    for v in vals:
        prod *= complex(v)
        if abs(prod) > 2**52:
            raise PrecisionError(
                f"homology product exceeds the exact-integer float window "
                f"at N={N}; use the exact path"
            )
    if abs(prod.imag) > 0.25:
        raise PrecisionError(f"homology product drifted complex: {prod}")
    nearest = round(abs(prod.real))
    if abs(abs(prod.real) - nearest) > 0.25:
        raise PrecisionError(
            f"homology product {prod.real} not within 0.25 of an integer"
        )
    return int(nearest)


def homology_order(f: LaurentPolynomialZ, N: int, method: str = "auto") -> int:
    """Order of the first homology of the N-fold branched cyclic cover
    whose Alexander polynomial is f: |prod_{d=1}^{N-1} f(zeta_N^d)|,
    and 0 when the product vanishes (infinite homology).

    method 'float' uses the complex product and enforces the 0.25
    integer-rounding window (PrecisionError beyond it); 'exact' and
    'auto' use integer/rational arithmetic.  The float window is not a
    certificate: near 2^52 it accepts a wrong integer (figure-eight,
    N = 35), so 'auto' never takes it.
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
    if method in ("exact", "auto"):
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
        m = log_mahler_quadrature(JonesSampler(N), n_quad)
        ratio = 2.0 * math.pi * m / math.log(N) if N > 1 else math.nan
        rows.append((N, m, ratio))
    return rows
