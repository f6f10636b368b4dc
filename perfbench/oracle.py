"""Reference values for the benchmark's output checks.

Nothing here imports the package under test.  Three independent routes
give the reference for each CLI output:

* exact closed forms where they exist: the figure-eight volume
  2 Cl_2(pi/3), and the branched-cover homology orders L_{2N} - 2
  (Lucas numbers);
* the Habiro-Le sum J_c(t) = sum_k prod_{j<=k} (2 cos(2 pi x c) -
  2 cos(2 pi x j)) evaluated in numpy long double (64-bit mantissa),
  blocked so that memory stays bounded at N = 1e7, together with a
  forward-error bound for the float64 evaluation the CLI performs;
* mpmath at 32+ digits on a seeded subsample of points, which checks
  the long-double reference itself, and for the limit curves V and W.

Each tolerance is scaled by the point's conditioning: the bound follows
the relative error of every factor, about eps (4 pi x (c + j) + 6) / |g_j|
for a float phase, through the running log sum and the final signed
reduction.  A point whose bound reaches half its value is reported as
ill-conditioned: its sign is not checked, and its magnitude may lie
between a floor and the reference plus the bound.

The error bound gives no lower limit once it exceeds the value, so the
floor is a model of what a float64 evaluation can print there.  The sum
of terms up to exp(peak) carries rounding noise of at least about
eps exp(peak); the floor lies FLOOR_NATS below that.  A factor smaller
than its own phase error may round to zero and cut the sum short, so
the floor also reaches down to each such partial sum.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import astuple, dataclass
from pathlib import Path

import mpmath as mp
import numpy as np

LD = np.longdouble
EPS64 = float(np.finfo(np.float64).eps)
EPS_LD = float(np.finfo(LD).eps)
TWO_PI_LD = 2 * LD("3.14159265358979323846264338327950288")
# factor elements per long-double block; bounds oracle memory near 50 MB
BLOCK = 1 << 18
MP_DPS = 32
# how far below eps exp(peak) a float64 sum may still land, in nats
FLOOR_NATS = 40.0
LOG_EPS64 = math.log(EPS64)


class OracleError(RuntimeError):
    """The reference disagrees with itself (long double against mpmath)."""


@dataclass(frozen=True)
class JonesRef:
    """Reference for one point: sign and log|J| in long double, the
    relative error bound of a float64 evaluation of the same sum, and
    the lowest log|J| that evaluation may print if it is ill-conditioned."""

    sign: int
    logabs: float
    rel_bound: float
    peak_log: float
    floor: float

    @property
    def ill_conditioned(self) -> bool:
        return self.rel_bound >= 0.5

    def band(self) -> tuple[float, float]:
        """How far below and above the reference a float64 log|J| may lie;
        below is negative where even the floor lies above the reference."""
        if self.ill_conditioned:
            lowest = self.floor
            if self.rel_bound < 1.0:
                lowest = min(lowest, self.logabs + math.log1p(-self.rel_bound))
            # the long-double reference carries the same bound scaled by
            # its own epsilon
            return (self.logabs - lowest,
                    math.log1p(self.rel_bound) + math.log1p(self.rel_bound * EPS_LD / EPS64))
        tol = 2.0 * math.log1p(self.rel_bound) + 4 * EPS64 * abs(self.logabs)
        return tol, tol

    def accepts(self, sign: int, logabs: float, tol: float) -> bool:
        """Check a computed nonzero (sign, log|J|) with extra absolute slack tol."""
        if sign != self.sign and not self.ill_conditioned:
            return False
        below, above = self.band()
        return -below - tol <= logabs - self.logabs <= above + tol


class RefCache:
    """Long-double references stored as JSON under a directory, keyed
    by the inputs and by the source of the benchmark's modules that
    choose and compute them, so a changed oracle or check never reads
    stale values.  Without it each run would spend 3-11 s more on its
    references (2-core x86 host): the quadrature grids take 9 s, the
    N = 3000 cable profile 9 s and the N = 1e7 scan 7 s."""

    SOURCES = ("oracle.py", "checks.py", "workloads.py")

    def __init__(self, directory: Path):
        self.dir = directory
        here = Path(__file__).parent
        self.salt = hashlib.sha256(b"".join((here / f).read_bytes() for f in self.SOURCES)).hexdigest()

    def get(self, key, compute) -> list[JonesRef]:
        digest = hashlib.sha256((self.salt + repr(key)).encode()).hexdigest()[:32]
        path = self.dir / f"{digest}.json"
        if path.is_file():
            return [JonesRef(*row) for row in json.loads(path.read_text())]
        refs = compute()
        self.dir.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".part")
        tmp.write_text(json.dumps([astuple(r) for r in refs]))
        tmp.replace(path)
        return refs


# ---------------------------------------------------------------------------
# Habiro-Le sum in long double, with a float64 forward-error bound
# ---------------------------------------------------------------------------

def _cos_table(den: int) -> np.ndarray:
    return np.cos(TWO_PI_LD * np.arange(den, dtype=np.int64).astype(LD) / LD(den))


def jones_batch(c: int, xs=None, rat=None, int_phase=False) -> list[JonesRef]:
    """References for points that share the color c.

    xs holds float positions, taken exactly as the float64 inputs the
    CLI evaluates at.  rat = (nums, den) gives rational positions
    num/den, whose phases are exact integers modulo den, so factors
    vanish exactly where 2 pi x (c +- j) is a multiple of 2 pi.
    int_phase selects the error model of the CLI's integer-phase kernel
    (cable profiles at integer r) instead of its float-phase kernel.
    """
    if rat is not None:
        nums, den = rat
        nums = np.asarray(nums, dtype=np.int64)
        table = _cos_table(den)
        kc = (nums * c) % den
        gN = 2 * table[kc]
        xb = nums.astype(LD) / LD(den)
    else:
        xb = np.asarray(xs, dtype=np.float64).astype(LD)
        u = xb * c
        gN = 2 * np.cos(TWO_PI_LD * (u - np.floor(u.astype(np.float64))))
    P = len(xb)
    xf = xb.astype(np.float64)
    acc = np.zeros(P, dtype=LD)        # log|f(k)| so far
    sg = np.ones(P, dtype=LD)          # sign of f(k)
    M = np.zeros(P, dtype=LD)          # running max of log|f(k)|
    S = np.ones(P, dtype=LD)           # sum of f(k) / exp(M), k = 0 term
    A = np.ones(P)                     # sum of |f(k)| / exp(M)
    B = np.zeros(P)                    # sum of |f(k)| E_k / exp(M)
    E = np.zeros(P)                    # relative error bound of f(k)
    cut = np.full(P, np.inf)           # lowest floor of a sum cut short
    jb = max(1, BLOCK // P)
    for j0 in range(1, c, jb):
        j = np.arange(j0, min(c, j0 + jb), dtype=np.int64)
        if rat is not None:
            k = (nums[:, None] * j[None, :]) % den
            g = gN[:, None] - 2 * table[k]
            g[(k == kc[:, None]) | (k == (den - kc[:, None]) % den)] = 0
        else:
            u = xb[:, None] * j.astype(LD)[None, :]
            g = gN[:, None] - 2 * np.cos(TWO_PI_LD * (u - np.floor(u.astype(np.float64))))
        if int_phase:
            phase_err = 2 * math.pi + 6
        else:
            # 4x the rounding of x and x*j, through a slope of at most 4 pi
            phase_err = 16 * math.pi * xf[:, None] * (c + j.astype(np.float64))[None, :] + 6
        ag = np.abs(g)
        dead = ag == 0
        with np.errstate(divide="ignore"):
            lg = np.log(ag)
        cum = acc[:, None] + np.cumsum(lg, axis=1)
        sgn = sg[:, None] * np.cumprod(np.sign(g), axis=1)
        agf = ag.astype(np.float64)
        cumf = cum.astype(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = EPS64 * (phase_err / agf + 1 + np.abs(lg.astype(np.float64)) + np.abs(cumf))
        step[dead | ~np.isfinite(step)] = 0.0
        Ek = E[:, None] + np.cumsum(step, axis=1)
        live = sgn != 0
        Mn = np.maximum(M, np.where(live, cum, -np.inf).max(axis=1))
        scale = np.exp(M - Mn)
        S *= scale
        A *= scale.astype(np.float64)
        B *= scale.astype(np.float64)
        with np.errstate(invalid="ignore", over="ignore"):
            t = np.where(live, np.exp(cum - Mn[:, None]), 0)
        # a factor that float64 may round to zero, on a live prefix, ends
        # the sum at the partial sum before it
        vanish = ~dead & (ag <= EPS64 * phase_err)
        vanish &= np.concatenate((sg[:, None], sgn[:, :-1]), axis=1) != 0
        if vanish.any():
            part = S[:, None] + np.cumsum(sgn * t, axis=1)
            before = np.concatenate((S[:, None], part[:, :-1]), axis=1)
            peak = np.maximum.accumulate(np.concatenate(
                (M[:, None], np.where(live, cum, -np.inf)[:, :-1]), axis=1), axis=1)
            with np.errstate(divide="ignore"):
                low = np.minimum(Mn[:, None] + np.log(np.abs(before)) - math.log(2),
                                 peak + LOG_EPS64 - FLOOR_NATS)
            cut = np.minimum(cut, np.where(vanish, low, np.inf).min(axis=1).astype(np.float64))
        S += (sgn * t).sum(axis=1)
        tf = t.astype(np.float64)
        with np.errstate(invalid="ignore"):
            exp_err = EPS64 * (np.abs(cumf - Mn.astype(np.float64)[:, None]) + 1)
            B += np.where(live, tf * (Ek + exp_err), 0).sum(axis=1)
        A += tf.sum(axis=1)
        acc, sg, E, M = cum[:, -1], sgn[:, -1], Ek[:, -1], Mn
        if not np.any(sg):
            break
    out = []
    red = (math.log2(max(c, 2)) + 8) * EPS64
    for p in range(P):
        s = int(np.sign(S[p]))
        floor = min(float(M[p]) + LOG_EPS64 - FLOOR_NATS, float(cut[p]))
        if s == 0:
            out.append(JonesRef(0, -math.inf, math.inf, float(M[p]), floor))
            continue
        rel = (float(B[p]) + red * float(A[p])) / float(abs(S[p]))
        out.append(JonesRef(s, float(M[p] + np.log(abs(S[p]))), rel, float(M[p]), floor))
    return out


def jones_points(c: int, xs=None, rat=None) -> list[JonesRef]:
    """jones_batch over many points of one color, in memory-bounded groups."""
    n = len(xs) if xs is not None else len(rat[0])
    step = max(1, BLOCK // max(c, 1))
    out = []
    for i in range(0, n, step):
        if xs is not None:
            out.extend(jones_batch(c, xs=xs[i:i + step]))
        else:
            out.extend(jones_batch(c, rat=(rat[0][i:i + step], rat[1])))
    return out


# ---------------------------------------------------------------------------
# mpmath cross-checks of the long-double reference
# ---------------------------------------------------------------------------

def _mp_factor(c, j, x, rat):
    if rat is not None:
        num, den = int(rat[0]), int(rat[1])
        k, kc = (num * j) % den, (num * c) % den
        if k == kc or k == (den - kc) % den:
            return mp.mpf(0)
        return 2 * mp.cos(2 * mp.pi * mp.mpf(kc) / den) - 2 * mp.cos(2 * mp.pi * mp.mpf(k) / den)
    return 2 * mp.cos(2 * mp.pi * x * c) - 2 * mp.cos(2 * mp.pi * x * j)


def jones_mp(c: int, x=None, rat=None) -> tuple[int, mp.mpf]:
    """(sign, log|J_c|) by direct summation at MP_DPS digits; x is a
    float taken exactly, rat a (num, den) pair."""
    with mp.workdps(MP_DPS):
        xv = None if x is None else mp.mpf(float(x))
        s = mp.mpf(1)
        f = mp.mpf(1)
        for j in range(1, c):
            f *= _mp_factor(c, j, xv, rat)
            if f == 0:
                break
            s += f
        if s == 0:
            return 0, -mp.inf
        return (1 if s > 0 else -1), mp.log(abs(s))


def cross_check(ref: JonesRef, c: int, x=None, rat=None, rng=None) -> None:
    """Raise OracleError unless the long-double reference agrees with
    mpmath.  Up to 20000 terms the whole sum is recomputed; beyond, 32
    seeded factors of a float position are."""
    if c <= 20000:
        s, lv = jones_mp(c, x, rat)
        ld_bound = ref.rel_bound * (EPS_LD / EPS64) * 16 + 1e-25
        if ld_bound >= 0.5:
            return
        if s != ref.sign or abs(float(lv) - ref.logabs) > ld_bound + 1e-17 * abs(ref.logabs):
            raise OracleError(f"long double J_{c} at {x or rat}: {ref} vs mpmath {s} {lv}")
        return
    xl = LD(x)
    for j in sorted(rng.choice(np.arange(1, c), size=32, replace=False)):
        j = int(j)
        u, uj = xl * c, xl * j
        gl = (2 * np.cos(TWO_PI_LD * (u - np.floor(float(u))))
              - 2 * np.cos(TWO_PI_LD * (uj - np.floor(float(uj)))))
        with mp.workdps(MP_DPS):
            gm = _mp_factor(c, j, mp.mpf(float(x)), None)
            diff = abs(mp.mpf(np.format_float_scientific(gl, precision=24)) - gm)
        tol = EPS_LD * 64 * (4 * math.pi * x * (c + j) + 6)
        if diff > tol:
            raise OracleError(f"long double factor {j} of J_{c} at {x}: {gl} vs {gm}")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def volume_mp():
    """Figure-eight complement volume 2 Cl_2(pi/3) = 6 Lambda(pi/3)."""
    with mp.workdps(MP_DPS):
        return 2 * mp.clsin(2, mp.pi / 3)


def lucas(n: int) -> int:
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def homology_fig8(N: int) -> int:
    """|H_1| of the N-fold branched cyclic cover of the figure-eight knot."""
    return lucas(2 * N) - 2


def mahler_fig8_alexander():
    with mp.workdps(MP_DPS):
        return mp.log((3 + mp.sqrt(5)) / 2)


def _lam(t):
    return mp.clsin(2, 2 * t) / 2


# (lo, hi, offset, scale): value = scale (Lambda(pi x + th/2) - Lambda(pi x - th/2)),
# th = arccos(cos(2 pi x) + offset); scale 0 marks the zero branch.
_V = ((0.0, 1 / 6, 0.0, 0), (1 / 6, 0.75, 0.5, -2), (0.75, 1.0, -0.5, 2))
_W = ((0.0, 0.25, -0.5, 2), (0.25, 0.75, 0.5, -2), (0.75, 1.0, -0.5, 2))


def limit_mp(x: float, curve: str) -> tuple[float, float]:
    """(value, conditioning tolerance) of the limit curve V or W at x."""
    table = _V if curve == "V" else _W
    for i, (lo, hi, off, scale) in enumerate(table):
        if lo <= x < hi or (i == len(table) - 1 and x == hi):
            break
    if scale == 0:
        return 0.0, 0.0
    with mp.workdps(MP_DPS):
        def value(xm, dth=0):
            th = mp.acos(mp.cos(2 * mp.pi * xm) + off) + dth
            return scale * (_lam(mp.pi * xm + th / 2) - _lam(mp.pi * xm - th / 2))
        xm = mp.mpf(x)
        v = value(xm)
        h = mp.mpf(10) ** -12 * max(abs(xm), mp.mpf("1e-3"))
        slope = (value(xm + h) - value(xm - h)) / (2 * h)
        th = mp.acos(mp.cos(2 * mp.pi * xm) + off)
        dth = 4 * EPS64 / max(float(mp.sin(th)), 1e-12)
        cterm = abs(value(xm, dth) - v)
    tol = 8 * EPS64 * abs(float(xm * slope)) + 4 * float(cterm) + 1e-14 * (1 + abs(float(v)))
    return float(v), tol


def predicted_mp(r: float) -> tuple[float, float]:
    """Limit of the normalized log at growth parameter r (V on [0,1],
    W of the fractional part beyond)."""
    if r <= 1.0:
        return limit_mp(r, "V")
    return limit_mp(r - math.floor(r), "W")
