"""Hot evaluation kernels for the Habiro-Le sum.

Every entry point builds the array of factors g(j), j = 1..N-1, takes
signed log-prefix products of it, and (for the scans and grids) reduces
them to (sign, log|J|) by peeling the global max before a pairwise sum.

Phase convention: the j-th factor of the sum for color N at
t = exp(2 pi i x) is g(j) = 2 cos(2 pi x N) - 2 cos(2 pi x j).  Phases
are folded into [0, 1/2] (cos is even around a full turn), which keeps
large-argument cosine accuracy and makes the x <-> 1-x palindrome exact
in floating point whenever the products x*j round identically.

For x = r/N with integer r, factors vanish exactly when r*(N +- j) is a
multiple of N; the ``*_exact`` kernels compute phases by integer modular
arithmetic so those zeros are hit exactly (a float phase misses them by
an ulp and silently rebuilds garbage past the dead factor).
"""

from __future__ import annotations

import numpy as np


def current_backend() -> str:
    """Name of the kernel implementation, as recorded in benchmark runs."""
    return "numpy"


def _factors(N, x):
    """g(j) for j = 1..N-1 at t = exp(2 pi i x), phases folded into [0, 1/2]."""
    uN = x * N - np.floor(x * N)
    gN = 2.0 * np.cos(2.0 * np.pi * min(uN, 1.0 - uN))
    u = x * np.arange(1, N, dtype=np.float64)
    u -= np.floor(u)
    u = np.where(u > 0.5, 1.0 - u, u)
    return gN - 2.0 * np.cos(2.0 * np.pi * u)


def _factors_exact(c, r, N):
    """g(j) for j = 1..c-1 at t = exp(2 pi i r/N), integer phases r*j mod N."""
    qN = (r * c) % N
    qN = min(qN, N - qN)
    gN = 2.0 * np.cos(2.0 * np.pi * qN / N)
    q = (r * np.arange(1, c, dtype=np.int64)) % N
    q = np.minimum(q, N - q)
    g = gN - 2.0 * np.cos(2.0 * np.pi * q / N)
    g[q == qN] = 0.0
    return g


def _log_prefix(g):
    """(signs, log|f(k)|) of the partial products f(k) = g(1)...g(k), f(0) = 1."""
    with np.errstate(divide="ignore"):
        logf = np.concatenate((np.zeros(1), np.cumsum(np.log(np.abs(g)))))
    sgnf = np.concatenate(
        (np.ones(1, dtype=np.int8), np.cumprod(np.sign(g)).astype(np.int8))
    )
    logf[sgnf == 0] = -np.inf
    return sgnf, logf


def _reduce(sgnf, logf):
    # peel global max, fixed-shape pairwise reduction (np.sum)
    M = np.max(logf)
    if M == -np.inf:
        return 0, -np.inf
    with np.errstate(invalid="ignore"):
        terms = sgnf * np.exp(logf - M)
    terms[logf == -np.inf] = 0.0
    s = float(np.sum(terms))
    if s == 0.0:
        return 0, -np.inf
    if s > 0.0:
        return 1, M + np.log(s)
    return -1, M + np.log(-s)


def jones_scan(N: int, x: float) -> tuple[int, float]:
    """(sign, log|J_N|) of the Habiro-Le sum at t = exp(2 pi i x)."""
    return _reduce(*_log_prefix(_factors(N, x)))


def jones_scan_exact(c: int, r: int, N: int) -> tuple[int, float]:
    """(sign, log|J_c|) at t = exp(2 pi i r/N), integer r, exact zeros."""
    return _reduce(*_log_prefix(_factors_exact(c, r, N)))


def jones_prefix(N: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Prefix arrays (signs, log|f(k)|) of the partial products, k < N."""
    return _log_prefix(_factors(N, x))


# The grids call the private helpers, never jones_scan*, so a wrapper put
# around a public kernel (perfbench/tracing.py) sees each point once.
def jones_grid(Ns, xs) -> tuple[np.ndarray, np.ndarray]:
    """Vector evaluation over paired arrays of colors and positions."""
    Ns = np.asarray(Ns, dtype=np.int64)
    xs = np.asarray(xs, dtype=np.float64)
    out_s = np.empty(len(xs), dtype=np.int8)
    out_l = np.empty(len(xs), dtype=np.float64)
    for i in range(len(xs)):
        out_s[i], out_l[i] = _reduce(*_log_prefix(_factors(int(Ns[i]), float(xs[i]))))
    return out_s, out_l


def jones_grid_exact(cs, r: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Vector evaluation of colors cs at t = exp(2 pi i r/N), integer r."""
    cs = np.asarray(cs, dtype=np.int64)
    out_s = np.empty(len(cs), dtype=np.int8)
    out_l = np.empty(len(cs), dtype=np.float64)
    for i in range(len(cs)):
        out_s[i], out_l[i] = _reduce(*_log_prefix(_factors_exact(int(cs[i]), r, N)))
    return out_s, out_l
