"""Hot evaluation kernels for the Habiro-Le sum.

Every entry point builds the array of factors g(j), j = 1..N-1, takes
signed log-prefix products of it, and (for the scans and grids) reduces
them to (sign, log|J|) by peeling each point's max before a pairwise sum.

Phase convention: the j-th factor of the sum for color N at
t = exp(2 pi i x) is g(j) = 2 cos(2 pi x N) - 2 cos(2 pi x j).  Phases
are folded into [0, 1/2] (cos is even around a full turn), which keeps
large-argument cosine accuracy and makes the x <-> 1-x palindrome exact
in floating point whenever the products x*j round identically.

For x = r/N with integer r, factors vanish exactly when r*(N +- j) is a
multiple of N; the ``*_exact`` kernels compute phases by integer modular
arithmetic so those zeros are hit exactly (a float phase misses them by
an ulp and silently rebuilds garbage past the dead factor).

Layout: the core works on 2-D arrays of shape (rows, j), one row per
evaluation point of the same color.  ``jones_grid`` sorts its points by
color and evaluates each color in chunks of at most ``_CHUNK_FACTORS``
factors (at least one row), so the per-point cost is a share of a few
whole-array numpy calls rather than a Python iteration, and the working
set of a chunk stays in cache.  The scans and ``jones_prefix`` are the
one-row case.  Every row sees the same sequence of floating-point
operations as a lone scan: cumsum/cumprod along a row are sequential
recurrences and a row sum of a C-contiguous block is the same pairwise
sum, so the grids match the scans bit for bit.
"""

from __future__ import annotations

import numpy as np

# Factors per chunk of jones_grid: 128 KiB per float64 array, so the few
# arrays a chunk keeps alive fit in L2.  Of 2^12..2^15, 2^14 ran the
# quadrature grids fastest on a 2-core Xeon with 2 MiB of L2 per core.
_CHUNK_FACTORS = 1 << 14


def current_backend() -> str:
    """Name of the kernel implementation, as recorded in benchmark runs."""
    return "numpy"


def _factors(N, xs):
    """Rows g(j), j = 1..N-1, at t = exp(2 pi i x) for each x of xs,
    phases folded into [0, 1/2]."""
    uN = xs * N
    uN -= np.floor(uN)
    gN = 2.0 * np.cos(2.0 * np.pi * np.minimum(uN, 1.0 - uN))
    u = np.multiply.outer(xs, np.arange(1, N, dtype=np.float64))
    t = np.floor(u)
    u -= t
    np.subtract(1.0, u, out=t)
    np.minimum(u, t, out=u)
    u *= 2.0 * np.pi
    np.cos(u, out=u)
    u *= 2.0
    return np.subtract(gN[:, None], u, out=u)


def _exact_phases(n, r, N):
    """Folded integer phases q_j = min(r j mod N, N - r j mod N) and
    2 cos(2 pi q_j / N) for j = 1..n, shared by every color c <= n + 1."""
    q = (r * np.arange(1, n + 1, dtype=np.int64)) % N
    q = np.minimum(q, N - q)
    return q, 2.0 * np.cos(2.0 * np.pi * q / N)


def _factors_exact(c, r, N, q, cos_q):
    """One row g(j), j = 1..c-1, at t = exp(2 pi i r/N) from the tables of
    ``_exact_phases``; factors with q_j == q_c are exactly zero."""
    qN = (r * c) % N
    qN = min(qN, N - qN)
    gN = 2.0 * np.cos(2.0 * np.pi * qN / N)
    n = max(c - 1, 0)
    g = gN - cos_q[None, :n]
    g[:, q[:n] == qN] = 0.0
    return g


def _log_prefix(g):
    """Row-wise (signs, log|f(k)|) of the partial products
    f(k) = g(1)...g(k), f(0) = 1.  Overwrites g.  A vanished factor's
    log|0| = -inf carries through the cumsum, so dead prefixes read
    -inf exactly where their sign is 0."""
    rows, n = g.shape
    sgnf = np.empty((rows, n + 1), dtype=np.int8)
    logf = np.empty((rows, n + 1))
    sgnf[:, 0] = 1
    logf[:, 0] = 0.0
    s = np.sign(g)
    sgnf[:, 1:] = np.cumprod(s, axis=1, out=s)
    del s  # freed before the cumsum first touches logf's pages
    with np.errstate(divide="ignore"):
        np.log(np.abs(g, out=g), out=g)
    np.cumsum(g, axis=1, out=logf[:, 1:])
    return sgnf, logf


def _reduce(sgnf, logf):
    """Row-wise (signs, log|sum_k f(k)|): peel each row's max, then a
    fixed-shape pairwise sum (np.sum).  Overwrites logf.

    f(0) = 1 keeps every max finite, and exp(-inf) * 0 is +0.0 exactly
    where a factor vanished, so no row needs masking."""
    M = np.max(logf, axis=1)
    np.subtract(logf, M[:, None], out=logf)
    np.exp(logf, out=logf)
    logf *= sgnf
    s = np.sum(logf, axis=1)
    with np.errstate(divide="ignore"):
        return np.sign(s).astype(np.int8), M + np.log(np.abs(s))


def _scalar(sl):
    s, l = sl
    return int(s[0]), l[0]


def jones_scan(N: int, x: float) -> tuple[int, float]:
    """(sign, log|J_N|) of the Habiro-Le sum at t = exp(2 pi i x)."""
    return _scalar(_reduce(*_log_prefix(_factors(N, np.array([x], dtype=np.float64)))))


def jones_scan_exact(c: int, r: int, N: int) -> tuple[int, float]:
    """(sign, log|J_c|) at t = exp(2 pi i r/N), integer r, exact zeros."""
    g = _factors_exact(c, r, N, *_exact_phases(c - 1, r, N))
    return _scalar(_reduce(*_log_prefix(g)))


def jones_prefix(N: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Prefix arrays (signs, log|f(k)|) of the partial products, k < N."""
    sgnf, logf = _log_prefix(_factors(N, np.array([x], dtype=np.float64)))
    return sgnf[0], logf[0]


# The grids call the private helpers, never jones_scan*, so a wrapper put
# around a public kernel (perfbench/tracing.py) sees each point once.
def jones_grid(Ns, xs) -> tuple[np.ndarray, np.ndarray]:
    """Vector evaluation over paired arrays of colors and positions."""
    Ns = np.asarray(Ns, dtype=np.int64)
    xs = np.asarray(xs, dtype=np.float64)
    out_s = np.empty(len(xs), dtype=np.int8)
    out_l = np.empty(len(xs), dtype=np.float64)
    if len(xs) == 0:
        return out_s, out_l
    order = np.argsort(Ns, kind="stable")
    for group in np.split(order, np.flatnonzero(np.diff(Ns[order])) + 1):
        N = int(Ns[group[0]])
        rows = max(1, _CHUNK_FACTORS // max(N - 1, 1))
        for k in range(0, len(group), rows):
            idx = group[k:k + rows]
            out_s[idx], out_l[idx] = _reduce(*_log_prefix(_factors(N, xs[idx])))
    return out_s, out_l


def jones_grid_exact(cs, r: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Vector evaluation of colors cs at t = exp(2 pi i r/N), integer r."""
    cs = np.asarray(cs, dtype=np.int64)
    out_s = np.empty(len(cs), dtype=np.int8)
    out_l = np.empty(len(cs), dtype=np.float64)
    q, cos_q = _exact_phases(int(cs.max(initial=1)) - 1, r, N)
    for i in range(len(cs)):
        g = _factors_exact(int(cs[i]), r, N, q, cos_q)
        out_s[i], out_l[i] = _scalar(_reduce(*_log_prefix(g)))
    return out_s, out_l
