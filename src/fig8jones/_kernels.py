"""Hot evaluation kernels for the Habiro-Le sum.

Every entry point builds the factors g(j), j = 1..c-1, of a color c,
takes signed log-prefix products of them, and (for the scans and grids)
reduces those to (sign, log|J_c|) by peeling each row's max before a
pairwise sum.

Phase convention: at t = exp(2 pi i x) the j-th factor is
g(j) = 2 cos(2 pi x c) - 2 cos(2 pi x j).  Phases are folded into
[0, 1/2] (cos is even around a full turn), which keeps large-argument
cosine accuracy.  They reach the cosines by one of two routes:

* Float phases (``_factors``): x*j in floating point, one cosine per
  factor.  The scans, ``jones_prefix`` and the non-dyadic points of
  ``jones_grid`` take this route; it is the reference the grid tests
  compare against.
* Integer phases: x = k/Q with integer k, folded numerators
  q_j = min(k j mod Q, Q - k j mod Q), and factors tab[q_c] - tab[q_j]
  from one table tab[q] = 2 cos(2 pi q/Q), q <= Q/2.  The table is built
  only when its Q/2 + 1 cosines are no more than those it replaces;
  otherwise the same expression is evaluated per phase, with the same
  bits.  ``jones_grid_exact`` and ``jones_scan_exact`` use Q = N for
  x = r/N, so factors that vanish mathematically are exactly zero (a
  float phase misses them by an ulp and rebuilds noise past the dead
  factor).  A ``jones_grid`` point with dyadic x in [0, 1), x = k/2^e
  with e + bit_length(c) <= 53, uses Q = 2^e: every x*j, j <= c, is then
  exact, and since dividing by a power of two is exact,
  fl(fl(2 pi) q)/Q == fl((q/Q) fl(2 pi)), so this route reproduces the
  float route's factors bit for bit.

The x <-> 1-x fold: for such a dyadic x, 1 - x and every (1 - x) j are
exact too, so x and 1 - x have bit-identical folded phases and values.
``jones_grid`` maps each dyadic x to min(x, 1 - x), evaluates each
distinct value of a color once and scatters the results back, which
halves the work of a symmetric grid such as the quadrature midpoints.

Early exit: on integer phases g(j) = 0 exactly when q_j == q_c, and the
first such j follows from integer arithmetic (``_live``).  Past it every
prefix product is 0, its log -inf, and its term exp(-inf) * 0 = +0.0.
So the integer core forms factors, logs and exps only up to the longest
live prefix in a chunk, then zero-fills the terms to the row's full
length before ``np.sum``: the row holds the same values at the same
length, so the pairwise-sum tree, and with it the result, is
bit-identical to evaluating the whole row.

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


def _twocos(q, Q):
    """2 cos(2 pi q/Q) for integer phases q.  For Q a power of two,
    fl(fl(2 pi) q)/Q == fl((q/Q) fl(2 pi)), so these equal the float
    path's values at x = q/Q bit for bit."""
    return 2.0 * np.cos(2.0 * np.pi * q / Q)


def _cos_lookup(Q, count):
    """q -> 2 cos(2 pi q/Q) for folded q: through a table of its Q/2 + 1
    values when those are no more than the ``count`` cosines it would
    replace, else evaluated directly.  Both give the same bits."""
    if Q // 2 + 1 <= count:
        return _twocos(np.arange(Q // 2 + 1), Q).take
    return lambda q: _twocos(q, Q)


def _fold(q, Q):
    """Integer phases min(q mod Q, Q - q mod Q), in place.  For the
    power-of-two Q of dyadic points a mask replaces the division, which
    costs about eight times as much per element."""
    if Q & (Q - 1):
        q %= Q
    else:
        q &= Q - 1
    return np.minimum(q, Q - q, out=q)


def _live(c, k, Q):
    """Number of terms f(0), f(1), ... before the first dead factor of
    color c at t = exp(2 pi i k/Q).  g(j) vanishes exactly when
    q_j == q_c, that is when Q / gcd(k, Q) divides c - j or c + j."""
    d = Q // np.gcd(k, Q)
    first = np.minimum((c - 1) % d, (-c - 1) % d) + 1
    return np.minimum(first, np.maximum(c, 1))


def _live_reduce(gc, gq, live, c):
    """Row-wise (signs, log|J_c|) of the integer-phase rows with factors
    g(j) = gc - gq[:, j-1].  Factors are formed only up to the chunk's
    longest live prefix; every term past a row's live prefix is dead
    (+0.0), and those past the formed ones are zero-filled, so every row
    is summed over its full c terms."""
    g = gc[:, None] - gq[:, :int(live.max()) - 1]
    return _reduce(*_log_prefix(g), c)


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


def _reduce(sgnf, logf, width=0):
    """Row-wise (signs, log|sum_k f(k)|): peel each row's max, then a
    fixed-shape pairwise sum (np.sum) over ``width`` terms, the columns
    past logf's being +0.0.  Overwrites logf.

    f(0) = 1 keeps every max finite, and exp(-inf) * 0 is +0.0 exactly
    where a factor vanished, so no row needs masking."""
    M = np.max(logf, axis=1)
    np.subtract(logf, M[:, None], out=logf)
    np.exp(logf, out=logf)
    logf *= sgnf
    rows, n = logf.shape
    if width > n:
        terms = np.zeros((rows, width))
        terms[:, :n] = logf
        logf = terms
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
    return _scalar(jones_grid_exact(np.array([c], dtype=np.int64), r, N))


def jones_prefix(N: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Prefix arrays (signs, log|f(k)|) of the partial products, k < N."""
    sgnf, logf = _log_prefix(_factors(N, np.array([x], dtype=np.float64)))
    return sgnf[0], logf[0]


def _grid_color(N, x):
    """(signs, log|J_N|) at each position of x, in chunks of at most
    ``_CHUNK_FACTORS`` factors: dyadic x once per x <-> 1-x pair on the
    integer core with Q = 2^e, the rest on the float path."""
    out_s = np.empty(len(x), dtype=np.int8)
    out_l = np.empty(len(x), dtype=np.float64)
    rows = max(1, _CHUNK_FACTORS // max(N - 1, 1))
    # x = k / 2^e with e + bit_length(N) <= 53 makes every x*j, j <= N,
    # exact, so its folded float phases are exact and equal at 1 - x
    e = 53 - N.bit_length()
    y = x * 2.0 ** e
    dyadic = (x >= 0.0) & (x < 1.0) & (y == np.floor(y))
    idx = np.flatnonzero(~dyadic)
    for k in range(0, len(idx), rows):
        i = idx[k:k + rows]
        out_s[i], out_l[i] = _reduce(*_log_prefix(_factors(N, x[i])))
    if not dyadic.any():
        return out_s, out_l
    ky = y[dyadic].astype(np.int64)
    ks, inv = np.unique(np.minimum(ky, (1 << e) - ky), return_inverse=True)
    # the smallest power-of-two denominator shared by all numerators
    v = int(np.bitwise_or.reduce(ks))
    tz = (v & -v).bit_length() - 1 if v else e
    ks >>= tz
    Q = 1 << (e - tz)
    cos_q = _cos_lookup(Q, len(ks) * N)
    gc = cos_q(_fold(ks * N, Q))
    live = _live(N, ks, Q)
    us = np.empty(len(ks), dtype=np.int8)
    ul = np.empty(len(ks), dtype=np.float64)
    for k in range(0, len(ks), rows):
        chunk = slice(k, k + rows)
        j = np.arange(1, int(live[chunk].max()), dtype=np.int64)
        gq = cos_q(_fold(np.multiply.outer(ks[chunk], j), Q))
        us[chunk], ul[chunk] = _live_reduce(gc[chunk], gq, live[chunk], N)
    out_s[dyadic], out_l[dyadic] = us[inv], ul[inv]
    return out_s, out_l


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
        out_s[group], out_l[group] = _grid_color(int(Ns[group[0]]), xs[group])
    return out_s, out_l


def jones_grid_exact(cs, r: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Vector evaluation of colors cs at t = exp(2 pi i r/N), integer r."""
    cs = np.asarray(cs, dtype=np.int64)
    out_s = np.empty(len(cs), dtype=np.int8)
    out_l = np.empty(len(cs), dtype=np.float64)
    live = _live(cs, r, N)
    m = int(live.max(initial=1)) - 1
    cos_q = _cos_lookup(N, m + len(cs))
    gq = cos_q(_fold(r * np.arange(1, m + 1, dtype=np.int64), N))[None, :]
    gc = cos_q(_fold(r * cs, N))
    for i in range(len(cs)):
        out_s[i], out_l[i] = _scalar(
            _live_reduce(gc[i:i + 1], gq, live[i:i + 1], int(cs[i])))
    return out_s, out_l
