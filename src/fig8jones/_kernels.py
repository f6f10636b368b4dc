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
  q_j = min(k j mod Q, Q - k j mod Q), and factors
  2 cos(2 pi q_c/Q) - 2 cos(2 pi q_j/Q).  ``jones_grid_exact`` uses
  Q = N for x = r/N, so factors that vanish mathematically are exactly
  zero (a float phase misses them by an ulp and rebuilds noise past the
  dead factor); it needs one cosine per j and one per color, and
  evaluates them directly.  A ``jones_grid`` point with dyadic x in
  [0, 1), x = k/2^e with e + bit_length(c) <= 53, uses Q = 2^e: every
  x*j, j <= c, is then exact, and since dividing by a power of two is
  exact, fl(fl(2 pi) q)/Q == fl((q/Q) fl(2 pi)), so this route
  reproduces the float route's factors bit for bit.  The dyadic points
  of a color are grouped by their reduced denominator Q, and each group
  takes its factors from one table tab[q] = 2 cos(2 pi q/Q), q <= Q/2,
  built only when its Q/2 + 1 cosines are no more than the factors they
  serve; otherwise that group takes the float route, with the same bits.

The x <-> 1-x fold: for such a dyadic x, 1 - x and every (1 - x) j are
exact too, so x and 1 - x have bit-identical folded phases and values.
``jones_grid`` maps each dyadic x to min(x, 1 - x), evaluates each
distinct value of a color once and scatters the results back, which
halves the work of a symmetric grid such as the quadrature midpoints.

Early exit: on integer phases g(j) = 0 exactly when q_j == q_c, and the
first such j, at most c, follows from integer arithmetic (``_live``).
Past it every prefix product is 0, its log -inf, and its term
exp(-inf) * 0 = +0.0.  So the integer core forms factors, logs and exps
only up to the longest live prefix in a chunk, and each row is summed
over its color's full c terms, the ones past the formed columns +0.0:
the row holds the same values at the same length, so the pairwise-sum
tree, and with it the result, is bit-identical to evaluating the whole
row.

Layout: the core works on 2-D arrays of shape (rows, j), one row per
evaluation point, in chunks of at most ``_CHUNK_FACTORS`` factors (at
least one row), so the per-point cost is a share of a few whole-array
numpy calls rather than a Python iteration, and the working set of a
chunk stays in cache.  A chunk may hold rows of several colors: sorted
by color (the float route of ``jones_grid``) or by live length
(``jones_grid_exact``), each chunk is as wide as its longest row.  A
shorter row runs past its own first vanishing factor, an exact 0.0 (on
the float route g(c), two cosines of the same float x*c), so its extra
columns are dead, and its cumsum/cumprod prefix and its max are those
of the lone row.  Each row is then summed over its own width c
(``_reduce``): one np.sum over the block when all widths agree, else a
sum per row over exactly c terms.  The dyadic table route of
``jones_grid`` runs per color.  The scans and ``jones_prefix`` are the
one-row case.  Every row sees the same sequence of floating-point
operations as a lone scan: cumsum/cumprod along a row are sequential
recurrences and a sum over a contiguous row of c terms is the same
pairwise sum, so the grids match the scans bit for bit.

Within a chunk the core runs in column blocks of at most
``_CHUNK_FACTORS // rows + 1`` columns (``_block_width``), so every chunk of the
grids is one block and only a lone row longer than ``_CHUNK_FACTORS``
(a long scan, ``jones_prefix``, a long color) takes several.  Each
block's factors are built in two reused chunk-sized buffers, and its
first log and sign take the row's carried prefix, logf[a] and sgnf[a],
before the cumsum and cumprod: the same sequential recurrences, so the
prefixes are bit for bit those of the whole row.  ``_reduce`` takes the
row max in one np.max (the max of the block maxima, exact) and
subtracts it, exps and multiplies by the sign block by block in place;
one np.sum over the row keeps the pairwise-sum tree.  Only the prefix
arrays stay full length, 9 bytes per factor (float64 logs, int8
signs): every exp needs the row's global max, so logf cannot be
released block by block without rescaling, which would move last
digits.
"""

from __future__ import annotations

import numpy as np

# Factors per chunk of the grids, and per column block of a long row:
# 128 KiB per float64 array, so the few arrays a chunk keeps alive fit
# in L2.  Of 2^12..2^15, 2^14 ran the quadrature grids fastest on a
# 2-core Xeon with 2 MiB of L2 per core.
_CHUNK_FACTORS = 1 << 14


def current_backend() -> str:
    """Name of the kernel implementation, as recorded in benchmark runs."""
    return "numpy"


def _factors(cs, xs):
    """Float-phase factors at t = exp(2 pi i x) for the paired colors c
    of cs and positions x of xs, phases folded into [0, 1/2], as a
    ``fill`` for ``_log_prefix``: fill(a, b, out, tmp) writes the rows'
    g(j), j = a+1..b, into out and returns it, using tmp (out's shape)
    as scratch.  A row of a shorter color is padded with dead factors:
    its g(c) takes the same float x*c and cosine on both sides, so it is
    exactly 0.0."""
    uN = xs * cs
    uN -= np.floor(uN)
    gN = 2.0 * np.cos(2.0 * np.pi * np.minimum(uN, 1.0 - uN))

    def fill(a, b, u, t):
        np.multiply.outer(xs, np.arange(a + 1, b + 1, dtype=np.float64), out=u)
        np.floor(u, out=t)
        u -= t
        np.subtract(1.0, u, out=t)
        np.minimum(u, t, out=u)
        u *= 2.0 * np.pi
        np.cos(u, out=u)
        u *= 2.0
        return np.subtract(gN[:, None], u, out=u)

    return fill


def _float_prefix(cs, xs):
    """``_log_prefix`` of the float-phase rows of colors cs >= 1 at xs."""
    return _log_prefix(_factors(cs, xs), len(cs), int(cs.max()) - 1)


def _twocos(q, Q):
    """2 cos(2 pi q/Q) for integer phases q.  For Q a power of two,
    fl(fl(2 pi) q)/Q == fl((q/Q) fl(2 pi)), so these equal the float
    path's values at x = q/Q bit for bit."""
    return 2.0 * np.cos(2.0 * np.pi * q / Q)


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
    color c >= 1 at t = exp(2 pi i k/Q).  g(j) vanishes exactly when
    q_j == q_c, that is when Q / gcd(k, Q) divides c - j or c + j, at
    j = c at the latest."""
    d = Q // np.gcd(k, Q)
    return np.minimum((c - 1) % d, (-c - 1) % d) + 1


def _live_reduce(gc, gq, live, widths):
    """Row-wise (signs, log|J|) of the integer-phase rows with factors
    g(j) = gc - gq[:, j-1], each row summed over its width (an int for
    all rows or a list, one per row).  Factors are formed only up to the
    chunk's longest live prefix; a shorter row holds its first dead
    factor, an exact 0.0, so every term past a row's live prefix is dead
    (+0.0)."""

    def fill(a, b, out, tmp):
        return np.subtract(gc[:, None], gq[:, a:b], out=out)

    return _reduce(*_log_prefix(fill, len(gc), int(live.max()) - 1), widths)


def _block_width(rows):
    """Columns per block of the core, ``_CHUNK_FACTORS // rows`` plus one
    so that a chunk of the grids is a single block both in its factors
    and in its prefixes f(0..n), one column longer: its numpy calls see
    whole contiguous arrays.  Only a lone row longer than
    ``_CHUNK_FACTORS`` takes several blocks."""
    return _CHUNK_FACTORS // rows + 1


def _log_prefix(fill, rows, n):
    """Row-wise (signs, log|f(k)|), k = 0..n, of the partial products
    f(k) = g(1)...g(k), f(0) = 1, of the n factors a row that
    fill(a, b, out, tmp) writes, j = a+1..b, into out.  Factors are
    built one column block (``_block_width``) at a time in two reused
    buffers; each block's first log and sign take the row's prefix
    before the block, so cumsum and cumprod run the same sequential
    recurrences as over the whole row, and only the results stay full
    length, 9 bytes per factor.  A vanished factor's log|0| = -inf
    carries through the cumsum, so dead prefixes read -inf exactly where
    their sign is 0."""
    sgnf = np.empty((rows, n + 1), dtype=np.int8)
    logf = np.empty((rows, n + 1))
    sgnf[:, 0] = 1
    logf[:, 0] = 0.0
    w = _block_width(rows)
    gbuf = np.empty((rows, min(w, n)))
    sbuf = np.empty_like(gbuf)
    for a in range(0, n, w):
        b = min(a + w, n)
        s = sbuf[:, :b - a]
        g = fill(a, b, gbuf[:, :b - a], s)
        np.sign(g, out=s)
        if a:
            s[:, 0] *= sgnf[:, a]
        sgnf[:, a + 1:b + 1] = np.cumprod(s, axis=1, out=s)
        with np.errstate(divide="ignore"):
            np.log(np.abs(g, out=g), out=g)
        if a:
            g[:, 0] += logf[:, a]
        np.cumsum(g, axis=1, out=logf[:, a + 1:b + 1])
    return sgnf, logf


def _reduce(sgnf, logf, widths=0):
    """Row-wise (signs, log|sum_k f(k)|): peel each row's max, then a
    fixed-shape pairwise sum (np.sum) over the row's width, an int for
    all rows (logf's own by default) or a list, one per row, the columns
    past logf's being +0.0.  Overwrites logf: the subtraction of the
    max, the exp and the sign product run in place, one column block
    (``_block_width``) at a time, so they hold no full-length temporary.

    f(0) = 1 keeps every max finite, and exp(-inf) * 0 is +0.0 exactly
    where a factor vanished, so no row needs masking.  Rows of one width
    take one np.sum over the block; rows of several widths are summed
    one by one from a zero buffer, each over exactly its own width, so
    each keeps the pairwise-sum tree of a lone row."""
    rows, n = logf.shape
    M = np.max(logf, axis=1)
    w = _block_width(rows)
    for a in range(0, n, w):
        f = logf[:, a:a + w]
        np.subtract(f, M[:, None], out=f)
        np.exp(f, out=f)
        f *= sgnf[:, a:a + w]
    if isinstance(widths, list) and min(widths) < max(widths):
        s = np.empty(rows)
        buf = np.zeros(max(max(widths), n))
        for i, w in enumerate(widths):
            buf[:n] = logf[i]
            s[i] = np.add.reduce(buf[:w])
    else:
        width = widths[0] if isinstance(widths, list) else widths
        if width > n:
            terms = np.zeros((rows, width))
            terms[:, :n] = logf
            logf = terms
        s = np.sum(logf, axis=1)
    with np.errstate(divide="ignore"):
        return np.sign(s).astype(np.int8), M + np.log(np.abs(s))


def _chunks(lengths):
    """Slices of consecutive rows, factor counts ``lengths`` ascending,
    each of at most ``_CHUNK_FACTORS`` factors with every row counted at
    the chunk's longest (at least one row)."""
    a = 0
    while a < len(lengths):
        # the rows that fit at the first length bound where the chunk can
        # end, and the length there bounds every row it can hold
        end = min(a + max(1, _CHUNK_FACTORS // max(lengths[a], 1)), len(lengths))
        b = a + max(1, _CHUNK_FACTORS // max(lengths[end - 1], 1))
        yield slice(a, b)
        a = b


def _scalar(sl):
    s, l = sl
    return int(s[0]), l[0]


def jones_scan(N: int, x: float) -> tuple[int, float]:
    """(sign, log|J_N|) of the Habiro-Le sum at t = exp(2 pi i x)."""
    return _scalar(_reduce(*_float_prefix(np.array([N]), np.array([x], dtype=np.float64))))


def jones_prefix(N: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Prefix arrays (signs, log|f(k)|) of the partial products, k < N."""
    sgnf, logf = _float_prefix(np.array([N]), np.array([x], dtype=np.float64))
    return sgnf[0], logf[0]


def _grid_tables(N, e, ky):
    """Dyadic points x = ky / 2^e of color N on the integer core, each
    once per x <-> 1-x pair, in chunks of at most ``_CHUNK_FACTORS``
    factors.  The points are grouped by their reduced denominator Q, and
    a group is taken only when its table of Q/2 + 1 cosines is no longer
    than the factors it serves; the float route gives the same bits.
    Returns (taken, signs, logs), taken a mask over ky."""
    ks, inv = np.unique(np.minimum(ky, (1 << e) - ky), return_inverse=True)
    # each numerator's own power-of-two denominator 2^e / lowbit(k)
    low = ks & -ks
    low[ks == 0] = 1 << e
    # with return_inverse np.unique sorts; without, numpy 2 first imports
    # numpy.ma, some 25 ms of a short CLI run
    Qs, by_Q = np.unique((1 << e) // low, return_inverse=True)
    us = np.empty(len(ks), dtype=np.int8)
    ul = np.empty(len(ks), dtype=np.float64)
    taken = np.zeros(len(ks), dtype=bool)
    for g, Q in enumerate(Qs.tolist()):
        group = np.flatnonzero(by_Q == g)
        if Q // 2 + 1 > len(group) * N:
            continue
        taken[group] = True
        tab = _twocos(np.arange(Q // 2 + 1), Q)
        k = ks[group] // ((1 << e) // Q)
        gc = tab.take(_fold(k * N, Q))
        live = _live(N, k, Q)
        for chunk in _chunks([N - 1] * len(k)):
            j = np.arange(1, int(live[chunk].max()), dtype=np.int64)
            gq = tab.take(_fold(np.multiply.outer(k[chunk], j), Q))
            i = group[chunk]
            us[i], ul[i] = _live_reduce(gc[chunk], gq, live[chunk], N)
    taken = taken[inv]
    return taken, us[inv][taken], ul[inv][taken]


# The grids call the private helpers, never jones_scan, so a wrapper put
# around a public kernel (perfbench/tracing.py) sees each point once.
def jones_grid(Ns, xs) -> tuple[np.ndarray, np.ndarray]:
    """Vector evaluation over paired arrays of colors and positions.  A
    color below 1 has no factor, as color 1."""
    order = np.argsort(Ns, kind="stable")
    Ns = np.maximum(np.asarray(Ns, dtype=np.int64), 1)[order]
    xs = np.asarray(xs, dtype=np.float64)[order]
    sgn = np.empty(len(xs), dtype=np.int8)
    log = np.empty(len(xs), dtype=np.float64)
    # x = k / 2^e with e + bit_length(N) <= 53 makes every x*j, j <= N,
    # exact, so its folded float phases are exact and equal at 1 - x
    e = 53 - np.frexp(Ns.astype(np.float64))[1]
    y = np.ldexp(xs, e)
    floated = ~((xs >= 0.0) & (xs < 1.0) & (y == np.floor(y)))
    dyadic = np.flatnonzero(~floated)
    runs = np.flatnonzero(np.diff(Ns[dyadic])) + 1
    for group in np.split(dyadic, runs) if len(dyadic) else ():
        i = group[0]
        taken, s, l = _grid_tables(int(Ns[i]), int(e[i]), y[group].astype(np.int64))
        sgn[group[taken]], log[group[taken]] = s, l
        floated[group[~taken]] = True
    # the rest, of every color, in one float-phase pass sorted by color
    idx = np.flatnonzero(floated)
    cs = Ns[idx]
    for chunk in _chunks((cs - 1).tolist()):
        i = idx[chunk]
        sgn[i], log[i] = _reduce(*_float_prefix(cs[chunk], xs[i]), cs[chunk].tolist())
    out_s = np.empty_like(sgn)
    out_l = np.empty_like(log)
    out_s[order], out_l[order] = sgn, log
    return out_s, out_l


def jones_grid_exact(cs, r: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Vector evaluation of colors cs at t = exp(2 pi i r/N), integer r;
    a color below 1 has no factor, as color 1.  Each distinct color is
    evaluated once, and sorted by live length, colors of every width
    share chunks through one row of cosines 2cos(2 pi q_j/N)."""
    cs, inv = np.unique(np.maximum(np.asarray(cs, dtype=np.int64), 1), return_inverse=True)
    us = np.empty(len(cs), dtype=np.int8)
    ul = np.empty(len(cs), dtype=np.float64)
    live = _live(cs, r, N)
    m = int(live.max(initial=1)) - 1
    gq = _twocos(_fold(r * np.arange(1, m + 1, dtype=np.int64), N), N)[None, :]
    gc = _twocos(_fold(r * cs, N), N)
    order = np.argsort(live, kind="stable")
    for chunk in _chunks((live[order] - 1).tolist()):
        i = order[chunk]
        us[i], ul[i] = _live_reduce(gc[i], gq, live[i], cs[i].tolist())
    return us[inv], ul[inv]
