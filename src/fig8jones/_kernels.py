"""Hot evaluation kernels for the Habiro-Le sum.

Every entry point builds the factors g(j), j = 1..c-1, of a color c,
takes signed log-prefix products of them, and (for the scans and grids)
reduces those to (sign, log|J_c|) by one defined sum of the row's terms
(Reduction, below).

Phase convention: at t = exp(2 pi i x) the j-th factor is
g(j) = 2 cos(2 pi x c) - 2 cos(2 pi x j).  J depends on x only through
cos(2 pi x m) for integers m, so x is first folded exactly into
[0, 1/2] (``_fold_x``), and a float pair x, 1 - x gets bit-identical
values on every route.  Phases reach the cosines by one of two routes,
chosen by the point (c, x) alone, so a scan, ``jones_prefix`` and a
grid take the same one:

* Rational phases (``_rational``): x = k/Q with integer folded
  numerators q_j = min(k j mod Q, Q - k j mod Q) and factors
  2 cos(2 pi q_c/Q) - 2 cos(2 pi q_j/Q).  ``jones_grid_exact`` uses
  Q = N for x = r/N, so factors that vanish mathematically are exactly
  zero (a float phase misses them by an ulp and rebuilds noise past the
  dead factor).  A point with dyadic x, x*2^e an integer with
  e + bit_length(c) <= 53 (``_dyadic``), uses its own power-of-two
  denominator Q: every x*j, j <= c, is then exact, and since dividing
  by a power of two is exact, fl(fl(2 pi) q)/Q == fl((q/Q) fl(2 pi)),
  the cosine of the exact phase rounded once.  There is one cosine
  rule: a table tab[q] = 2 cos(2 pi q/Q), q <= Q/2, when its Q/2 + 1
  entries are no more than the cosines the rows would take directly
  and no more than a block or one per color, else the cosines
  themselves (``_twocos``), the same expression on the same q, so the
  same bits either way.
* Float phases (``_factors``), every other point: x = xh + xl split
  into halves of 26 bits (``_split``), so xh*n and xl*n are exact for
  n < 2^26 and x*n less its nearest integer costs one rounding
  (``_turns``).  With j = _T s + i, _T = 128, the cosine comes by angle
  addition, 2 cos(2 pi x j) = C2[i] cos A_s - S2[i] sin A_s, from small
  tables C2[i], S2[i] = 2 cos, 2 sin (2 pi x i), i < _T, and the angles
  A_s = 2 pi x _T s of a block's segments: two products and a
  difference per factor where a cosine was.  The split of j depends on
  j alone, so blocks and chunks see the same values.  A factor under
  ``_TAU`` = 2^-16 in magnitude, near one of its roots where a cosine
  difference keeps few digits, is recomputed as
  -4 sin(pi x (c + j)) sin(pi x (c - j)) on phases reduced the same
  way (``_sin_pi``).  Every c + j must stay below 2^26, so this route
  takes colors up to ``_MAX_FLOAT_COLOR`` = 2^25 and raises DomainError
  past it.

The x <-> 1-x fold: ``jones_grid`` evaluates each distinct
(color, folded x) of its dyadic points once, in one ``_rational`` call
per distinct Q that covers every color, and scatters the results back,
which halves a symmetric grid such as the quadrature midpoints.

Signs: the sign of f(k) = g(1)...g(k) is carried as the parity of its
negative factors, one bool per prefix (a logical_xor accumulate of
g < 0), and its term in the sum takes it as its sign bit.  A vanished
factor needs no sign of its own: its log|0| = -inf makes every later
log -inf and every later term +-0.0, whatever the parity says.  Adding
+-0.0 to a nonzero partial sum moves no bit, adding it to a zero one
leaves a zero, and a total that is zero reads sign 0 and log -inf
whichever its zero's sign, so the results are those of a product of
signs that turns 0 at the vanished factor.

Early exit: on rational phases g(j) = 0 exactly when q_j == q_c, and the
first such j, at most c, follows from integer arithmetic (``_live``).
Past it every prefix product is 0, its log -inf, and its term +-0.0.
So only the live prefix of a row is formed; the columns past it are
+0.0, and zero segments past a row's formed prefix leave its sum as it
is (Reduction).

Layout: both grid routes run through one chunk driver (``_rows``) on
2-D arrays of shape (rows, j), one row per point, sorted by length and
cut into chunks of at most ``_CHUNK_FACTORS`` factors (at least one
row), so the per-point cost is a share of a few whole-array numpy calls
and a chunk's working set stays in cache.  Its buffers are allocated
once per call: chunk-sized buffers freed and allocated again chunk by
chunk sit at the allocator's mmap threshold and fault their pages in
again.  A chunk is as wide as its longest row.  A shorter row runs
past its own first vanishing factor, an exact 0.0 (on the float route
g(c), the same products of the same table entries and angles as the
row's g(c)), so its extra columns are dead and its prefix is that of
the lone row.  The scans are the one-row case of the same driver.

Within a chunk the core runs in column blocks of ``_block_width``
prefix columns, a multiple of the reduction's segment, so every chunk
of the grids is one block and only a lone row longer than
``_CHUNK_FACTORS`` (a long scan, ``jones_prefix``, a long color) takes
several.  Each block's first log and parity take the row's carried
prefix, the last log and parity of the block before, ahead of the
cumsum and the xor accumulate: the same recurrences, so the prefixes
are bit for bit those of the whole row.

Reduction: a row's prefix columns are cut into segments of ``_S`` = 128
columns aligned to column 0, the columns past the formed prefix +0.0.
A segment with max log m takes e = ceil(m / ln 2) and sums its ``_S``
terms +-exp(log|f(k)| - e ln 2), each at most 1 up to rounding, by
np.add.reduce, numpy's pairwise sum: the same bits wherever the segment
sits.  The segment sums add up in column order in fixed exponent bins
of ``_BIN`` = 512 binary orders (after Demmel & Nguyen, "Parallel
reproducible summation", IEEE Trans. Comput. 64, 2015): bin
b = floor(e / _BIN) takes ldexp(sum, e - b _BIN), an exact move up.
The bins add up in ascending order, each moved down to the top bin B's
scale, and log|J| = B _BIN ln 2 + log|total|.  Every step depends only
on the row's terms in column order, so grids equal scans by
construction, whatever the blocks and chunks.  A bin sum is below
2^(_BIN + 60), so one ``_BINS`` = 4 or more bins below the top moves
down to exactly +-0.0 (a test pins it), which moves no bit of a nonzero
total.  A row thus carries its top bin and ``_BINS`` bin sums from
block to block: a scan holds one block at any x, and lets go a segment
below its kept bins, and a block of them before its exp.
``jones_prefix`` writes every block into its full-length result arrays
and sums none.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# Factors per chunk of the grids, and per column block of a long row:
# 256 KiB per float64 array, so the few arrays a chunk keeps alive fit
# in L2.  Of 2^14..2^16, 2^15 ran the quadrature grids fastest within
# L2 on a 2-core Xeon with 2 MiB of L2 per core; 2^16 gained 3 % more
# at 2 MiB a chunk, and 2^14 lost 10 % to the reduction's per-block
# calls.
_CHUNK_FACTORS = 1 << 15

# The float route (``_factors``): columns per segment of the angle
# addition, the magnitude under which a factor is recomputed as a sine
# product, Dekker's splitter for float64, and the largest color, for
# which every phase x (c + j) has c + j < 2^26
_T = 128
_TAU = 2.0 ** -16
_SPLIT = 2.0 ** 27 + 1.0
_MAX_FLOAT_COLOR = 1 << 25

# The reduction (module docstring): columns per segment, binary orders
# per bin, and the bins a row keeps, the top one and those below it
_S = 128
_BIN = 512
_BINS = 4
_LN2 = float(np.log(2.0))
_DOWN = (np.arange(_BINS) + 1 - _BINS) * _BIN  # the kept bins' moves to the top
# A segment max below -_BINS _BIN ln 2, a dead one's -inf among them,
# lies _BINS bins or more below f(0) = 1 and so below every row's kept
# bins: it is raised to this floor, which keeps its scale finite
_FLOOR = -_BINS * _BIN * _LN2


def current_backend() -> str:
    """Name of the kernel implementation, as recorded in benchmark runs."""
    return "numpy"


def _fold_x(xs):
    """x -> min(f, 1 - f), f = |x| mod 1, exactly: the fractional part of
    a float is a float, and 1 - f is exact for f in [1/2, 1] (Sterbenz).
    J depends on x only through cos(2 pi x m) for integers m."""
    f = np.abs(xs)
    f -= np.floor(f)
    return np.minimum(f, 1.0 - f, out=f)


def _split(x):
    """Dekker's split x = xh + xl, both halves of at most 26 bits, so
    xh*n and xl*n are exact for every integer n < 2^26."""
    t = _SPLIT * x
    xh = t - (t - x)
    return xh, x - xh


def _turns(xh, xl, n):
    """x*n less its nearest integer, in [-1/2, 1/2], for x = xh + xl
    (``_split``) and integer-valued n < 2^26: xh*n, its distance to the
    nearest integer and the last reduction are exact, and adding xl*n
    rounds once, so the result is off by at most 2^-53 of a turn."""
    p = xh * n
    p -= np.rint(p)
    p += xl * n
    p -= np.rint(p)
    return p


def _angle(d):
    """cos and sin of 2 pi d."""
    a = d * (2.0 * np.pi)
    return np.cos(a), np.sin(a)


def _sin_pi(xh, xl, m):
    """sin(pi x m) for x = xh + xl (``_split``) and integer-valued
    |m| < 2^26: x m less an integer n, reduced as in ``_turns``, then
    (-1)^n sin(pi (x m - n))."""
    p = xh * m
    n = np.rint(p)
    p -= n
    p += xl * m
    p *= np.pi
    np.sin(p, out=p)
    p *= 1.0 - 2.0 * (n % 2.0)
    return p


def _factors(cs, xs):
    """Float-route factors at t = exp(2 pi i x) for the paired colors c
    of cs and positions x of xs, as a ``fill`` for ``_prefix_blocks``:
    fill(a, b, out, tmp) writes the rows' g(j), j = a+1..b, into out
    and returns it, using tmp (out's shape) as scratch.

    x is folded exactly (``_fold_x``) and split (``_split``), and
    j = _T s + i: 2 cos(2 pi x j) = C2[i] cos A_s - S2[i] sin A_s, from
    tables C2[i] = 2 cos(2 pi x i), S2[i] = 2 sin(2 pi x i), i < _T, and
    the angles A_s = 2 pi x _T s of each block's segments, every phase
    reduced by ``_turns``.  The rows share one table when they share
    their x (a cable profile), else each has its own; tables are tiled
    along j, so a block's columns take one contiguous slice of them.
    g(c) takes the same formula at j = c, so a shorter row's g(c) is
    exactly 0.0.  A factor under ``_TAU`` in magnitude is recomputed as
    -4 sin(pi x (c + j)) sin(pi x (c - j)) (``_sin_pi``).  Every
    c + j must stay below 2^26, so colors above ``_MAX_FLOAT_COLOR``
    raise DomainError."""
    cmax = int(cs.max(initial=1))
    if cmax > _MAX_FLOAT_COLOR:
        raise DomainError(f"color {cmax} at a non-dyadic x is past the float route's "
                          f"exact phases", interval=f"N <= {_MAX_FLOAT_COLOR}")
    rows = len(cs)
    xs = _fold_x(xs)
    xh, xl = _split(xs)
    u = slice(0, 1) if (xs == xs[0]).all() else slice(None)
    t = min(_T, cmax + 1)
    cos, sin = _angle(_turns(xh[u, None], xl[u, None], np.arange(float(t))))
    # columns i..i+w-1 of the tiled tables, i < t, for the widest block
    reps = -(-(t - 1 + min(cmax - 1, _block_width(rows))) // t)
    c2, s2 = np.tile(2.0 * cos, (1, reps)), np.tile(2.0 * sin, (1, reps))
    ca, sa = _angle(_turns(xh, xl, (cs // _T * _T).astype(np.float64)))
    r = np.arange(rows) % len(c2)
    gc = c2[r, cs % _T] * ca - s2[r, cs % _T] * sa

    def fill(a, b, out, tmp):
        s0 = (a + 1) // _T
        ca, sa = _angle(_turns(xh[:, None], xl[:, None], np.arange(s0, b // _T + 1) * float(_T)))
        # cos A_s and sin A_s over their segments' columns, in runs of
        # whole segments or of one partial one, each a (rows, segments,
        # columns) view of out and tmp
        j = a + 1
        while j <= b:
            s, i = divmod(j, _T)
            k, w = (1, min(_T - i, b + 1 - j)) if i or b + 1 - j < _T else ((b + 1 - j) // _T, _T)
            o = j - a - 1
            np.copyto(out[:, o:o + k * w].reshape(rows, k, w), ca[:, s - s0:s - s0 + k, None])
            np.copyto(tmp[:, o:o + k * w].reshape(rows, k, w), sa[:, s - s0:s - s0 + k, None])
            j += k * w
        i = (a + 1) % _T
        out *= c2[:, i:i + b - a]
        tmp *= s2[:, i:i + b - a]
        np.subtract(out, tmp, out=out)
        g = np.subtract(gc[:, None], out, out=out)
        hit = np.flatnonzero(np.abs(g, out=tmp) < _TAU)
        if hit.size:
            r, col = np.divmod(hit, g.shape[1])
            h, l, c, j = xh[r], xl[r], cs[r], col + (a + 1.0)
            g[r, col] = -4.0 * _sin_pi(h, l, c + j) * _sin_pi(h, l, c - j)
        return g

    return fill


def _twocos(q, Q, out=None):
    """2 cos(2 pi q/Q) for integer phases q, into out if given.  For Q a
    power of two, fl(fl(2 pi) q)/Q == fl((q/Q) fl(2 pi)): the cosine of
    the exact phase x j at x = k/Q, rounded once."""
    t = np.multiply(q, 2.0 * np.pi, out=out)
    t /= Q
    np.cos(t, out=t)
    t *= 2.0
    return t


def _fold(q, Q, tmp=None):
    """Integer phases min(q mod Q, Q - q mod Q), in place, tmp an
    optional scratch of q's shape.  For the power-of-two Q of dyadic
    points a mask replaces the division, which costs about eight times
    as much per element."""
    if Q & (Q - 1):
        q %= Q
    else:
        q &= Q - 1
    return np.minimum(q, np.subtract(Q, q, out=tmp), out=q)


def _live(c, k, Q):
    """Number of terms f(0), f(1), ... before the first dead factor of
    color c >= 1 at t = exp(2 pi i k/Q).  g(j) vanishes exactly when
    q_j == q_c, that is when Q / gcd(k, Q) divides c - j or c + j, at
    j = c at the latest."""
    d = Q // np.gcd(k, Q)
    return np.minimum((c - 1) % d, (-c - 1) % d) + 1


def _rational_rows(c, k, Q):
    """Live lengths (``_live``) of the colors of array c at x = k/Q on
    rational phases, k an int or an array of c's shape, and the
    ``_prefix_blocks`` fill of the rows of an index array i, by
    rows(i)(a, b, out, tmp)."""
    live = _live(c, k, Q)
    # a table when it costs no more cosines than the rows would take
    # directly, one per live factor and one per row for g(c), and holds
    # no more than a block or one entry per color, so a long lone row
    # keeps O(block) memory
    if Q // 2 + 1 <= min(int(live.sum()), max(_block_width(1), len(c))):
        tab = _twocos(np.arange(Q // 2 + 1), Q)
        cos = lambda q, out: tab.take(q, out=out, mode="clip")
    else:
        cos = lambda q, out: _twocos(q, Q, out)
    gc = cos(_fold(c * k, Q), None)
    if np.ndim(k) == 0:
        # one row of cosines 2cos(2 pi q_j/Q) serves every chunk of
        # several rows, which is at most a block wide, and the first
        # block of a lone row; later blocks take their own phases
        head = cos(_fold(k * np.arange(1, min(int(live.max(initial=1)), _block_width(1) + 1),
                                       dtype=np.int64), Q), None)

    def rows(i):
        gi, ki = gc[i, None], k if np.ndim(k) == 0 else k[i, None]

        def fill(a, b, out, tmp):
            if np.ndim(k) == 0 and b <= len(head):
                return np.subtract(gi, head[a:b], out=out)
            q = np.multiply(ki, np.arange(a + 1, b + 1, dtype=np.int64), out=tmp.view(np.int64))
            return np.subtract(gi, cos(_fold(q, Q, out.view(np.int64)), out), out=out)

        return fill

    return live, rows


def _rational(c, k, Q):
    """Row-wise (signs, log|J|) of the colors of array c at x = k/Q on
    rational phases (``_rational_rows``).  Factors are formed only up to
    each row's live prefix (see the module docstring)."""
    live, rows = _rational_rows(c, k, Q)
    return _rows(live - 1, rows)


def _pad(n):
    """n rounded up to whole segments of the reduction."""
    return -(-n // _S) * _S


def _block_width(rows):
    """Prefix columns per block of the core: ``_CHUNK_FACTORS // rows``
    factors and f(0), rounded up to whole segments, so that a chunk of
    the grids is a single block and its numpy calls see whole contiguous
    arrays.  Only a lone row longer than ``_CHUNK_FACTORS`` takes several
    blocks."""
    return _pad(_CHUNK_FACTORS // rows + 1)


def _buffers(shapes):
    """Flat buffers for the largest block of the chunks of shapes, each
    (rows, n): prefix parities (bool) and logs, and two factor buffers,
    the second also holding ``_reduce``'s sign-bit words, all views of
    one allocation.  As separate arrays, freed together after each call,
    glibc's malloc handed them back to the system and the next call
    faulted them in again: some 60 minor faults per ``jones_grid_exact``
    call at N = 3000, against none."""
    p = max((rows * min(_block_width(rows), _pad(n + 1)) for rows, n in shapes), default=0)
    logs, gb, tb, pars = np.split(np.empty(3 * p + (p + 7) // 8), np.cumsum([p, p, p]))
    return pars.view(np.bool_)[:p], logs, gb, tb


def _prefix_blocks(fill, rows, n, store, gb, tb):
    """Row-wise log-prefixes (parities, log|f(k)|), k = 0..n, of the
    partial products f(k) = g(1)...g(k), f(0) = 1, of the n factors a
    row that fill(a, b, out, tmp) writes, j = a+1..b, into out, yielded
    one column block (``_block_width``) at a time as (k, b, parities,
    logs) for prefix columns k..b, in the arrays store(k, b) returns for
    those columns, or wider: their columns past b are set to +0.0 terms,
    parity False and log -inf.  A parity is True where f(k) has an odd
    number of negative factors (module docstring).  Factors are built in
    gb and tb, two flat buffers, and their g < 0 in a bool view of tb;
    each block's first log and parity take the row's prefix before the
    block, so cumsum and the xor accumulate run the same sequential
    recurrences as over the whole row.  The carried prefix is a copy, so
    the consumer may overwrite a yielded block.  A vanished factor's
    log|0| = -inf carries through the cumsum, so dead prefixes read
    -inf."""
    w = _block_width(rows)
    m = min(w, n)
    gbuf, tbuf = gb[:rows * m].reshape(rows, m), tb[:rows * m].reshape(rows, m)
    nbuf = tb.view(np.bool_)[:rows * m].reshape(rows, m)
    for k in range(0, n + 1, w):
        # factors j = a+1..b make prefix columns k..b; block 0 also holds
        # f(0) = 1
        a, b = max(k - 1, 0), min(k + w, n + 1) - 1
        par, log = store(k, b)
        if not k:
            par[:, 0], log[:, 0] = False, 0.0
        if b > a:
            g = fill(a, b, gbuf[:, :b - a], tbuf[:, :b - a])
            neg = np.less(g, 0.0, out=nbuf[:, :b - a])
            if k:
                neg[:, 0] ^= carry_par
            np.logical_xor.accumulate(neg, axis=1, out=par[:, a + 1 - k:b + 1 - k])
            with np.errstate(divide="ignore"):
                np.log(np.abs(g, out=g), out=g)
            if k:
                g[:, 0] += carry_log
            np.cumsum(g, axis=1, out=log[:, a + 1 - k:b + 1 - k])
        par[:, b + 1 - k:], log[:, b + 1 - k:] = False, -np.inf
        carry_par, carry_log = par[:, b - k].copy(), log[:, b - k].copy()
        yield k, b, par, log


def _reduce(blocks, rows, words):
    """Row-wise (signs, log|sum_k f(k)|) of the (k, b, parities, logs)
    blocks of ``_prefix_blocks``, each reduced as it is made (module
    docstring, Reduction).  Overwrites each block; ``words``, a flat
    buffer as large as a block, takes the sign-bit words."""
    top, acc = None, np.zeros((rows, _BINS))  # bins top - _BINS + 1 .. top
    for k, b, par, log in blocks:
        f = log.reshape(rows, -1, _S)
        # segment maxima; reduceat takes half the time of f.max(axis=2)
        m = np.maximum.reduceat(log.reshape(-1), np.arange(0, log.size, _S)).reshape(rows, -1)
        e = np.ceil(np.maximum(m, _FLOOR) / _LN2)
        bins, up = np.divmod(e.astype(np.int64), _BIN)  # and moves up into them
        hi = bins.max(axis=1) if top is None else np.maximum(top, bins.max(axis=1))
        slot = bins - (hi - _BINS + 1)[:, None]
        if top is not None:
            if (slot < 0).all():
                continue
            # the kept bins move up with the top; a bin that leaves them
            # stays _BINS or more below every later top
            d = (hi - top)[:, None] + np.arange(_BINS)
            acc = np.where(d < _BINS, np.take_along_axis(acc, np.minimum(d, _BINS - 1), axis=1), 0.0)
        top = hi
        f -= (e * _LN2)[:, :, None]
        # numpy's exp takes a slow path on inputs that underflow, -inf
        # among them, so the columns past b are written as +0.0
        np.exp(log[:, :b + 1 - k], out=log[:, :b + 1 - k])
        log[:, b + 1 - k:] = 0.0
        # every term is >= +0.0 here, so OR-ing parity << 63 into its
        # bits gives it the sign of f(k); a +-0.0 past a vanished factor
        # moves no bit of a nonzero sum, and a zero sum reads sign 0
        bits = np.left_shift(par, np.uint64(63), out=words.view(np.uint64)[:par.size].reshape(par.shape))
        u = log.view(np.uint64)
        u |= bits
        sums = np.ldexp(np.add.reduce(f, axis=2), up)
        r, s = np.nonzero(slot >= 0)
        # unbuffered, in index order: each bin adds its segments in
        # column order
        np.add.at(acc, (r, slot[r, s]), sums[r, s])
    # the bins in ascending order, a sequential sum
    total = np.cumsum(np.ldexp(acc, _DOWN), axis=1)[:, -1]
    with np.errstate(divide="ignore"):
        return np.sign(total).astype(np.int8), top * _BIN * _LN2 + np.log(np.abs(total))


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


def _rows(lengths, rows_fill):
    """Row-wise (signs, log|J|) of rows of lengths[i] factors, where
    rows_fill(i) is the ``_prefix_blocks`` fill of the rows of index
    array i.  Sorted by length, the rows share ``_chunks``, whose
    buffers are allocated once."""
    order = np.argsort(lengths, kind="stable")
    chunks = [order[sl] for sl in _chunks(lengths[order].tolist())]
    shapes = [(len(i), int(lengths[i[-1]])) for i in chunks]
    pars, logs, gb, tb = _buffers(shapes)
    sgn = np.empty(len(lengths), dtype=np.int8)
    log = np.empty(len(lengths), dtype=np.float64)
    for i, (rows, n) in zip(chunks, shapes):
        def store(k, b):
            w = _pad(b + 1 - k)
            return pars[:rows * w].reshape(rows, w), logs[:rows * w].reshape(rows, w)

        blocks = _prefix_blocks(rows_fill(i), rows, n, store, gb, tb)
        sgn[i], log[i] = _reduce(blocks, rows, tb)
    return sgn, log


def _dyadic(Ns, xs):
    """Which folded positions x make every x*j, j <= N, exact: x = y/2^e
    with integer y and e + bit_length(N) <= 53."""
    y = np.ldexp(xs, 53 - np.frexp(Ns)[1])
    return y == np.floor(y)


def _ratio(xs):
    """x = k/Q in lowest terms, Q a power of two, for dyadic x in
    [0, 1) (``_dyadic``); 0 is 0/1."""
    y = np.ldexp(xs, 52).astype(np.int64)
    low = np.where(y == 0, 1 << 52, y & -y)
    return y // low, (1 << 52) // low


def _lone(N, x):
    """The live length and ``_prefix_blocks`` fill of the lone row of
    color N at x, on the route ``jones_grid`` takes for the point."""
    c, xs = np.array([N]), _fold_x(np.array([x], dtype=np.float64))
    if _dyadic(c, xs)[0]:
        (k,), (Q,) = _ratio(xs)
        live, rows = _rational_rows(c, int(k), int(Q))
        return int(live[0]), rows(np.array([0]))
    return N, _factors(c, xs)


def jones_scan(N: int, x: float) -> tuple[int, float]:
    """(sign, log|J_N|) of the Habiro-Le sum at t = exp(2 pi i x)."""
    live, fill = _lone(N, x)
    (s,), (l,) = _rows(np.array([live - 1]), lambda i: fill)
    return int(s), l


def jones_prefix(N: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Prefix arrays (signs, log|f(k)|) of the partial products, k < N,
    the signs int8 in {-1, 0, 1}, 0 exactly where the log is -inf."""
    _, fill = _lone(N, x)
    sgnf, logf = np.empty(N, dtype=np.int8), np.empty(N)
    # every block is written into the result arrays.  Each block's
    # parities become signs in place as it is formed, so no temporary
    # grows with N
    store = lambda k, b: (sgnf.view(np.bool_)[None, k:b + 1], logf[None, k:b + 1])
    gb, tb = np.split(np.empty(2 * min(_block_width(1), N - 1)), 2)
    for k, b, _, log in _prefix_blocks(fill, 1, N - 1, store, gb, tb):
        s = sgnf[k:b + 1]
        s *= -2
        s += 1
        s *= log[0] > -np.inf  # 0 where a factor vanished
    return sgnf, logf


# The grids and the scans share the private helpers, and no public
# kernel calls another, so a wrapper put around one
# (perfbench/tracing.py) sees each point once.
def jones_grid(Ns, xs) -> tuple[np.ndarray, np.ndarray]:
    """Vector evaluation over paired arrays of colors and positions.  A
    color below 1 has no factor, as color 1.  Each point takes its route
    (module docstring): the dyadic ones rational phases, the rest the
    float route."""
    Ns = np.maximum(np.asarray(Ns, dtype=np.int64), 1)
    xs = _fold_x(np.asarray(xs, dtype=np.float64))
    sgn = np.empty(len(xs), dtype=np.int8)
    log = np.empty(len(xs), dtype=np.float64)
    exact = _dyadic(Ns, xs)
    dyadic = np.flatnonzero(exact)
    if len(dyadic):
        # one exact key N + x per distinct (color, folded x).  Without
        # return_inverse, np.unique first imports numpy.ma, some 25 ms of
        # a short CLI run
        keys, inv = np.unique(Ns[dyadic] + xs[dyadic], return_inverse=True)
        c = keys.astype(np.int64)
        k, Q = _ratio(keys - c)
        us = np.empty(len(keys), dtype=np.int8)
        ul = np.empty(len(keys), dtype=np.float64)
        Qs, by_Q = np.unique(Q, return_inverse=True)
        for g, q in enumerate(Qs.tolist()):
            i = np.flatnonzero(by_Q == g)
            us[i], ul[i] = _rational(c[i], k[i], q)
        sgn[dyadic], log[dyadic] = us[inv], ul[inv]
    # the rest, of every color, in one float-route pass
    rest = np.flatnonzero(~exact)
    if len(rest):
        cs, xr = Ns[rest], xs[rest]
        sgn[rest], log[rest] = _rows(cs - 1, lambda i: _factors(cs[i], xr[i]))
    return sgn, log


def jones_grid_exact(cs, r: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Vector evaluation of colors cs at t = exp(2 pi i r/N), integer r;
    a color below 1 has no factor, as color 1.  Each distinct color is
    evaluated once."""
    cs, inv = np.unique(np.maximum(np.asarray(cs, dtype=np.int64), 1), return_inverse=True)
    sgn, log = _rational(cs, r, N)
    return sgn[inv], log[inv]
