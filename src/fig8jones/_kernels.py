"""Hot evaluation kernels for the Habiro-Le sum.

Every entry point builds the factors g(j), j = 1..c-1, of a color c,
takes signed log-prefix products of them, and (for the scans and grids)
reduces those to (sign, log|J_c|) by peeling each row's max before a
pairwise sum.

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
g < 0), and a term exp(log - max) takes it as its sign bit.  A vanished
factor needs no sign of its own: its log|0| = -inf makes every later
log -inf and every later term +-0.0, whatever the parity says.  Adding
+-0.0 to a nonzero partial sum moves no bit, adding it to a zero one
leaves a zero, and a total that is zero reads sign 0 and log -inf
whichever its zero's sign, so the results are those of a product of
signs that turns 0 at the vanished factor.

Early exit: on rational phases g(j) = 0 exactly when q_j == q_c, and the
first such j, at most c, follows from integer arithmetic (``_live``).
Past it every prefix product is 0, its log -inf, and its term +-0.0.
So only the live prefix of a row is formed, and the row is summed over
its color's full c terms, the ones past the formed columns +0.0: zeros
at the same length, so the same pairwise-sum tree and the same bits as
the whole row.

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
row's g(c)), so its extra columns are dead and its prefix and max are
those of the lone row.  ``_reduce`` sums each row over its own width
c: one np.sum over the block when every width is the block's, else one
sum per row, and a row alone in its chunk by ``_segment_sum`` (below).
The scans and ``jones_prefix`` are the one-row case.  cumsum/cumprod
along a row are sequential recurrences and a sum over a contiguous row
of c terms is the same pairwise sum, so the grids match the scans bit
for bit.

Within a chunk the core runs in column blocks of at most
``_CHUNK_FACTORS // rows + 1`` columns (``_block_width``), so every
chunk of the grids is one block and only a lone row longer than
``_CHUNK_FACTORS`` (a long scan, ``jones_prefix``, a long color) takes
several.  Each block's first log and parity take the row's carried
prefix, the last log and parity of the block before, ahead of the
cumsum and the xor accumulate: the same recurrences, so the prefixes
are bit for bit those of the whole row.

Dropped blocks: a block whose max log lies ``_DROP`` = 750 nats or more
below the row's running max is let go as soon as it is made, and a kept
block once the running max has risen that far past its own (checked
whenever the kept blocks have doubled).  Each of its terms
exp(log - max) is then exactly 0.0, and adding +-0.0 to a sum changes
no bit of a nonzero result.  A lone row is summed over its
width by replaying numpy's pairwise tree (``_segment_sum``): a subtree
with no kept column is 0.0, one inside a kept block a single np.sum of
that slice, and a node of at most ``_GATHER`` terms across a gap or a
block edge one np.sum of a zero-filled copy.  So a long scan keeps only
the blocks near its max, and its columns past the formed prefix stay
virtual; ``jones_prefix`` writes every block into its full-length
result arrays and keeps none.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

import numpy as np

from .errors import DomainError

# Factors per chunk of the grids, and per column block of a long row:
# 128 KiB per float64 array, so the few arrays a chunk keeps alive fit
# in L2.  Of 2^12..2^15, 2^14 ran the quadrature grids fastest on a
# 2-core Xeon with 2 MiB of L2 per core.
_CHUNK_FACTORS = 1 << 14

# The float route (``_factors``): columns per segment of the angle
# addition, the magnitude under which a factor is recomputed as a sine
# product, Dekker's splitter for float64, and the largest color, for
# which every phase x (c + j) has c + j < 2^26
_T = 128
_TAU = 2.0 ** -16
_SPLIT = 2.0 ** 27 + 1.0
_MAX_FLOAT_COLOR = 1 << 25


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
    each row's live prefix, and rows sum over their color's width (see
    the module docstring)."""
    live, rows = _rational_rows(c, k, Q)
    return _rows(live - 1, c, rows)


def _block_width(rows):
    """Columns per block of the core, ``_CHUNK_FACTORS // rows`` plus one
    so that a chunk of the grids is a single block both in its factors
    and in its prefixes f(0..n), one column longer: its numpy calls see
    whole contiguous arrays.  Only a lone row longer than
    ``_CHUNK_FACTORS`` takes several blocks."""
    return _CHUNK_FACTORS // rows + 1


def _buffers(shapes):
    """Flat buffers that ``_prefix_blocks`` shapes for each (rows, n) of
    shapes: prefix parities (bool) and logs for the chunks that are one
    block, and two block buffers, all views of one allocation, plus a
    list of the slab slots that ``_log_prefix`` stores longer rows in.
    A block buffer is as long as a block's prefixes, one column per row
    more than its factors, so that the second also holds ``_reduce``'s
    sign-bit words.  As separate arrays, freed together after each call,
    glibc's malloc handed them back to the system and the next call
    faulted them in again: some 60 minor faults per ``jones_grid_exact``
    call at N = 3000, against none.  For the same reason the slots serve
    every row of a call."""
    p = max((rows * (n + 1) for rows, n in shapes if n <= _block_width(rows)), default=0)
    g = max((rows * (min(_block_width(rows), n) + 1) for rows, n in shapes), default=0)
    logs, gb, tb, pars = np.split(np.empty(p + 2 * g + (p + 7) // 8), np.cumsum([p, g, g]))
    return pars.view(np.bool_)[:p], logs, gb, tb, []


# exp(t) is 0.0 for every float64 t below log(2^-1075) = -745.13 (half
# the least subnormal), and numpy's exp returns 0.0 at -750 and below
# (a test pins it).  Rounding is monotonic, so a block whose max log
# lies 750 or more below the row's max, in float, has fl(log - max)
# <= -750 and exp(...) = 0.0 in every column.
_DROP = 750.0


def _prefix_blocks(fill, rows, n, store, gb, tb):
    """Row-wise log-prefixes (parities, log|f(k)|), k = 0..n, of the
    partial products f(k) = g(1)...g(k), f(0) = 1, of the n factors a
    row that fill(a, b, out, tmp) writes, j = a+1..b, into out, yielded
    one column block (``_block_width``) at a time as (k, parities, logs)
    for prefix columns k..b, in the arrays store(k, b) returns.  A
    parity is True where f(k) has an odd number of negative factors
    (module docstring).  Factors are built in gb and tb, two block
    buffers (``_buffers``), and their g < 0 in a bool view of tb; each
    block's first log and parity take the row's prefix before the
    block, so cumsum and the xor accumulate run the same sequential
    recurrences as over the whole row.  The carried parity is a copy,
    so the consumer may overwrite a yielded block.  A vanished factor's
    log|0| = -inf carries through the cumsum, so dead prefixes read
    -inf."""
    w = _block_width(rows)
    m = min(w, n)
    gbuf, tbuf = gb[:rows * m].reshape(rows, m), tb[:rows * m].reshape(rows, m)
    nbuf = tb.view(np.bool_)[:rows * m].reshape(rows, m)
    for a in range(0, max(n, 1), w):
        b = min(a + w, n)
        k = a + 1 if a else 0  # block 0 also holds f(0) = 1
        par, log = store(k, b)
        if not a:
            par[:, 0], log[:, 0] = False, 0.0
        if b > a:
            g = fill(a, b, gbuf[:, :b - a], tbuf[:, :b - a])
            neg = np.less(g, 0.0, out=nbuf[:, :b - a])
            if a:
                neg[:, 0] ^= carry_par
            np.logical_xor.accumulate(neg, axis=1, out=par[:, a + 1 - k:])
            with np.errstate(divide="ignore"):
                np.log(np.abs(g, out=g), out=g)
            if a:
                g[:, 0] += carry_log
            np.cumsum(g, axis=1, out=log[:, a + 1 - k:])
        carry_par, carry_log = par[:, -1].copy(), log[:, -1]
        yield k, par, log


def _log_prefix(fill, rows, n, bufs):
    """The blocks of ``_prefix_blocks`` that can weigh in the rows' sums,
    as (k, parities, logs, max), and the rows' max logs.  A block is
    dropped (module docstring) once every row's max in it is ``_DROP``
    below the row's running max.  A chunk of one block, for which the
    prefix arrays of bufs (``_buffers``) hold all n + 1 columns of every
    row, is that block, a view of them.  A longer row stores each block in a slot of a slab, from the
    slots of bufs that every row of a call shares, and a dropped block
    gives its slot back.  A slab is allocated when no slot is free, with
    as many slots as there are kept blocks: a row that drops its blocks
    reuses a few slots, and the slabs of a row that keeps them all
    double, so numpy backs the large ones with huge pages (it advises
    them from 4 MiB).  A scan at N = 1e7 that keeps every block took
    21935 minor page faults with an array per block and takes 3503 with
    slabs (Linux, transparent huge pages on madvise)."""
    sb, lb, gb, tb, slots = bufs
    if n <= _block_width(rows):  # one block: its max is the row's
        p = rows * (n + 1)
        store = lambda k, b: (sb[:p].reshape(rows, -1), lb[:p].reshape(rows, -1))
        (k, par, log), = _prefix_blocks(fill, rows, n, store, gb, tb)
        M = log.max(axis=1)
        return [(k, par, log, M)], M
    c = rows * (_block_width(rows) + 1)
    # the blocks of the rows before this one are summed and dead
    kept, held, top, free, slot = [], 1, None, slots[:], {}

    def store(k, b):
        if not free:
            free.extend(np.empty((len(kept) or 1, c + (c + 7) // 8)))
            slots.extend(free)
        row = slot[k] = free.pop()
        return (row[c:].view(np.bool_)[:rows * (b + 1 - k)].reshape(rows, -1),
                row[:rows * (b + 1 - k)].reshape(rows, -1))

    for k, par, log in _prefix_blocks(fill, rows, n, store, gb, tb):
        M = log.max(axis=1)
        top = M if top is None else np.maximum(top, M)
        if (M - top <= -_DROP).all():  # never block 0, which starts the max
            free.append(slot.pop(k))
        else:
            kept.append((k, par, log, M))
        # the kept blocks are checked again once they have doubled, so
        # a row that keeps them all is not rechecked at every block
        if len(kept) > 2 * held:
            dead = (np.array([blk[3] for blk in kept]) - top <= -_DROP).all(axis=1)
            free.extend(slot.pop(blk[0]) for blk, d in zip(kept, dead) if d)
            kept = [blk for blk, d in zip(kept, dead) if not d]
            held = len(kept)
    return kept, top


# numpy's pairwise sum over n contiguous terms: up to 128 terms are one
# leaf (eight interleaved accumulators), more split at n/2 rounded down
# to a multiple of 8.  np.add.reduce over any contiguous copy of a node
# of that tree runs the node's own subtree, so the replay below can stop
# at any node of 128 terms or more.  It stops at nodes of up to _GATHER
# terms: a node across a block edge or gap is then one zero-filled copy
# of at most 32 KiB, and a row that keeps every block takes about 10
# Python-level tree steps per block edge, against 16 with leaves of 128.
_GATHER = 4096


def _segment_sum(segs, n):
    """np.sum of a row of n terms that are zero outside segs, a list of
    (k, values) holding columns k onwards in column order, by replaying
    numpy's pairwise tree: the same bits, up to the sign of a zero sum."""
    starts = [k for k, _ in segs]
    ends = [k + len(v) for k, v in segs]

    def tree(lo, hi, i, j):
        # segs[i:j] are the ones that overlap columns lo..hi-1
        if i == j:
            return 0.0
        if j - i == 1 and starts[i] <= lo and hi <= ends[i]:
            return np.add.reduce(segs[i][1][lo - starts[i]:hi - starts[i]])
        if hi - lo <= _GATHER:
            node = np.zeros(hi - lo)
            for (k, v), e in zip(segs[i:j], ends[i:j]):
                a, b = max(k, lo), min(e, hi)
                node[a - lo:b - lo] = v[a - k:b - k]
            return np.add.reduce(node)
        mid = lo + (hi - lo) // 2 // 8 * 8
        return (tree(lo, mid, i, bisect_left(starts, mid, i, j))
                + tree(mid, hi, bisect_right(ends, mid, i, j), j))

    return tree(0, n, 0, len(segs))


def _reduce(blocks, M, widths, tb, zeros=None):
    """Row-wise (signs, log|sum_k f(k)|) of ``_log_prefix``'s kept blocks
    and row maxima M: peel each row's max, then a pairwise sum (np.sum)
    over the row's width, widths[i], the columns past the formed ones
    being +0.0.  Overwrites the blocks: the subtraction of the max and
    the exp run in place, and each term takes its parity as its sign
    bit, OR-ed in from words built in tb, the second block buffer of
    ``_buffers``.  f(0) = 1 keeps every max finite, and past a vanished
    factor a term is exp(-inf) = +0.0 with the parity's sign, +-0.0, so
    no row needs masking (module docstring).  A lone row takes
    ``_segment_sum``.  Rows of a chunk, always one block, take one
    np.sum over the block when every width is the block's; otherwise
    each row is copied into the head of ``zeros``, a buffer as long as
    the longest width and zero past the block's, and summed over exactly
    its width, so each keeps the pairwise-sum tree of a lone row."""
    for _, par, f, _ in blocks:
        np.subtract(f, M[:, None], out=f)
        np.exp(f, out=f)
        # every term is >= +0.0 here, so OR-ing parity << 63 into its
        # bits gives it the sign of f(k); a +-0.0 past a vanished factor
        # moves no bit of a nonzero sum, and a zero sum reads sign 0
        bits = np.left_shift(par, np.uint64(63), out=tb.view(np.uint64)[:f.size].reshape(f.shape))
        u = f.view(np.uint64)
        u |= bits
    if len(M) == 1:
        s = np.array([_segment_sum([(k, f[0]) for k, _, f, _ in blocks], int(widths[0]))])
    else:
        (_, _, f, _), = blocks
        rows, n = f.shape
        if (widths == n).all():
            s = np.sum(f, axis=1)
        else:
            s = np.empty(rows)
            for i, w in enumerate(widths.tolist()):
                zeros[:n] = f[i]
                s[i] = np.add.reduce(zeros[:w])
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


def _rows(lengths, widths, rows_fill):
    """Row-wise (signs, log|J|) of rows of lengths[i] factors, row i
    summed over widths[i] terms, where rows_fill(i) is the
    ``_prefix_blocks`` fill of the rows of index array i.  Sorted by
    length, the rows share ``_chunks``, whose buffers are allocated
    once."""
    order = np.argsort(lengths, kind="stable")
    chunks = [order[sl] for sl in _chunks(lengths[order].tolist())]
    shapes = [(len(i), int(lengths[i[-1]])) for i in chunks]
    bufs = _buffers(shapes)
    # only the rows of multi-row chunks are copied into zeros; in
    # ascending length no row is copied past the current chunk's
    # prefix, and its untouched pages stay unmapped
    zeros = np.zeros(int(np.delete(widths, [i[0] for i in chunks if len(i) == 1]).max(initial=0)))
    sgn = np.empty(len(lengths), dtype=np.int8)
    log = np.empty(len(lengths), dtype=np.float64)
    for i, (rows, n) in zip(chunks, shapes):
        blocks, M = _log_prefix(rows_fill(i), rows, n, bufs)
        sgn[i], log[i] = _reduce(blocks, M, widths[i], bufs[3], zeros)
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
    bufs = _buffers([(1, live - 1)])
    (s,), (l,) = _reduce(*_log_prefix(fill, 1, live - 1, bufs), np.array([N]), bufs[3])
    return int(s), l


def jones_prefix(N: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Prefix arrays (signs, log|f(k)|) of the partial products, k < N,
    the signs int8 in {-1, 0, 1}, 0 exactly where the log is -inf."""
    _, fill = _lone(N, x)
    sgnf, logf = np.empty(N, dtype=np.int8), np.empty(N)
    # every block is written into the result arrays; none is dropped.
    # Each block's parities become signs in place as it is formed, so
    # no temporary grows with N
    store = lambda k, b: (sgnf.view(np.bool_)[None, k:b + 1], logf[None, k:b + 1])
    gb, tb = np.split(np.empty(2 * min(_block_width(1), N - 1)), 2)
    for k, _, log in _prefix_blocks(fill, 1, N - 1, store, gb, tb):
        s = sgnf[k:k + log.shape[1]]
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
        sgn[rest], log[rest] = _rows(cs - 1, cs, lambda i: _factors(cs[i], xr[i]))
    return sgn, log


def jones_grid_exact(cs, r: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Vector evaluation of colors cs at t = exp(2 pi i r/N), integer r;
    a color below 1 has no factor, as color 1.  Each distinct color is
    evaluated once."""
    cs, inv = np.unique(np.maximum(np.asarray(cs, dtype=np.int64), 1), return_inverse=True)
    sgn, log = _rational(cs, r, N)
    return sgn[inv], log[inv]
