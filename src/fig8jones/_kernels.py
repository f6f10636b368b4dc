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
* Rational phases (``_rational``): x = k/Q with integer folded
  numerators q_j = min(k j mod Q, Q - k j mod Q) and factors
  2 cos(2 pi q_c/Q) - 2 cos(2 pi q_j/Q).  ``jones_grid_exact`` uses
  Q = N for x = r/N, so factors that vanish mathematically are exactly
  zero (a float phase misses them by an ulp and rebuilds noise past the
  dead factor).  A ``jones_grid`` point with dyadic x in [0, 1), x*2^e
  an integer with e + bit_length(c) <= 53, uses its own power-of-two
  denominator Q: every x*j, j <= c, is then exact, and since dividing
  by a power of two is exact, fl(fl(2 pi) q)/Q == fl((q/Q) fl(2 pi)),
  so this route reproduces the float route's factors bit for bit.
  There is one cosine rule: a table tab[q] = 2 cos(2 pi q/Q),
  q <= Q/2, when its Q/2 + 1 entries are no more than the cosines the
  rows would take directly, else the cosines themselves (``_twocos``),
  the same expression on the same q, so the same bits either way.

The x <-> 1-x fold: for a dyadic x, 1 - x and every (1 - x) j are exact
too, so x and 1 - x have bit-identical folded phases and values.
``jones_grid`` evaluates each distinct (color, min(x, 1 - x)) once, in
one ``_rational`` call per distinct Q that covers every color, and
scatters the results back, which halves a symmetric grid such as the
quadrature midpoints.

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
g(c), two cosines of the same float x*c), so its extra columns are
dead and its prefix and max are those of the lone row.  ``_reduce``
sums each row over its own width c: one np.sum over the block when
every width is the block's, else one sum per row, and a row alone in
its chunk by ``_segment_sum`` (below).  The scans and ``jones_prefix``
are the one-row case.  cumsum/cumprod along a row are
sequential recurrences and a sum over a contiguous row of c terms is
the same pairwise sum, so the grids match the scans bit for bit.

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
from functools import partial

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
    ``fill`` for ``_prefix_blocks``: fill(a, b, out, tmp) writes the rows'
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


def _twocos(q, Q):
    """2 cos(2 pi q/Q) for integer phases q.  For Q a power of two,
    fl(fl(2 pi) q)/Q == fl((q/Q) fl(2 pi)), so these equal the float
    path's values at x = q/Q bit for bit."""
    return 2.0 * np.cos(2.0 * np.pi * q / Q)


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


def _rational(c, k, Q):
    """Row-wise (signs, log|J|) of the colors of array c at x = k/Q on
    rational phases, k an int or an array of c's shape.  Factors are
    formed only up to each row's live prefix, and rows sum over their
    color's width (see the module docstring)."""
    live = _live(c, k, Q)
    # a table when it costs no more cosines than the rows would take
    # directly, one per live factor and one per row for g(c)
    if Q // 2 + 1 <= int(live.sum()):
        tab = _twocos(np.arange(Q // 2 + 1), Q)
        cos = lambda q, out=None: tab.take(q, out=out, mode="clip")
    else:
        cos = lambda q, out=None: _twocos(q, Q)
    gc = cos(_fold(c * k, Q))
    if np.ndim(k) == 0:
        # one row of cosines 2cos(2 pi q_j/Q) serves every color
        row = cos(_fold(k * np.arange(1, int(live.max(initial=1)), dtype=np.int64), Q))

    def fill(i, a, b, out, tmp):
        if np.ndim(k) == 0:
            return np.subtract(gc[i, None], row[a:b], out=out)
        q = np.multiply.outer(k[i], np.arange(a + 1, b + 1, dtype=np.int64), out=tmp.view(np.int64))
        return np.subtract(gc[i, None], cos(_fold(q, Q, out.view(np.int64)), out), out=out)

    return _rows(live - 1, c, fill)


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


def _rows(lengths, widths, fill):
    """Row-wise (signs, log|J|) of rows of lengths[i] factors, row i
    summed over widths[i] terms, where fill(i, a, b, out, tmp) is the
    ``_prefix_blocks`` fill of the rows of index array i.  Sorted by length,
    the rows share ``_chunks``, whose buffers are allocated once."""
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
        blocks, M = _log_prefix(partial(fill, i), rows, n, bufs)
        sgn[i], log[i] = _reduce(blocks, M, widths[i], bufs[3], zeros)
    return sgn, log


def jones_scan(N: int, x: float) -> tuple[int, float]:
    """(sign, log|J_N|) of the Habiro-Le sum at t = exp(2 pi i x)."""
    fill = _factors(np.array([N]), np.array([x], dtype=np.float64))
    bufs = _buffers([(1, N - 1)])
    (s,), (l,) = _reduce(*_log_prefix(fill, 1, N - 1, bufs), np.array([N]), bufs[3])
    return int(s), l


def jones_prefix(N: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Prefix arrays (signs, log|f(k)|) of the partial products, k < N,
    the signs int8 in {-1, 0, 1}, 0 exactly where the log is -inf."""
    sgnf, logf = np.empty(N, dtype=np.int8), np.empty(N)
    # every block is written into the result arrays; none is dropped.
    # Each block's parities become signs in place as it is formed, so
    # no temporary grows with N
    store = lambda k, b: (sgnf.view(np.bool_)[None, k:b + 1], logf[None, k:b + 1])
    fill = _factors(np.array([N]), np.array([x], dtype=np.float64))
    gb, tb = np.split(np.empty(2 * min(_block_width(1), N - 1)), 2)
    for k, _, log in _prefix_blocks(fill, 1, N - 1, store, gb, tb):
        s = sgnf[k:k + log.shape[1]]
        s *= -2
        s += 1
        s *= log[0] > -np.inf  # 0 where a factor vanished
    return sgnf, logf


# The grids call the private helpers, never jones_scan, so a wrapper put
# around a public kernel (perfbench/tracing.py) sees each point once.
def jones_grid(Ns, xs) -> tuple[np.ndarray, np.ndarray]:
    """Vector evaluation over paired arrays of colors and positions.  A
    color below 1 has no factor, as color 1."""
    Ns = np.maximum(np.asarray(Ns, dtype=np.int64), 1)
    xs = np.asarray(xs, dtype=np.float64)
    sgn = np.empty(len(xs), dtype=np.int8)
    log = np.empty(len(xs), dtype=np.float64)
    # x = y / 2^e with integer y and e + bit_length(N) <= 53 makes every
    # x*j, j <= N, exact, also at 1 - x
    y = np.ldexp(xs, 53 - np.frexp(Ns)[1])
    exact = (xs >= 0.0) & (xs < 1.0) & (y == np.floor(y))
    dyadic = np.flatnonzero(exact)
    # one exact key N + min(x, 1 - x) per distinct (color, folded x).
    # Without return_inverse, np.unique first imports numpy.ma, some
    # 25 ms of a short CLI run
    x = xs[dyadic]
    keys, inv = np.unique(Ns[dyadic] + np.minimum(x, 1.0 - x), return_inverse=True)
    c = keys.astype(np.int64)
    # x = y / 2^52 = k/Q in lowest terms, Q = 2^52 / lowbit(y); 0 is 0/1
    y = np.ldexp(keys - c, 52).astype(np.int64)
    low = np.where(y == 0, 1 << 52, y & -y)
    us = np.empty(len(keys), dtype=np.int8)
    ul = np.empty(len(keys), dtype=np.float64)
    Qs, by_Q = np.unique((1 << 52) // low, return_inverse=True)
    for g, Q in enumerate(Qs.tolist()):
        i = np.flatnonzero(by_Q == g)
        us[i], ul[i] = _rational(c[i], y[i] // low[i], Q)
    sgn[dyadic], log[dyadic] = us[inv], ul[inv]
    # the rest, of every color, in one float-phase pass
    rest = np.flatnonzero(~exact)
    cs, xr = Ns[rest], xs[rest]
    sgn[rest], log[rest] = _rows(cs - 1, cs, lambda i, *block: _factors(cs[i], xr[i])(*block))
    return sgn, log


def jones_grid_exact(cs, r: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Vector evaluation of colors cs at t = exp(2 pi i r/N), integer r;
    a color below 1 has no factor, as color 1.  Each distinct color is
    evaluated once."""
    cs, inv = np.unique(np.maximum(np.asarray(cs, dtype=np.int64), 1), return_inverse=True)
    sgn, log = _rational(cs, r, N)
    return sgn[inv], log[inv]
