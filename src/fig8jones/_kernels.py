"""Hot evaluation kernels for the Habiro-Le sum.

Every entry point builds the factors g(j), j = 1..c-1, of a color c.
The scans and grids sum J_c = 1 + g(1)(1 + g(2)(1 + ...)) by Horner's
rule over fixed-length pieces of each row (Reduction, below) and
return (sign, log|J_c|); ``jones_prefix`` returns the signed
log-prefix products f(k) = g(1)...g(k) themselves.

Phase convention: at t = exp(2 pi i x) the j-th factor is
g(j) = 2 cos(2 pi x c) - 2 cos(2 pi x j).  J depends on x only through
cos(2 pi x m) for integers m, so x is first folded exactly into
[0, 1/2] (``_fold_x``), and a float pair x, 1 - x gets bit-identical
values on every route.  Phases reach the cosines by one of two routes,
chosen by the point (c, x) alone, so a scan, ``jones_prefix`` and a
grid take the same one:

* Rational phases (``_rational_rows``): x = k/Q with integer folded
  numerators q_j = min(k j mod Q, Q - k j mod Q) and factors
  2 cos(2 pi q_c/Q) - 2 cos(2 pi q_j/Q).  ``jones_grid_exact`` uses
  Q = N for x = r/N, so factors that vanish mathematically are exactly
  zero (a float phase misses them by an ulp and rebuilds noise past the
  dead factor).  A point with dyadic x, x*2^e an integer with
  e + bit_length(c) <= 53 (``_dyadic``), uses a power-of-two
  denominator Q: every x*j, j <= c, is then exact, and since dividing
  by a power of two is exact, fl(fl(2 pi) q)/Q == fl((q/Q) fl(2 pi)),
  the cosine of the exact phase rounded once.  The phases k j, k
  reduced mod Q, are uint16 where Q is a power of two no larger than
  2^15, as on every quadrature grid and dyadic conv grid: they wrap mod
  2^16, a multiple of Q, so every phase mod Q, table index and bit stays
  the same, and a block's first index j0 enters reduced mod Q.  Other
  phases are int32 where Q (c + _L) < 2^31 for every color c of the
  call, as on every cable grid, and int64 otherwise: the same integers
  mod Q, in a quarter or half the bytes to multiply, mask and look up.
  Each row carries its period d = Q / gcd(k, Q), with which its phases
  and zeros recur (Early exit, below): N / gcd(r, N) for
  ``jones_grid_exact``, a dyadic point's own denominator in lowest
  terms (``_ratio``).  There is one cosine rule: a table
  tab[q] = 2 cos(2 pi q/Q), q <= Q/2, when its Q/2 + 1
  entries are no more than the cosines the rows would take directly
  and no more than a block or one per color, else the cosines
  themselves (``_twocos``), the same expression on the same q, so the
  same bits either way.  The sine product of a factor (below) is
  -4 sin(pi (q_c + q_j)/Q) sin(pi (q_c - q_j)/Q).
* Float phases (``_float_rows``), every other point: x = xh + xl split
  into halves of 26 bits (``_split``), so xh*n and xl*n are exact for
  n < 2^26 and x*n less its nearest integer costs one rounding
  (``_turns``).  With j = _L s + i, i in 1.._L, that is factor i of
  piece s (Reduction, below), the cosine comes by angle addition,
  2 cos(2 pi x j) = C2[i] cos A_s - S2[i] sin A_s, from small tables
  C2[i], S2[i] = 2 cos, 2 sin (2 pi x i), and the angles A_s = 2 pi x _L s
  of a block's pieces: two products and a difference per factor where a
  cosine was.  The split of j depends on j alone, so blocks and chunks
  see the same values, and g(c) takes the same formula at j = c, so a
  shorter row's g(c) is exactly 0.0.  The sine product of a factor is
  -4 sin(pi x (c + j)) sin(pi x (c - j)) on phases reduced the same way
  (``_sin_pi``), j an integer.  Every c + j must stay below 2^26, so
  this route takes colors up to ``_MAX_FLOAT_COLOR`` = 2^25 and raises
  DomainError past it, once per call, before any row is formed.

Routes: both routes return one contract, (lengths, fill, near).
lengths[i] is the number of factors of row i through its first exact
zero: c on the float route, live on the rational one (Early exit,
below).  fill(i, j0, n) prepares a block of n pieces of the rows of an
index array i from factor j0 + 1 on, the float route's tables among
them, and returns part(t0, out, tmp), which writes the rows'
g(j0 + pL + t0 + t + 1) into out, of shape (t, piece, row), and
returns it, using tmp (out's shape) as scratch.  out holds the
block's first out.shape[1] pieces, all n or all but the last (Layout,
below).
Every caller sums a route as ``_rows(*route)``.  Rows that share their
x share one cosine row: the float route forms one table C2, S2 for a
block of one x (a cable profile), and the rational route forms each
part's cosines once, laid out (t, piece, 1), and subtracts them across
the chunk's rows; rows of distinct x write their own cosines.  On both
routes a factor under ``_TAU`` = 2^-16 in magnitude, near one of its
roots where a cosine difference keeps few digits, is recomputed as the
route's sine product of its exact phases (``_refine``).  The rational
route flags, once per row, the rows where that can happen (``_near``);
the float route flags every row and scans them all.  On folded phases in
[0, Q/2], where cos is monotone, a factor with q_j != q_c is at least
the gap from q_c to a neighbouring phase, 4 sin(pi/Q) sin(pi m/Q) with
m = max(min(2 q_c, Q - 2 q_c) - 1, 1), and its two cosines are off by
about 1e-15, so a row whose gap is at least 2 ``_TAU`` has no factor
under ``_TAU`` but the exact zeros at q_j == q_c (one cosine rule, so
the same value twice).  Their sine product would be -0.0, and a zero of
either sign gives the same sum: its Horner step is 1 + (+-0) b = 1, and
its piece's product a = +-0 turns the maps to its right into a zero
term, which leaves a nonzero b_l as it is; a zero sum reads sign 0 and
log -inf whatever its sign.  So a part scans only its chunk's near
rows, and a chunk with none skips the scan.

The x <-> 1-x fold: ``jones_grid`` evaluates each distinct
(color, folded x) of its dyadic points once, in one rational route
over the largest of their denominators, and scatters the results back,
which halves a symmetric grid such as the quadrature midpoints.  A key
of a smaller denominator is scaled by a power of two, which changes no
rounding, fl(fl(2 pi) 2^m q)/(2^m Q) == fl(fl(2 pi) q)/Q, in the table
and the sine products too.  So a mixed call keeps every factor's bits,
though it may take int64 phases (a product that wraps keeps its value
mod 2^64, so mod Q) or direct cosines where one denominator alone
would not, and ``_near`` flags more rows at the larger Q.

Reduction: a row of n factors is cut into pieces of ``_L`` = 128
factors counted from j = 1, piece p holding g(pL + 1..pL + L).  Each
piece is the affine map h -> b + a h, a the product of its factors and
b = 1 + g(pL+1)(1 + ... (1 + g(pL+L-1))), so that J = M_0(M_1(...(1))).
b takes backward Horner steps b <- 1 + g b from g(pL+L) down to
g(pL+1), each one vector multiply-add across all pieces of a block
(``_horner``); |g| <= 4, so |b| < 4^_L needs no rescaling.  a is the
product of the piece's groups of ``_K`` = 8 factors, each group's
product split exactly by frexp into a mantissa and an integer exponent,
so no partial product leaves the normal range while a group's factors
average above 2^-127.  A row's maps then compose in one fixed pairwise
order (``_tree``): neighbours 2i, 2i+1 at every level, an odd last map
passing up unchanged, with b and a kept as mantissas and integer
exponents (``_compose``).  A row's last piece holds its exact zero
(Early exit, below), so its a would be +-0: it forms no product and
takes a = 0, the composite is the constant map h -> b, and its b is
the sum.  A composition b_l + a_l b_r carries the rounding error of
a_l b_r exactly (Dekker's product), so where the sum cancels it rounds
once: rounded alone, the product could meet b_l exactly and leave 0.0,
a false zero at a row whose terms cancel below float64's reach.  Every
step depends only on the row's factors, so grids equal scans by
construction, whatever the chunks.  Horner's forward error is bounded
by gamma_2n sum_k |f(k)| (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 5), however large |log f(k)| grows.

Signs: the sign of J comes out of the arithmetic, as the sign of b.  A
vanished factor makes its step b = 1 and its piece's a = +-0, which
restarts the sum there; a total that is zero reads sign 0 and log -inf.

Early exit: on rational phases g(j) = 0 exactly when q_j == q_c, and the
first such j, at most c, is where the row's period d divides c - j or
c + j (``_rational_rows``).  So a row counts n = live factors, or c on
the float route, through its exact zero g(n), and its last piece stops
there: its steps start at g(n), whose step sets b = 1 whatever b was,
and it takes no product.
A piece's a = +-0 drops every map to its right from the sum,
b_l + (+-0) b_r with a Dekker error of 0, so a zero in an earlier
piece drops the later ones, whatever their values.

Layout: both grid routes run through one chunk driver (``_rows``) on
blocks of factors laid out (t, piece, row), t < _L the place in the
piece, so Horner step t reads one contiguous row of the block.  Rows
are sorted by length, the near rows (Routes, above) last among rows of
one length so that they gather in few chunks, and cut into chunks of at
most ``_PIECES`` pieces (at least one row), so the per-point cost is a
share of a few numpy calls per step.  A block is formed a part of rows
at a time, at most ``_CHUNK_FACTORS`` factors, in two buffers allocated
once per call: chunk-sized buffers freed and allocated again chunk by
chunk sit at the allocator's mmap threshold and fault their pages in
again.  A chunk holds as many pieces per row as its longest row, of n
factors, and in its final block rows t >= T = (n - 1) mod _L + 1 are
stepped for the pieces before the last only, a contiguous prefix of
the (piece, row) layout, and formed for them only in the parts that
lie wholly above T (the part across T is formed whole: a second part
call costs more than the rows it saves), so the last piece stops at
that row's zero.  A shorter row's own zero drops what lies past it,
its share of the last piece and any piece between (Early exit, above).
Only a lone row of more than ``_PIECES`` pieces (a long scan or color)
takes several blocks, each of ``_PIECES`` pieces, a power of two, so
each block's tree is a whole subtree of the row's.  A block composes
its first ``_LEVELS`` = 6 levels as it is made, into 64 maps, and since
every block starts at a multiple of 2^6 pieces, the blocks' maps, the
short last block's included, are the row's tree at that level, which
composes once after the last block.  So a scan holds one block and 64
maps per block at any x, a few kB per block.
``jones_prefix`` takes blocks of ``_CHUNK_FACTORS`` factors, turned
back to column order, writes their signs and logs into its results,
and accumulates both once over the whole row, a sequential recurrence.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# Factors formed at once, 256 KiB per float64 array, and _K times the
# pieces of a block.  Each Horner step is two numpy calls across all
# pieces of a block, so a wide block pays their overhead less often: on
# a 2-core Xeon the three 2^14-point quadrature grids took about 75 ms
# at 2^15 and at 2^16 (best of 25), and 230 ms at 2^14, where their
# 2^15-entry cosine tables fall past the table rule of ``_rational_rows``
_CHUNK_FACTORS = 1 << 15

# The reduction (module docstring): factors per piece, also the float
# route's angle-addition segment, and the factors per group of a piece's
# product.  Pieces of 256 ran the quadrature grids no faster and pad
# the rows of N = 300 to 512 factors
_L = 128
_K = 8
_PIECES = _CHUNK_FACTORS // _K
# The tree levels a block composes as it is made, _PIECES = 2^12 pieces
# into 64 maps: a row of several blocks composes the rest once, where
# each level takes a numpy call per block on a few maps
_LEVELS = 6
_LN2 = float(np.log(2.0))
# the exponent of a zero mantissa, below every other, so a zero term
# never sets the scale of a sum
_ZERO = -(1 << 40)

# The magnitude under which a factor is recomputed as a sine product
# (``_refine``), Dekker's splitter for float64, and the float route's
# largest color, for which every phase x (c + j) has c + j < 2^26
_TAU = 2.0 ** -16
_SPLIT = 2.0 ** 27 + 1.0
_MAX_FLOAT_COLOR = 1 << 25


def current_backend() -> str:
    """Name of the kernel implementation, as recorded in benchmark runs."""
    return "numpy"


def _fold_x(xs):
    """x -> min(f, 1 - f), f = |x| mod 1, exactly: the fractional part of
    a float is a float, and 1 - f is exact for f in [1/2, 1] (Sterbenz).
    J depends on x only through cos(2 pi x m) for integers m.  A
    non-finite x has no point on the circle: ValueError."""
    if not np.isfinite(xs).all():
        raise ValueError(f"positions must be finite, got {xs[~np.isfinite(xs)][0]}")
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


def _refine(g, tmp, j0, sine, scan=None):
    """g with each factor under ``_TAU`` in magnitude replaced, in place,
    by sine(r, j), the route's sine product of factor j (an integer
    array) of row r.  g is a part (t, piece, row) of a block whose first
    factors are g(j0 + 1); tmp is a float scratch of g's shape.  scan,
    if given, holds the indices of the only rows scanned: the rational
    route certifies that no factor of its other rows lies under
    ``_TAU`` but 0.0 (``_near``), whose sine product would be -0.0 and
    gives the same sum (Routes, in the module docstring)."""
    a = np.abs(g, out=tmp) if scan is None else np.abs(g[:, :, scan])
    if a.min() < _TAU:
        hit = np.flatnonzero(a < _TAU)
        t, p, r = np.unravel_index(hit, a.shape)
        if scan is not None:
            r = scan[r]
            hit = np.ravel_multi_index((t, p, r), g.shape)
        g.flat[hit] = sine(r, j0 + 1 + t + _L * p)
    return g


def _float_rows(cs, xs):
    """The float route (module docstring) of the paired colors cs and
    folded positions xs (``_fold_x``), as (lengths, fill, near), near all
    True.  The colors are checked and each g(c) formed once per call,
    the tables C2, S2 per block: one when its rows share their x, else
    one per row."""
    cmax = int(cs.max(initial=1))
    if cmax > _MAX_FLOAT_COLOR:
        raise DomainError(f"color {cmax} at a non-dyadic x is past the float route's "
                          f"exact phases", interval=f"N <= {_MAX_FLOAT_COLOR}")
    xh, xl = _split(xs)
    # every row's g(c), by its factors' formula at j = c = _L s + k + 1
    s, k = np.divmod(cs - 1, _L)
    ck, sk = _angle(_turns(xh, xl, k + 1.0))
    ca, sa = _angle(_turns(xh, xl, s * float(_L)))
    gcs = 2.0 * ck * ca - 2.0 * sk * sa

    def fill(i, j0, n):
        c, x, h, l, gc = cs[i], xs[i], xh[i], xl[i], gcs[i]
        u = slice(0, 1) if (x == x[0]).all() else slice(None)
        # tables of shape (i, 1, row), i = 1.._L; Horner step t takes
        # entry t + 1 for every piece
        cos, sin = _angle(_turns(h[u], l[u], np.arange(1.0, _L + 1)[:, None, None]))
        c2, s2 = 2.0 * cos, 2.0 * sin
        # the angles of the pieces, (piece, row)
        ca, sa = _angle(_turns(h, l, (j0 + _L * np.arange(n, dtype=np.float64))[:, None]))

        def sine(r, j):
            return -4.0 * _sin_pi(h[r], l[r], c[r] + j) * _sin_pi(h[r], l[r], c[r] - j)

        def part(t0, out, tmp):
            v, p = slice(t0, t0 + len(out)), out.shape[1]
            np.multiply(c2[v], ca[:p], out=out)
            np.multiply(s2[v], sa[:p], out=tmp)
            np.subtract(out, tmp, out=out)
            return _refine(np.subtract(gc, out, out=out), tmp, j0 + t0, sine)

        return part

    return cs, fill, np.ones(len(cs), dtype=bool)


def _twocos(q, Q, out=None):
    """2 cos(2 pi q/Q) for integer phases q, into out if given.  For Q a
    power of two, fl(fl(2 pi) q)/Q == fl((q/Q) fl(2 pi)): the cosine of
    the exact phase x j at x = k/Q, rounded once."""
    t = np.multiply(q, 2.0 * np.pi, out=out)
    t /= Q
    np.cos(t, out=t)
    t *= 2.0
    return t


def _mod(q, Q):
    """Integer phases q mod Q, in place.  For the power-of-two Q of dyadic
    points a mask replaces the division, which costs about eight times
    as much per element."""
    if Q & (Q - 1):
        q %= Q
    else:
        q &= Q - 1
    return q


def _ints(a, dt):
    """An integer array of type dt and of the shape of a contiguous
    float64 array a, in a's memory."""
    return a.reshape(-1).view(dt)[:a.size].reshape(a.shape)


def _fold(q, Q, tmp=None):
    """Integer phases min(q mod Q, Q - q mod Q), in place, tmp an
    optional scratch of q's shape."""
    _mod(q, Q)
    return np.minimum(q, np.subtract(Q, q, out=tmp), out=q)


def _near(qc, Q):
    """Which rows of folded color phases qc at denominator Q can hold a
    factor under ``_TAU`` that is not 0.0 (Routes, in the module
    docstring): cos is monotone on [0, pi], so a factor at q_j != q_c
    is at least the gap to a neighbouring phase, 4 sin(pi/Q) sin(pi m/Q),
    and a row is near when that is under 2 ``_TAU``."""
    m = np.maximum(np.minimum(2 * qc, Q - 2 * qc) - 1, 1)
    return 4.0 * np.sin(np.pi / Q) * np.sin(m * (np.pi / Q)) < 2.0 * _TAU


def _rational_rows(c, k, Q, d):
    """The rational route (module docstring) of the colors of array c at
    x = k/Q, k an int or an array of c's shape and d the period
    Q / gcd(k, Q) of each row's phases, as (lengths, fill, near).  The
    lengths are the live lengths: g(j) vanishes exactly when q_j == q_c,
    that is when d divides c - j or c + j, at j = c at the latest.  near
    flags the rows whose factors can fall under ``_TAU`` without being
    0.0."""
    live = np.minimum((c - 1) % d, (-c - 1) % d) + 1
    # phases k j of factors j < c + _L, with k reduced mod Q: uint16 for a
    # power of two Q <= 2^15, as arithmetic mod 2^16, a multiple of Q,
    # else int32 when they fit
    dt = (np.uint16 if Q <= 1 << 15 and not Q & (Q - 1)
          else np.int32 if Q * (int(c.max(initial=0)) + _L) < 1 << 31 else np.int64)
    k = np.broadcast_to(np.asarray(k % Q, dtype=dt), c.shape)
    # a table when it costs no more cosines than the rows would take
    # directly, one per live factor and one per row for g(c), and holds
    # no more than a block or one entry per color, so a long lone row
    # keeps O(block) memory.  It is spread over a whole period, tab[q]
    # for every q mod Q, so a phase needs no fold
    if Q // 2 + 1 <= min(int(live.sum()), max(_CHUNK_FACTORS, len(c))):
        tab = _twocos(np.arange(Q // 2 + 1), Q)[_fold(np.arange(Q), Q)]
        cos = lambda q, out: tab.take(_mod(q, Q), out=out, mode="clip")
    else:
        cos = lambda q, out: _twocos(_fold(q, Q, None if out is None else _ints(out, q.dtype)), Q, out)
    qc = _fold(c * k, Q)
    gc = cos(c * k, None)
    near = _near(qc, Q)

    def fill(i, j0, n):
        # the phases depend on j0 mod Q only, which a uint16 array can meet
        j0 %= Q
        gi, qi, ki = gc[i], qc[i], k[i]
        # rows that share their k take one cosine row, (t, piece, 1)
        shared = len(ki) > 1 and (ki == ki[0]).all()
        ku = ki[:1] if shared else ki
        # the rows to scan for near-root factors: all, some or none
        flagged = np.flatnonzero(near[i])
        scan = None if len(flagged) == len(i) else flagged

        def sine(r, j):
            qj = _fold(ki[r] * j, Q)
            s, d = qi[r] + qj, qi[r] - qj
            return -4.0 * np.sin(np.minimum(s, Q - s) * np.pi / Q) * np.sin(d * np.pi / Q)

        # the first factor index j0 + pL + 1 of each piece, (piece, 1)
        j = (j0 + 1 + _L * np.arange(n, dtype=dt))[:, None]

        def part(t0, out, tmp):
            q = np.arange(t0, t0 + len(out), dtype=dt)[:, None, None] + j[:out.shape[1]]
            q = np.multiply(ku, q, out=None if shared else _ints(tmp, dt))
            g = np.subtract(gi, cos(q, None if shared else out), out=out)
            return _refine(g, tmp, j0 + t0, sine, scan) if len(flagged) else g

        return part

    return live, fill, near


def _norm(m, e):
    """(mantissa, exponent) of m 2^e, the mantissa in [1/2, 1) by frexp,
    or 0 with exponent ``_ZERO``."""
    m, d = np.frexp(m)
    e = np.add(e, d, dtype=np.int64)
    np.putmask(e, m == 0.0, _ZERO)
    return m, e


def _horner(part, shape, buf, k, T):
    """The affine maps h -> b + a h of the pieces of a block, laid out
    (t, piece, row) with (piece, row) of the given shape and formed a
    part of rows at a time, at most ``_CHUNK_FACTORS`` factors and a
    multiple of ``_K`` rows, by part(t0, out, tmp) in the two flat
    buffers of buf.  The first k pieces take all ``_L`` rows, and the
    rest, none or the last piece of a chunk's final block, which holds
    its longest row's zero, rows t < T only (Layout, in the module
    docstring): rows t >= T are stepped for a prefix of the (piece, row)
    layout, and formed for it in the parts above T.  b takes backward
    Horner steps from the top row, and a of the first k pieces the
    product of the rows in groups of ``_K``, each group's product split
    by frexp, so no partial product leaves the normal range; a of the
    rest is 0.  Returns (b, eb, a, ea), b = mb 2^eb and a = ma 2^ea
    with normalized mantissas (``_norm``)."""
    n, r = shape
    m, mk = n * r, k * r
    h = max(_CHUNK_FACTORS // m // _K * _K, _K)
    b, one = np.zeros(m), np.ones(m)
    a, ea = np.zeros(m), np.zeros(m, dtype=np.int64)
    a[:mk] = 1.0
    bk, ok, ak, eak = b[:mk], one[:mk], a[:mk], ea[:mk]
    top = _L if k else T
    for t0 in range((top - 1) // h * h, -1, -h):
        w = min(h, top - t0)
        # rows t0 + s and up are stepped for the first k pieces only, and
        # formed for them only where the whole part lies above T: a part
        # across T is formed whole, as splitting it into two part calls
        # costs more than the rows it would save
        s = min(max(T - t0, 0), w)
        c = n if s else k
        g = part(t0, *(v[:w * c * r].reshape(w, c, r) for v in buf)).reshape(w, c * r)
        gk = g if c == k else g[:, :mk]
        for gt in gk[s:][::-1]:
            np.multiply(bk, gt, out=bk)
            np.add(bk, ok, out=bk)
        for gt in g[:s][::-1]:
            np.multiply(b, gt, out=b)
            np.add(b, one, out=b)
        for u in range((w - 1) // _K * _K, -1, -_K) if k else ():
            p, e = np.frexp(np.multiply.reduce(gk[u:u + _K]))
            ak *= p
            eak += e
    return (*_norm(b, 0), *_norm(a, ea))


def _compose(left, right):
    """The map left(right(h)) of two maps (b, eb, a, ea) (``_horner``):
    b_l 2^eb_l + a_l b_r 2^(ea_l + eb_r), summed at the larger exponent,
    and a_l a_r."""
    bl, ebl, al, eal = left
    br, ebr, ar, ear = right
    x, ex = al * br, eal + ebr
    # the product's rounding error, exactly (Dekker), so that a sum that
    # cancels rounds once
    (ah, at), (bh, bt) = _split(al), _split(br)
    dx = ((ah * bh - x) + ah * bt + at * bh) + at * bt
    e = np.maximum(ebl, ex)
    b = np.ldexp(bl, ebl - e)
    b += np.ldexp(x, ex - e)
    b += np.ldexp(dx, ex - e)
    return (*_norm(b, e), *_norm(al * ar, eal + ear))


def _tree(maps, levels=64):
    """The maps (b, eb, a, ea), each of shape (piece, row), composed
    row-wise in the fixed pairwise order of the module docstring through
    at most ``levels`` levels, 2^levels maps into one."""
    for _ in range(levels):
        n = len(maps[0])
        if n == 1:
            break
        pair = _compose([v[0:n - 1:2] for v in maps], [v[1:n:2] for v in maps])
        maps = [np.concatenate([u, v[n - 1:]]) if n % 2 else u for u, v in zip(pair, maps)]
    return maps


def _chunks(pieces):
    """Slices of consecutive rows, piece counts ``pieces`` ascending, each
    of at most ``_PIECES`` pieces with every row counted at the chunk's
    longest (at least one row)."""
    a = 0
    while a < len(pieces):
        # the rows that fit at the first count where the chunk can end,
        # and the count there bounds every row it can hold
        end = min(a + max(1, _PIECES // pieces[a]), len(pieces))
        b = a + max(1, _PIECES // pieces[end - 1])
        yield slice(a, b)
        a = b


def _rows(lengths, fill, near):
    """Row-wise (signs, log|J|) of a route (lengths, fill, near) (module
    docstring).  Sorted by length, and the near rows last among rows of
    one length, the rows share ``_chunks``, whose buffers are allocated
    once."""
    pieces = -(-lengths // _L)
    order = np.lexsort((near, lengths))
    chunks = [order[sl] for sl in _chunks(pieces[order].tolist())]
    size = max((len(i) * min(int(pieces[i[-1]]), _PIECES) for i in chunks), default=0)
    buf = np.empty((2, min(_L * size, _CHUNK_FACTORS)))
    sgn = np.empty(len(lengths), dtype=np.int8)
    log = np.empty(len(lengths), dtype=np.float64)
    for i in chunks:
        # the longest row's zero is row T - 1 of its last piece
        T, P = (int(lengths[i[-1]]) - 1) % _L + 1, int(pieces[i[-1]])
        # each block composes its first _LEVELS levels as it is made; the
        # blocks' maps together are the row's tree at that level, which
        # composes the rest once
        blocks = []
        for p0 in range(0, P, _PIECES):
            n = min(P - p0, _PIECES)
            k, t = (n, _L) if p0 + n < P else (n - 1, T)
            maps = [v.reshape(n, len(i)) for v in _horner(fill(i, p0 * _L, n), (n, len(i)), buf, k, t)]
            blocks.append(_tree(maps, _LEVELS))
        maps = blocks[0] if len(blocks) == 1 else [np.concatenate(v) for v in zip(*blocks)]
        (b,), (eb,), _, _ = _tree(maps)
        sgn[i] = np.sign(b)
        with np.errstate(divide="ignore"):
            log[i] = np.log(np.abs(b)) + eb * _LN2
    return sgn, log


def _dyadic(Ns, xs):
    """Which folded positions x make every x*j, j <= N, exact: x = y/2^e
    with integer y and e + bit_length(N) <= 53."""
    y = np.ldexp(xs, 53 - np.frexp(Ns)[1])
    return y == np.floor(y)


def _ratio(xs):
    """Dyadic x in [0, 1) (``_dyadic``) as (k, Q, d), x = k/Q over one
    power of two Q, the largest of their denominators in lowest terms,
    and d each x's own, the period of its phases (0 is 0/1)."""
    y = np.ldexp(xs, 52).astype(np.int64)
    d = (1 << 52) // np.where(y == 0, 1 << 52, y & -y)
    Q = int(d.max(initial=1))
    return y // ((1 << 52) // Q), Q, d


def _lone(N, x):
    """The route (lengths, fill, near) of the lone row of color N at
    x, the one ``jones_grid`` takes for the point, whose fill takes the
    index array [0]; a color below 1 has no factor, as color 1."""
    c, xs = np.array([max(N, 1)]), _fold_x(np.array([x], dtype=np.float64))
    if _dyadic(c, xs)[0]:
        return _rational_rows(c, *_ratio(xs))
    return _float_rows(c, xs)


def jones_scan(N: int, x: float) -> tuple[int, float]:
    """(sign, log|J_N|) of the Habiro-Le sum at t = exp(2 pi i x)."""
    (s,), (l,) = _rows(*_lone(N, x))
    return int(s), l


def _prefix_blocks(fill, n):
    """The factors g(1..n) of a route's lone row (``_lone``), in column
    order, up to ``_CHUNK_FACTORS`` at a time, as (j0, g)."""
    T, w = max(min(_L, n), 1), _CHUNK_FACTORS // _L
    block, tmp = np.empty((2, T * min(w, -(-n // T))))
    for j0 in range(0, n, w * _L):
        m = min(w, -(-(n - j0) // T))
        g = fill(np.array([0]), j0, m)(0, block[:T * m].reshape(T, m, 1), tmp[:T * m].reshape(T, m, 1))
        yield j0, g[:, :, 0].T.ravel()[:n - j0]


def jones_prefix(N: int, x: float) -> tuple[np.ndarray, np.ndarray]:
    """Prefix arrays (signs, log|f(k)|) of the partial products, k < N,
    the signs int8 in {-1, 0, 1}, 0 exactly where the log is -inf.  A
    color below 1 has no factor, as color 1."""
    N = max(N, 1)
    sgnf, logf = np.empty(N, dtype=np.int8), np.empty(N)
    sgnf[0], logf[0] = 1, 0.0
    for j0, g in _prefix_blocks(_lone(N, x)[1], N - 1):
        k = slice(j0 + 1, j0 + 1 + len(g))
        sgnf[k] = np.sign(g)
        with np.errstate(divide="ignore"):
            np.log(np.abs(g, out=g), out=logf[k])
    # the sequential recurrences f(k) = f(k - 1) g(k) over the whole
    # row; a vanished factor's sign 0 and log|0| = -inf carry
    np.multiply.accumulate(sgnf, out=sgnf)
    np.add.accumulate(logf, out=logf)
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
    # the float route first, so that a color past its limit raises
    # before any row is summed
    rest = np.flatnonzero(~exact)
    sgn[rest], log[rest] = _rows(*_float_rows(Ns[rest], xs[rest]))
    dyadic = np.flatnonzero(exact)
    # one exact key N + x per distinct (color, folded x).  Without
    # return_inverse, np.unique first imports numpy.ma, some 25 ms of a
    # short CLI run
    keys, inv = np.unique(Ns[dyadic] + xs[dyadic], return_inverse=True)
    c = keys.astype(np.int64)
    us, ul = _rows(*_rational_rows(c, *_ratio(keys - c)))
    sgn[dyadic], log[dyadic] = us[inv], ul[inv]
    return sgn, log


def jones_grid_exact(cs, r: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Vector evaluation of colors cs at t = exp(2 pi i r/N), integer r;
    a color below 1 has no factor, as color 1."""
    cs = np.maximum(np.asarray(cs, dtype=np.int64), 1)
    return _rows(*_rational_rows(cs, r, N, N // math.gcd(r, N)))
