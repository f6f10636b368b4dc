import math

import numpy as np
import pytest

from fig8jones import _kernels


def mpmath_jones(N, x, dps, vanishes=lambda j: False):
    """sum_k prod_{j<=k} (2cos 2 pi xN - 2cos 2 pi xj) in mpmath at dps
    digits, x (a float or an mpf) taken exactly; the product stops
    before the first j where vanishes(j)."""
    import mpmath

    with mpmath.workdps(dps):
        x = mpmath.mpf(x)
        gN = 2 * mpmath.cos(2 * mpmath.pi * x * N)
        total = prod = mpmath.mpf(1)
        for j in range(1, N):
            if vanishes(j):
                break
            prod *= gN - 2 * mpmath.cos(2 * mpmath.pi * x * j)
            total += prod
        return total


class TestBackendDispatch:
    def test_default_backend_name(self):
        # benchmark records carry this name
        assert _kernels.current_backend() == "numpy"


class TestScanAgreement:
    # dominated-peak points only: alternating-cancellation positions
    # (r in (1/6, 1/2) at N >= 4000) sit at the noise floor, where the
    # two summation orders legitimately differ in the cancelled digits;
    # (5, 0.5) exercises the exact-zero truncation.  The last three have
    # a factor g(j) near a root, where 2cos - 2cos keeps few correct
    # digits (as a cosine difference, log|J| missed by 3e-4 at (81, 0.99)
    # and by 2 at (90, 0.99), and the sign at (194, 0.995)), though
    # max_k |f(k)| <= e^4 |J| at all three
    CASES = [(2, 0.5), (3, 1 / 3), (5, 0.5), (7, 0.123), (100, 0.37),
             (501, 0.95 / 501), (1000, 1.0 / 1000), (4096, 0.95 / 4096),
             (81, 0.99), (90, 0.99), (194, 0.995)]

    def test_against_mpmath_oracle(self):
        # 40-digit sum_k prod_{j<=k} (2cos 2 pi xN - 2cos 2 pi xj); log|J|
        # must agree to 1e-11 relative, the tolerance the kernels were
        # held to when they had two implementations
        import mpmath

        def check(got, z):
            assert got[0] == int(mpmath.sign(z))
            want = float(mpmath.log(abs(z)))
            assert abs(got[1] - want) <= 1e-11 * max(1.0, abs(want))

        for N, x in self.CASES:
            check(_kernels.jones_scan(N, x), mpmath_jones(N, x, 40))
        # x = r/N exactly: factor j vanishes when r (c -+ j) = 0 mod N
        # (960, 5, 800), (450, 2, 300) and (400, 3, 301) stop at j = 160,
        # 150 and 99, far from both ends of the row; their terms keep one
        # sign from k = 1 on, so the sums are well conditioned.
        # (5, 1, 10**7) needs five cosines of phases q/10^7
        for c, r, N in ((801, 1, 800), (799, 1, 800), (803, 3, 800),
                        (960, 5, 800), (450, 2, 300), (400, 3, 301),
                        (5, 1, 10**7)):
            z = mpmath_jones(c, mpmath.mpf(r) / N, 40,
                             lambda j: r * (c - j) % N == 0 or r * (c + j) % N == 0)
            (s,), (l,) = _kernels.jones_grid_exact(np.array([c]), r, N)
            check((s, l), z)

    def test_kashaev_point_matches_asymptotic_expansion(self):
        # J_N at x = 1/N: log|J_N| = N Vol/(2 pi) + (3/2) log N
        # - (1/4) log 3 + 11 pi/(36 sqrt(3) N) + O(1/N^2).  Its sum does
        # not cancel, so only the factors' own errors show: as cosine
        # differences of rounded phases x*j the scan missed by 4e-7 at
        # N = 1e6
        from fig8jones.special_functions import fig8_volume

        for N in (10**4, 10**5, 10**6):
            want = (N * fig8_volume() / (2 * math.pi) + 1.5 * math.log(N)
                    - 0.25 * math.log(3) + 11 * math.pi / (36 * math.sqrt(3) * N))
            s, l = _kernels.jones_scan(N, 1.0 / N)
            assert s == 1 and abs(l - want) < 1e-7, (N, l - want)

    def test_near_root_factors_take_the_sine_product(self, monkeypatch):
        # every factor with |g| < _TAU as a cosine difference, and only
        # those, is recomputed as a sine product: near j = 0 and in later
        # blocks ((1.1e6, 2/1.1e6) has a root at j = 550000, in the
        # second block of a scan).  Raised past every |g| <= 4, the
        # threshold sends every factor to the sine product, in every
        # block, and away from roots the two forms agree to rounding
        refined = []
        sin_pi, tau = _kernels._sin_pi, _kernels._TAU

        def spy(xh, xl, m):
            refined.append(m.copy())
            return sin_pi(xh, xl, m)

        monkeypatch.setattr(_kernels, "_sin_pi", spy)
        cases = [(194, 0.995), (501, 0.95 / 501), (40000, 1.0 / 40000), (1_100_000, 2.0 / 1_100_000)]
        want, hits = [], 0
        for N, x in cases:
            refined.clear()
            want.append(_kernels.jones_scan(N, x))
            # _sin_pi gets c + j, then c - j, per refined batch; the scan
            # forms the factors of its last piece up to a multiple of _L
            got = set((np.concatenate(refined[0::2] or [[]]) - N).astype(int).tolist())
            got = {j for j in got if j < N}
            # the kernel's cosine differences, under a threshold that
            # refines none of them
            monkeypatch.setattr(_kernels, "_TAU", 0.0)
            _, fill, _ = _kernels._float_rows(np.array([N]), _kernels._fold_x(np.array([x])))
            g = row_factors(fill, N - 1)
            monkeypatch.setattr(_kernels, "_TAU", tau)
            near = set((np.flatnonzero(np.abs(g) < tau) + 1).tolist())
            assert got == near, (N, x, sorted(got ^ near)[:5])
            hits += len(near)
        assert hits > 0 and max(got) > _kernels._PIECES * _kernels._L
        monkeypatch.setattr(_kernels, "_TAU", 8.0)
        for (N, x), (s, l) in zip(cases, want):
            refined.clear()
            got = _kernels.jones_scan(N, x)
            assert set(range(1, N)) <= set((np.concatenate(refined[0::2]) - N).astype(int).tolist())
            assert got[0] == s, (N, x)
            assert abs(got[1] - l) <= 1e-11 * max(1.0, abs(l)), (N, x)

    def test_dyadic_near_root_factors_take_the_sine_product(self):
        # dyadic x take the rational route, whose factors under _TAU are
        # recomputed from the integer phases: next to the float route's
        # (194, 0.995), (90, 0.99) and (81, 0.99), the binary x rounded
        # to 40 bits must agree with 60-digit mpmath, sign included (as
        # cosine differences they missed by 1.2e-6, 7.2e-7 and 4.1e-7)
        import mpmath

        for N, r in ((194, 0.995), (90, 0.99), (81, 0.99)):
            x = round(r * 2**40) / 2**40
            assert _kernels._dyadic(np.array([N]), np.array([x]))[0]
            z = mpmath_jones(N, x, 60)
            with mpmath.workdps(60):
                want = float(mpmath.log(abs(z)))
            s, l = _kernels.jones_scan(N, x)
            assert s == int(mpmath.sign(z)), (N, x)
            assert abs(l - want) <= 1e-11 * max(1.0, abs(want)), (N, x, l - want)

    def test_float_route_phases_are_exact_up_to_its_color_limit(self):
        # x*n less its nearest integer, for n up to 2^26 - 1, the largest
        # c + j of the largest float-route color: one rounding off the
        # exact value of the binary x.  Past that color the float route
        # refuses, and a dyadic x there still takes the rational route
        from fractions import Fraction

        from fig8jones.errors import DomainError

        rng = np.random.default_rng(9)
        xs = np.concatenate([rng.random(50) / 2, [0.4142135623, 1e-7, 0.5 - 2**-53]])
        ns = np.array([1, 127, 128, 2**25, 2**26 - 1, 2**26 - 128], dtype=np.float64)
        xh, xl = _kernels._split(xs[:, None])
        d = _kernels._turns(xh, xl, ns)
        for x, row in zip(xs.tolist(), d):
            for n, got in zip(ns.tolist(), row.tolist()):
                e = Fraction(x) * int(n)
                e -= round(e)
                assert abs(Fraction(got) - e) <= Fraction(1, 2**53), (x, n)
        assert _kernels._MAX_FLOAT_COLOR == 2**25
        _kernels._float_rows(np.array([2**25]), np.array([0.3]))
        with pytest.raises(DomainError):
            _kernels._float_rows(np.array([2**25 + 1]), np.array([0.3]))
        with pytest.raises(DomainError):
            _kernels.jones_scan(2**25 + 1, 0.3)
        with pytest.raises(DomainError):
            _kernels.jones_grid(np.array([3, 2**25 + 1]), np.array([0.3, 0.3]))
        assert _kernels.jones_scan(2**25 + 1, 0.375) == (1, 0.0)

    def test_exact_kernel_matches_float_kernel_without_zeros(self):
        # r/N with r not dividing into zero hits: both kernels see the
        # same mathematical product up to phase rounding
        for c, r, N in ((37, 3, 100), (150, 7, 400), (55, 2, 111)):
            (se,), (le,) = _kernels.jones_grid_exact(np.array([c]), r, N)
            sf, lf = _kernels.jones_scan(c, r / N)
            assert se == sf
            assert abs(le - lf) < 1e-8 * max(1.0, abs(le))

    def test_exact_kernel_zero_detection(self):
        # c = N + 1 at integer r = 1: factor j = 1 vanishes, J = 1
        (s,), (l,) = _kernels.jones_grid_exact(np.array([801]), 1, 800)
        assert (s, l) == (1, 0.0)
        (s,), (l,) = _kernels.jones_grid_exact(np.array([799]), 1, 800)
        assert (s, l) == (1, 0.0)

    def test_exact_kernel_against_direct_complex_evaluation(self):
        # at t a root of unity the direct sum telescopes to exactly 1
        # for colors N +- 1 and 2N - 1, and carries the full growth at
        # c = N; small N keeps the float oracle's rebuild noise tiny
        from conftest import brute_force_jones

        for N in (6, 8, 12):
            for c in (N - 1, N + 1, 2 * N - 1):
                assert abs(abs(brute_force_jones(c, 1.0 / N)) - 1.0) < 1e-9
                (s,), (l,) = _kernels.jones_grid_exact(np.array([c]), 1, N)
                assert (s, l) == (1, 0.0)
            z = abs(brute_force_jones(N, 1.0 / N))
            (s,), (l,) = _kernels.jones_grid_exact(np.array([N]), 1, N)
            assert s == 1
            assert abs(l - math.log(z)) < 1e-9

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_raises(self, x):
        # a non-finite x has no point on the circle: every entry point
        # that takes one refuses it before any arithmetic, so no warning
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f in (lambda: _kernels.jones_scan(5, x), lambda: _kernels.jones_prefix(5, x),
                      lambda: _kernels.jones_grid([5, 5], [0.3, x])):
                with pytest.raises(ValueError, match=f"positions must be finite, got {x}"):
                    f()

    def test_scan_truncates_at_exact_zero(self):
        # x = 0.5, N = 5: folded phases collide at j = 1, so the sum is
        # the single empty-product term
        s, l = _kernels.jones_scan(5, 0.5)
        assert (s, l) == (1, 0.0)


def unblocked(N, x):
    # the whole row at once, on the kernel's route for (N, x).  A
    # dyadic x = k/Q (Q = 2^e, e + bit_length(N) <= 53, so every x*j is
    # exact) takes twice the cosine of the folded exact phase, and a
    # factor under 2^-16 in magnitude is recomputed from the folded
    # integer phases as -4 sin(pi (q_N + q_j)/Q) sin(pi (q_N - q_j)/Q).
    # Any other x is folded exactly and split, x = xh + xl with halves of
    # 26 bits, and j = 128 s + i, i in 1..128: 2cos(2 pi x j) = C2[i]
    # cos A_s - S2[i] sin A_s, every phase x*n reduced to its distance
    # from the nearest integer, and a factor under 2^-16 in magnitude is
    # recomputed as -4 sin(pi x (N + j)) sin(pi x (N - j)).  Returns the
    # factors g(1..N-1)
    x = abs(x) % 1.0
    x = min(x, 1.0 - x)
    j = np.arange(1, N + 1)  # column N is g(N)'s own cosine
    y = x * 2.0 ** (53 - N.bit_length())
    if y == math.floor(y):
        u = x * j
        u -= np.floor(u)
        twocos = 2.0 * np.cos(2.0 * np.pi * np.minimum(u, 1.0 - u))
        g = twocos[-1] - twocos[:-1]
        k, Q = x.as_integer_ratio()
        q = k * j % Q
        q = np.minimum(q, Q - q)
        near = np.abs(g) < 2.0**-16
        s, d = q[-1] + q[:-1][near], q[-1] - q[:-1][near]
        g[near] = -4.0 * np.sin(np.minimum(s, Q - s) * np.pi / Q) * np.sin(d * np.pi / Q)
        return g
    t = (2.0**27 + 1.0) * x
    xh = t - (t - x)
    xl = x - xh

    def turns(n):
        p = xh * n
        p -= np.rint(p)
        p += xl * n
        return p - np.rint(p)

    def sin_pi(m):
        p = xh * m
        n = np.rint(p)
        p = np.sin(np.pi * (p - n + xl * m))
        return np.where(n % 2.0 == 1.0, -p, p)

    s, i = np.divmod(j - 1, 128)
    b = 2.0 * np.pi * turns(np.arange(1.0, 129.0))
    a = 2.0 * np.pi * turns(128.0 * s)
    twocos = (2.0 * np.cos(b))[i] * np.cos(a) - (2.0 * np.sin(b))[i] * np.sin(a)
    g = twocos[-1] - twocos[:-1]
    near = np.abs(g) < 2.0**-16
    m = j[:-1][near].astype(np.float64)
    g[near] = -4.0 * sin_pi(N + m) * sin_pi(N - m)
    return g


def prefixes(g):
    # prefix signs (int8) and logs of the partial products of a whole row
    # of factors g(1), g(2), ...
    sgnf = np.concatenate([[1.0], np.cumprod(np.sign(g))]).astype(np.int8)
    with np.errstate(divide="ignore"):
        logf = np.concatenate([[0.0], np.cumsum(np.log(np.abs(g)))])
    return sgnf, logf


def horner_sum(g):
    # the kernels' sum over one whole row of factors g(1..N-1), with no
    # chunks or blocks: pieces of _L factors from j = 1 through the row's
    # exact zero g(N), the last one padded with exact zeros.  A piece's b
    # takes backward Horner steps b <- b g + 1 from b = 0; its product a
    # takes the products of its groups of _K factors, from t = 0, each
    # split by frexp, multiplying the mantissas from the last group down.
    # The maps h -> b + a h then compose pairwise, neighbours 2i, 2i + 1
    # at every level and an odd last one passing up, as mantissas and
    # integer exponents summed at the larger exponent with the product's
    # rounding error carried exactly (Dekker).  The last piece's a is 0,
    # so the composite's b is the sum
    L, K, Z = _kernels._L, _kernels._K, _kernels._ZERO

    def norm(m, e):
        m, d = np.frexp(m)
        return m, np.where(m == 0.0, Z, np.add(e, d, dtype=np.int64))

    def split(v):
        t = (2.0**27 + 1.0) * v
        h = t - (t - v)
        return h, v - h

    def compose(left, right):
        (bl, ebl, al, eal), (br, ebr, ar, ear) = left, right
        x, ex = al * br, eal + ebr
        (ah, at), (bh, bt) = split(al), split(br)
        dx = ((ah * bh - x) + ah * bt + at * bh) + at * bt
        e = np.maximum(ebl, ex)
        b = np.ldexp(bl, ebl - e) + np.ldexp(x, ex - e) + np.ldexp(dx, ex - e)
        return (*norm(b, e), *norm(al * ar, eal + ear))

    P = len(g) // L + 1
    G = np.zeros(P * L)
    G[:len(g)] = g
    G = G.reshape(P, L).T
    b = np.zeros(P)
    for t in range(L - 1, -1, -1):
        b = b * G[t] + 1.0
    a, ea = np.ones(P), np.zeros(P, dtype=np.int64)
    for t0 in range(L - K, -1, -K):
        p = G[t0]
        for t in range(t0 + 1, t0 + K):
            p = p * G[t]
        m, e = np.frexp(p)
        a, ea = a * m, ea + e
    maps = (*norm(b, 0), *norm(a, ea))
    while len(maps[0]) > 1:
        n = len(maps[0])
        pair = compose([v[0:n - 1:2] for v in maps], [v[1:n:2] for v in maps])
        maps = [np.concatenate([u, v[n - 1:]]) if n % 2 else u for u, v in zip(pair, maps)]
    b, eb, _, _ = maps
    with np.errstate(divide="ignore"):
        return int(np.sign(b[0])), np.log(np.abs(b[0])) + eb[0] * _kernels._LN2


def exact_row(c, r, N):
    # the reduction's definition over the full row of color c at x = r/N
    # on integer phases, its near-root factors taken as sine products of
    # the folded phases and its dead factors zeroed; returns the sign,
    # the log and whether the row has a dead factor before c
    q = r * np.arange(1, c) % N
    q = np.minimum(q, N - q)
    qc = min(r * c % N, N - r * c % N)
    g = (2.0 * np.cos(2.0 * np.pi * qc / N)
         - 2.0 * np.cos(2.0 * np.pi * q / N))
    near = np.abs(g) < 2.0**-16
    t, d = qc + q[near], qc - q[near]
    g[near] = -4.0 * np.sin(np.minimum(t, N - t) * np.pi / N) * np.sin(d * np.pi / N)
    g[q == qc] = 0.0
    s, l = horner_sum(g)
    return s, np.float64(l), bool((q == qc).any())


def row_factors(fill, n):
    # the factors g(1..n) a lone row's fill(i, j0, n) forms, in column
    # order
    return np.concatenate([g for _, g in _kernels._prefix_blocks(fill, n)] or [[]])


def block(fill, i, T, n):
    # a block of T factor rows of n pieces of each of the rows i, laid
    # out (t, piece, row), as the kernel forms it _K rows at a time
    out, part = np.empty((T, n, len(i))), fill(i, 0, n)
    for t0 in range(0, T, _kernels._K):
        o = out[t0:t0 + _kernels._K]
        part(t0, o, np.empty_like(o))
    return out


class TestColumnBlocks:
    def test_blocked_core_matches_unblocked_formula(self):
        # rows on both sides of one block of a scan (W factors), two, and
        # many, and of jones_prefix's blocks (C factors); the blocks'
        # factors, accumulated once over the whole row, make the
        # prefixes equal, bit for bit, to the whole-row recurrences, and
        # the sums equal to the reduction's definition over the whole
        # row.  At N = 40000, x = 2^-16 the first vanishing factor,
        # j = 25536, lies in the second prefix block: a sign accumulated
        # across a block edge meets an exact zero, and the signs must
        # turn 0 there.  Rows of N = 641 and 3201 have a multiple of _L
        # live factors, so their zero g(N) opens a piece of its own.
        # W + 45 is a first block of whole pieces, with their products,
        # and a final block of one piece of 45 factors
        W, C = _kernels._PIECES * _kernels._L, _kernels._CHUNK_FACTORS
        cases = [(N, x) for N in (C - 1, C + 1, W - 1, W, W + 1, W + 2, W + 129, 3 * W + 5)
                 for x in (1.05 / N, 0.3, 1 / 3, 0.5)]
        for N, x in cases + [(40000, 2.0**-16), (10**6, 0.3), (641, 0.4142135623),
                             (3201, 0.4142135623), (W + 45, 0.4142135623)]:
            g = unblocked(N, x)
            sgnf, logf = prefixes(g)
            s, l = horner_sum(g)
            ks, kl = _kernels.jones_scan(N, x)
            assert ks == s and np.float64(kl).tobytes() == np.float64(l).tobytes(), (N, x)
            ps, pl = _kernels.jones_prefix(N, x)
            assert ps.dtype == np.int8 and pl.dtype == np.float64
            assert ps.tobytes() == sgnf.tobytes(), (N, x)
            assert pl.tobytes() == logf.tobytes(), (N, x)
            if x == 0.5:
                # dead at j <= 2 in the first block, and in every
                # later block too: J = 1 (odd N) or 1 + 4 (even N)
                assert (ps[C:] == 0).all() and (pl[C:] == -np.inf).all()
                assert ks == 1
                assert abs(kl - (0.0 if N % 2 else math.log(5.0))) < 1e-15
            if N == 40000:
                assert ps[25535] != 0 and (ps[25536:] == 0).all()

    def test_multi_block_scan_matches_unblocked_formula(self):
        # rows of several blocks whose logs fall hundreds of nats below
        # their peak and rise again: the scan composes each block's
        # pieces into 64 maps and their concatenation once, in the same
        # pairwise order as the whole row's, so it must equal, bit for
        # bit, the definition over the whole row
        W = _kernels._PIECES * _kernels._L
        for N in (3 * W + 5, 5 * W + 17):
            for r in (1.0, 0.9, 1.05, 2.5):
                x = r / N
                s, l = horner_sum(unblocked(N, x))
                ks, kl = _kernels.jones_scan(N, x)
                assert ks == s and np.float64(kl).tobytes() == np.float64(l).tobytes(), (N, r)

    def test_long_row_composes_one_tree(self, monkeypatch):
        # 3W + 5 factors: three blocks of 2^12 pieces, each composed
        # through 6 levels into 64 maps as it is made, and a last block
        # of one piece; the 193 maps then compose once, in 8 levels.  A
        # tree per block would take 12 levels each
        W = _kernels._PIECES * _kernels._L
        N, calls, compose = 3 * W + 5, [], _kernels._compose

        def spy(left, right):
            calls.append(len(left[0]))
            return compose(left, right)

        monkeypatch.setattr(_kernels, "_compose", spy)
        _kernels.jones_scan(N, 1.05 / N)
        assert calls == [2048, 1024, 512, 256, 128, 64] * 3 + [96, 48, 24, 12, 6, 3, 2, 1]

    def test_sums_past_the_float_range(self):
        # rows whose |J| and Horner suffix sums pass 2^1024, which the
        # maps carry as integer exponents, against 60-digit mpmath: the
        # Kashaev point x = 1/N at N = 3000 on the float route and on
        # integer phases, and the dyadic x = 2^-12 at N = 4096.  Their
        # first factor, about 4 sin^2(pi/N), meets a suffix sum past
        # 2^1074: a rescaled unit term 1 that had underflowed there would
        # leave b = g(1) h(2) without its 1, and a dead factor met after
        # it would read a false zero.  All terms are positive, so the sums
        # are well conditioned
        import mpmath

        for (s, l), N, x in ((_kernels.jones_scan(3000, 1 / 3000), 3000, mpmath.mpf(1 / 3000)),
                             (_kernels.jones_grid_exact(np.array([3000]), 1, 3000), 3000,
                              mpmath.mpf(1) / 3000),
                             (_kernels.jones_scan(4096, 2.0**-12), 4096, mpmath.mpf(2.0**-12))):
            z = mpmath_jones(N, x, 60)
            assert z > mpmath.mpf(2) ** 1100
            assert s == 1 and abs(l - float(mpmath.log(z))) <= 1e-11 * float(mpmath.log(z)), (N, x)
        # beside those rows in one call, colors whose row dies at j = 1
        # (N + 1, J = 1), at j = 2 (2N - 2: g(2) = 0, J = 1 + g(1)) and
        # at once (1): no false zero, and exactly the lone row's values
        cs = np.array([3000, 3001, 5998, 1, 4000])
        gs, gl = _kernels.jones_grid_exact(cs, 1, 3000)
        assert (gs[1], gl[1]) == (1, 0.0) and (gs[3], gl[3]) == (1, 0.0)
        g1 = 2 * mpmath.cos(2 * mpmath.pi * 5998 / 3000) - 2 * mpmath.cos(2 * mpmath.pi / 3000)
        assert gs[2] == 1 and abs(gl[2] - float(mpmath.log(1 + g1))) < 1e-15
        for c, s, l in zip(cs.tolist(), gs, gl):
            (s1,), (l1,) = _kernels.jones_grid_exact(np.array([c]), 1, 3000)
            assert s == s1 and l.tobytes() == l1.tobytes(), c

    def test_long_scan_memory_is_its_prefix_arrays(self):
        # a long scan reduces each block as it is made, so its peak is a
        # few blocks at N = 1e6 and 4e6 alike, at x = 1.05/N, where |f(k)|
        # grows and falls, and at a generic x, where it stays within a
        # few nats of its max; jones_prefix returns the full log (float64)
        # and sign (int8) prefixes, 9 bytes per factor, and a few
        # block-sized buffers, at both N: a temporary that grows with N
        # (say, in turning the sign parities into int8 signs) breaks the
        # bound at 4e6
        import tracemalloc

        def peak(f, N, x):
            tracemalloc.start()
            try:
                f(N, x)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        for N in (10**6, 4 * 10**6):
            for x in (1.05 / N, 0.4142135623):
                assert peak(_kernels.jones_scan, N, x) < 16 * 8 * _kernels._CHUNK_FACTORS, (N, x)
                assert peak(_kernels.jones_prefix, N, x) < 9 * N + 16 * 8 * _kernels._CHUNK_FACTORS, (N, x)

    def test_long_rational_rows_keep_block_memory(self):
        # rows on rational phases are filled block by block too: a lone
        # color of 5e6 + 1 at r/N = 1/1e7, and a scan at the dyadic
        # x = 2^-29, rational with Q = 2^29, whose 1e7 factors are all
        # live, keep a few blocks, not a full-length row of phases and
        # cosines (a cosine table is capped near a block as well)
        import tracemalloc

        for f in (lambda: _kernels.jones_grid_exact(np.array([5 * 10**6 + 1]), 1, 10**7),
                  lambda: _kernels.jones_scan(10**7, 2.0**-29)):
            tracemalloc.start()
            try:
                f()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 8 * _kernels._CHUNK_FACTORS
        assert _kernels._rational_rows(np.array([10**7]), 1, 2**29, 2**29)[0][0] == 10**7


class TestGrids:
    @staticmethod
    def assert_grid_is_scan(Ns, xs, every=1):
        # bit for bit: the chunked grid and the one-row scan must run the
        # same floating-point operations on every point (on every
        # `every`-th point, where scanning them all would be slow)
        gs, gl = _kernels.jones_grid(Ns, xs)
        assert gs.dtype == np.int8 and gl.dtype == np.float64
        assert gs.shape == gl.shape == (len(xs),)
        for i in range(0, len(xs), every):
            N, x = int(Ns[i]), float(xs[i])
            s, l = _kernels.jones_scan(N, x)
            assert gs[i] == s, (N, x)
            assert gl[i].tobytes() == np.float64(l).tobytes(), (N, x)

    def test_grid_matches_pointwise(self):
        # colors in any input order; N = 1, 2 have no factor or one,
        # x = 0 is t = 1, (5, 0.5) truncates at an exact zero, and
        # N = 17000 is a row of many pieces beside rows of one
        Ns = np.array([700, 1, 33, 2, 700, 5, 1, 2, 17000, 33, 5, 1999, 50, 500, 5])
        xs = np.array([0.31, 0.2, 0.0, 0.75, 0.0, 0.5, 0.0, 0.5, 0.41, 0.9,
                       0.13, 0.55, 0.031, 0.9 / 500, 0.2])
        self.assert_grid_is_scan(Ns, xs)
        # rows of 641 and 3201 factors through their zero, which opens a
        # piece of its own, in one chunk: 641 runs past its zero beside
        # longer rows
        self.assert_grid_is_scan([641, 1000, 3201], [0.4142135623] * 3)
        # a color below 1 has no factor, as color 1, in a scan as in a
        # grid, and in the prefixes: the single empty-product term
        self.assert_grid_is_scan([0, -3, 0, -3], [0.3, 0.3, 0.25, 0.25])
        for N in (0, -2):
            for x in (0.3, 0.25):
                ps, pl = _kernels.jones_prefix(N, x)
                assert ps.dtype == np.int8 and ps.tolist() == [1] and pl.tolist() == [0.0]
        # every odd color at one non-dyadic x, the non-integer cable
        # profile: chunks of rows of many colors, each of its own length,
        # whose last piece stops at the longest row's zero.  A shorter row
        # of a chunk stops at its own color: g(c) takes the same products
        # of the same table entries and segment angles as the row's own
        # g(c), so it is exactly 0.0, with one table for the chunk (one
        # x) or one per row (an x per color)
        for N, r in ((800, 1.5), (301, 0.7)):
            cs = np.arange(1, 2 * N, 2, dtype=np.int64)
            for xs in (np.full(len(cs), r / N), r / N + 1e-9 * np.arange(len(cs))):
                self.assert_grid_is_scan(cs, xs)
                # and the reduction's definition over every 9th whole row
                gs, gl = _kernels.jones_grid(cs, xs)
                for i in range(0, len(cs), 9):
                    s, l = horner_sum(unblocked(int(cs[i]), float(xs[i])))
                    assert gs[i] == s and gl[i].tobytes() == np.float64(l).tobytes(), (N, r, i)
                L = _kernels._L
                pieces = -(-cs // L)
                lengths, fill, near = _kernels._float_rows(cs, xs)
                assert np.array_equal(lengths, cs) and near.all()
                for sl in _kernels._chunks(pieces.tolist()):
                    c = cs[sl]
                    g = block(fill, np.arange(len(cs))[sl], min(L, int(c[-1])), int(pieces[sl][-1]))
                    assert (g[(c[:-1] - 1) % L, (c[:-1] - 1) // L, np.arange(len(c) - 1)] == 0.0).all()
        # dyadic non-integer profiles, x = 3/2048 and 1/64: one rational
        # call carries every color, each row at its own k, live length
        # and width
        for N, r in ((1024, 1.5), (800, 12.5)):
            cs = np.arange(1, 2 * N, 2, dtype=np.int64)
            self.assert_grid_is_scan(cs, np.full(len(cs), r / N))

    def test_grid_color_spanning_chunks(self):
        # N = 101, a row of one piece, fills two whole chunks plus a
        # remainder, interleaved with a second color
        P, L = _kernels._PIECES, _kernels._L
        rng = np.random.default_rng(4)
        Ns = np.array([101] * (2 * P + 7) + [9] * 5, dtype=np.int64)
        rng.shuffle(Ns)
        self.assert_grid_is_scan(Ns, rng.random(len(Ns)), every=5)
        # a lone row just past one block, in a call whose chunk of rows of
        # two pieces sized the shared buffers: it still runs in two
        # blocks, whose maps compose as the whole row's
        W = P * L
        assert -(-(W + 99) // L) > P
        Ns = np.array([160] * (P // 2) + [W + 100], dtype=np.int64)
        self.assert_grid_is_scan(Ns, rng.random(len(Ns)), every=3)

    def test_grid_dyadic_quadrature_grid(self):
        # dyadic points go through the integer-phase core once per
        # x <-> 1-x pair and must still equal the float-phase scan
        n = 1 << 14
        xs = (np.arange(n) + 0.5) / n
        for N, every in ((2, 5), (5, 5), (300, 1), (1000, 7), (4097, 31)):
            self.assert_grid_is_scan(np.full(n, N, dtype=np.int64), xs, every)
        m = 1 << 12
        self.assert_grid_is_scan(np.full(m, 300, dtype=np.int64),
                                 (np.arange(m) + 0.5) / m)
        # the 8-point refinement of log_mahler_quadrature: denominator 2^18
        panels = np.array([0, 1, 77, 4095, 8191, 8192, n - 78, n - 2, n - 1])
        sub = ((panels[:, None] + (np.arange(8) + 0.5) / 8.0) / n).ravel()
        for N in (5, 1000):
            self.assert_grid_is_scan(np.full(len(sub), N, dtype=np.int64), sub)

    def test_grid_dyadic_mirror_pairs(self):
        # x and 1 - x side by side, 0 and 1/2 (their own mirrors), and
        # x = k/2^e on both sides of e + bit_length(N) = 53 at N = 1000
        half = np.array([0.5 ** 3, 3 / 1024, 0.5 ** 20, 0.3125, 0.5 ** 43,
                         0.5 ** 44, 1 - 0.5 ** 43 - 0.5 ** 42])
        xs = np.concatenate([half, 1.0 - half, [0.0, 0.5, 0.25, 0.75]])
        for N in (1, 3, 7, 64, 1000):
            self.assert_grid_is_scan(np.full(len(xs), N, dtype=np.int64), xs)

    def test_grid_dyadic_past_exactness_limit_takes_float_path(self, monkeypatch):
        # 2^-50 at N = 1000: 50 + bit_length(1000) = 60 > 53, so x*j need
        # not be exact.  It and 1 - 2^-50, which folds to it exactly,
        # alone take the float route.  2^-43, 2^-40 and 1 - 2^-40 are
        # exact and take the rational core in one call at Q = 2^43, on
        # direct cosines: a table of 2^42 + 1 cosines would serve 999
        # factors a point.  The quarter points take one table of three
        # cosines at Q = 4, and beside 2^-43 the direct cosines at 2^43:
        # a call has one denominator and one rule.
        floated, cosines = [], []
        float_rows, twocos = _kernels._float_rows, _kernels._twocos

        def spy_float_rows(cs, xs):
            floated.extend(xs.tolist())
            return float_rows(cs, xs)

        def spy_twocos(q, Q, out=None):
            # a table is the cosine of every q = 0..Q/2
            table = q.size == Q // 2 + 1 and np.array_equal(q, np.arange(q.size))
            cosines.append((Q, table))
            return twocos(q, Q, out)

        monkeypatch.setattr(_kernels, "_float_rows", spy_float_rows)
        monkeypatch.setattr(_kernels, "_twocos", spy_twocos)
        past = [0.5 ** 50, 1 - 0.5 ** 50]
        far = past + [0.5 ** 43, 0.5 ** 40, 1 - 0.5 ** 40]
        quarters = [0.25, 0.5, 0.75]
        for xs, direct, tables in ((far, {2 ** 43}, []),
                                   (quarters, set(), [4]),
                                   (quarters + [0.5 ** 43], {2 ** 43}, [])):
            floated.clear()
            cosines.clear()
            Ns = np.full(len(xs), 1000, dtype=np.int64)
            _kernels.jones_grid(Ns, np.array(xs))
            assert sorted(floated) == sorted(min(x, 1 - x) for x in xs if x in past)
            assert {Q for Q, table in cosines if not table} == direct
            assert sorted(Q for Q, table in cosines if table) == tables
            self.assert_grid_is_scan(Ns, np.array(xs))

    def test_dyadic_points_of_every_denominator_take_one_route(self, monkeypatch):
        # one rational route per grid call, over the largest denominator
        # in lowest terms, every other key scaled by a power of two and
        # carrying its own period: random k/2^e for e = 0..29, 0 and 1/2,
        # and the conv grid r/2048, r = 0, 0.01, ..., 1, whose dyadic
        # points r = 0.25, 0.5, 0.75, 1 have denominators 2^13, 2^12,
        # 2^13 and 2^11.  2^-52 at color 1 puts 0.5 - 2^-14 at color
        # 8193 + 3 * 2^14 over Q = 2^52, where its int64 products c k and
        # k j pass 2^63 and wrap, which keeps them mod Q.  Each point
        # equals its scan
        calls, rational_rows = [], _kernels._rational_rows

        def spy(c, k, Q, d):
            calls.append(Q)
            return rational_rows(c, k, Q, d)

        monkeypatch.setattr(_kernels, "_rational_rows", spy)
        rng = np.random.default_rng(29)
        e = np.arange(30).repeat(8)
        xs = np.concatenate([rng.integers(0, 1 << 30, size=len(e)) % (1 << e) / (1 << e),
                             [0.0, 0.5]])
        Ns = rng.integers(1, 3001, size=len(xs))
        conv = np.arange(101) * 0.01 / 2048
        wrap = (np.array([1, 8193 + 3 * 2**14]), np.array([0.5 ** 52, 0.5 - 0.5 ** 14]))
        for Ns, xs, Q in ((Ns, xs, 2 ** 29), (np.full(101, 2048), conv, 2 ** 13),
                          (*wrap, 2 ** 52)):
            calls.clear()
            gs, gl = _kernels.jones_grid(Ns, xs)
            assert calls == [Q], calls
            calls.clear()
            for i in range(len(xs)):
                s, l = _kernels.jones_scan(int(Ns[i]), float(xs[i]))
                assert s == gs[i] and np.float64(l).tobytes() == gl[i].tobytes(), (Ns[i], xs[i])
            assert len(calls) == _kernels._dyadic(Ns, _kernels._fold_x(xs)).sum()

    def test_float_route_color_limit_raises_before_any_sum(self, monkeypatch):
        # the float route checks its colors once per call, so a color
        # past its limit raises before any row is summed: the row of
        # color 3 beside it, and a dyadic point's row as well
        from fig8jones.errors import DomainError

        summed = []
        horner = _kernels._horner

        def spy(*args):
            summed.append(args[1])
            return horner(*args)

        monkeypatch.setattr(_kernels, "_horner", spy)
        for Ns, xs in (([3, 2**25 + 1], [0.3, 0.3]), ([3, 5, 2**25 + 1], [0.3, 0.25, 0.3])):
            with pytest.raises(DomainError):
                _kernels.jones_grid(Ns, xs)
            assert summed == []

    def test_rows_that_share_x_share_one_cosine_row(self, monkeypatch):
        # the cosine work of rows at one x does not grow with the rows.
        # Rational route: at N = 80000 a table of 40001 cosines would
        # serve 40 short colors, so they take direct cosines, one per
        # color for g(c) and one shared row for the factors of the
        # longest color, not one per row.  Float route: a cable profile
        # at one non-dyadic x forms its tables C2, S2 (the only phases
        # of shape (i, 1, row)) for one row per chunk
        L = _kernels._L
        cosines, tables = [], []
        twocos, angle = _kernels._twocos, _kernels._angle

        def spy_twocos(q, Q, out=None):
            cosines.append(q.size)
            return twocos(q, Q, out)

        def spy_angle(d):
            if d.ndim == 3:
                tables.append(d.shape)
            return angle(d)

        monkeypatch.setattr(_kernels, "_twocos", spy_twocos)
        monkeypatch.setattr(_kernels, "_angle", spy_angle)
        cs = np.arange(60, 100)
        _kernels.jones_grid_exact(cs, 1, 80000)
        assert len(cosines) > 1 and max(cosines) < 80000 // 2 + 1
        assert sum(cosines) <= len(cs) + L
        cs = np.arange(1, 1600, 2)
        _kernels.jones_grid(cs, np.full(len(cs), 1.5 / 800))
        chunks = len(list(_kernels._chunks((-(-cs // L)).tolist())))
        assert tables == [(L, 1, 1)] * chunks
        # rows of distinct x each take their own table
        tables.clear()
        xs = np.arange(1, 6) / 13
        assert not _kernels._dyadic(cs[:5], xs).any()
        _kernels.jones_grid(cs[:5], xs)
        assert tables == [(L, 1, 5)]

    def test_grid_empty_and_inputs_untouched(self):
        gs, gl = _kernels.jones_grid(np.array([], dtype=np.int64), np.array([]))
        assert gs.dtype == np.int8 and gl.dtype == np.float64
        assert gs.shape == gl.shape == (0,)
        Ns = np.array([40, 3, 40, 200], dtype=np.int64)
        xs = np.array([0.7, 0.1, 0.25, 0.01])
        Ns0, xs0 = Ns.copy(), xs.copy()
        _kernels.jones_grid(Ns, xs)
        assert np.array_equal(Ns, Ns0) and np.array_equal(xs, xs0)

    def test_grid_exact_matches_pointwise(self):
        # over all odd colors, many past their first dead factor; the
        # colors stop there, so chunks mix live lengths and their last
        # piece stops at the longest row's zero, and the sum must equal,
        # bit for bit, the reduction's definition over the full row
        # (exact_row) and the one-color call
        def dead_rows(cs, r, N):
            cs = np.array(cs, dtype=np.int64)
            gs, gl = _kernels.jones_grid_exact(cs, r, N)
            assert gs.dtype == np.int8 and gl.dtype == np.float64
            assert gs.shape == gl.shape == cs.shape
            dead = 0
            for i, c in enumerate(cs.tolist()):
                (s,), (l,) = _kernels.jones_grid_exact(np.array([c]), r, N)
                fs, fl, has_dead = exact_row(c, r, N)
                dead += has_dead
                assert gs[i] == s == fs, (c, r, N)
                assert (gl[i].tobytes() == np.float64(l).tobytes()
                        == fl.tobytes()), (c, r, N)
            return dead

        for N, r in ((20, 1), (800, 1), (300, 2), (301, 3)):
            cs = np.arange(1, 2 * N, 2, dtype=np.int64)
            assert dead_rows(cs, r, N) > len(cs) // 4
        # colors out of order and repeated; c = 1 and no color at all; a
        # color whose live prefix alone exceeds a chunk; every 7th odd
        # color, so chunks hold many rows of different widths
        shuffled = np.random.default_rng(8).permutation(
            np.concatenate([np.arange(1, 600, 2), np.arange(1, 600, 6), [301] * 5]))
        assert _kernels._rational_rows(np.array([40001]), 1, 80000, 80000)[0][0] > _kernels._CHUNK_FACTORS
        for cs, r, N in ((shuffled, 2, 300), ([1], 1, 800), ([1, 1, 3], 3, 301),
                         ([], 1, 800), ([3, 40001, 5], 1, 80000),
                         (np.arange(1, 6000, 14), 1, 3000)):
            dead_rows(cs, r, N)

    def test_cancelling_rows_read_no_false_zero(self):
        # rows whose terms cancel below float64's reach are noise, but a
        # composition whose rounded product met b_l exactly summed to 0.0
        # and read the row as vanished: 12 rows of the profile at N = 800,
        # r = 1 (c = 217, 377, ...) and 48 at N = 3000, r = 3, none of
        # which has a vanishing factor in its live prefix.  Carrying the
        # product's rounding error, none reads 0
        for N, r in ((800, 1), (3000, 3)):
            s, _ = _kernels.jones_grid_exact(np.arange(1, 2 * N, 2), r, N)
            assert (s != 0).all(), (N, r, np.flatnonzero(s == 0)[:5])

    def test_grid_exact_memory_stays_within_chunks(self):
        # all 3000 odd colors at once: a few chunk-sized arrays at a time,
        # so a chunk budget that ignored the padding to its longest row,
        # or zero-filled every row to its full width, would exceed this
        import tracemalloc

        cs = np.arange(1, 6000, 2, dtype=np.int64)
        tracemalloc.start()
        try:
            _kernels.jones_grid_exact(cs, 1, 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * _kernels._CHUNK_FACTORS

    def test_grid_exact_lone_row_sums_without_padding(self):
        # J = 1 from a one-term prefix at color 10^7 + 1: the row is
        # summed over its width with the tail past its formed columns
        # virtual, not copied into a zero buffer of 10^7 + 1 terms
        import tracemalloc

        tracemalloc.start()
        try:
            (s,), (l,) = _kernels.jones_grid_exact(np.array([10**7 + 1]), 1, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (s, l) == (1, 0.0)
        assert peak < 1 << 20

    def test_concurrent_callers_get_identical_results(self):
        # pure functions: many threads evaluating the same points must
        # agree bitwise with the sequential answers
        from concurrent.futures import ThreadPoolExecutor

        pts = [(n, 0.3 + 0.001 * n) for n in range(50, 90)]
        expected = [_kernels.jones_scan(n, x) for n, x in pts]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda p: _kernels.jones_scan(*p), pts * 4))
        assert got == expected * 4


class TestFinalPiece:
    # a chunk's final block steps its rows t >= T = (n - 1) mod _L + 1, n
    # the chunk's longest length, for the pieces before the last only,
    # and forms them for those pieces in its parts above T: the last
    # piece holds that row's exact zero at t = T - 1 and takes no
    # product, and for a shorter row it lies past the row's own zero.
    # None of this may move a bit

    @staticmethod
    def spy_horner(monkeypatch):
        # per _horner call: (pieces, rows), the factors formed per row
        # (the parts' factor rows times their pieces) and the widths of
        # the group products it splits by frexp (all its frexp calls but
        # the last two, _norm's of b and a)
        calls, frexps = [], []
        horner = _kernels._horner

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def frexp(self, x):
                frexps.append(np.size(x))
                return np.frexp(x)

        def spy(part, shape, buf, k, T):
            formed = []

            def counted(t0, out, tmp):
                formed.append(out.shape[0] * out.shape[1])
                return part(t0, out, tmp)

            n = len(frexps)
            maps = horner(counted, shape, buf, k, T)
            calls.append((shape, sum(formed), frexps[n:-2]))
            return maps

        monkeypatch.setattr(_kernels, "np", Numpy())
        monkeypatch.setattr(_kernels, "_horner", spy)
        return calls

    def test_final_piece_stops_at_its_zero(self, monkeypatch):
        # the 2^14-point quadrature grid at N = 300: every row has 300
        # factors through its zero, 128 + 128 + 44, and takes the products
        # of its first two pieces only, in _L/_K groups.  Its last piece
        # is formed up to the part of h rows that holds the zero, which is
        # formed whole: 48 rows in chunks of parts of 8 rows, so a row
        # forms 304 factors, not 384.  At N = 100 each chunk is one piece,
        # which takes no product
        L, K = _kernels._L, _kernels._K
        n = 1 << 14
        xs = (np.arange(n) + 0.5) / n
        calls = self.spy_horner(monkeypatch)
        expected = _kernels.jones_grid(np.full(n, 300), xs)
        assert len(calls) > 1
        for (pieces, rows), formed, products in calls:
            h = max(_kernels._CHUNK_FACTORS // (pieces * rows) // K * K, K)
            assert (pieces, formed) == (3, 2 * L + min(-(-44 // h) * h, L))
            assert products == [2 * rows] * (L // K)
        assert sum(rows * formed for (_, rows), formed, _ in calls) < 305 * n // 2
        calls.clear()
        _kernels.jones_grid(np.full(n, 100), xs)
        assert len(calls) > 1
        for (pieces, rows), formed, products in calls:
            assert (pieces, formed, products) == (1, 100, [])
        monkeypatch.undo()
        got = _kernels.jones_grid(np.full(n, 300), xs)
        assert all(u.tobytes() == v.tobytes() for u, v in zip(expected, got))

    def test_rows_of_every_last_piece_length(self):
        # lengths = 0, 1, 2, 44, 104 and 127 (mod _L) through the zero, of
        # one to eight pieces, side by side in one chunk and alone, on the
        # float route (length c) and the rational one (x = 5/2^13, whose
        # live length is c for these colors): grid = scan = the reduction
        # over the whole row
        L = _kernels._L
        cs = np.array([t + p * L for t in (1, 2, 44, 104, 127, L) for p in (0, 1, 2, 7)])
        for x in (0.4142135623, 5 / 2**13):
            lengths = (_kernels._float_rows(cs, np.full(len(cs), x))[0] if x == 0.4142135623
                       else _kernels._rational_rows(cs, 5, 2**13, 2**13)[0])
            assert np.array_equal(lengths, cs)
            TestGrids.assert_grid_is_scan(cs, np.full(len(cs), x))
            for c in cs.tolist():
                s, l = horner_sum(unblocked(c, x))
                ks, kl = _kernels.jones_scan(c, x)
                assert ks == s and np.float64(kl).tobytes() == np.float64(l).tobytes(), (c, x)
        # both routes in one call, in shuffled order
        both = np.concatenate([cs, cs])
        xs = np.repeat([0.4142135623, 5 / 2**13], len(cs))
        i = np.random.default_rng(28).permutation(len(both))
        TestGrids.assert_grid_is_scan(both[i], xs[i])

    def test_phases_take_int32_where_they_fit(self, monkeypatch):
        # the phases of a block's factors, reduced mod Q by every cosine
        # rule, take uint16 on a power of two Q <= 2^15, where they wrap
        # mod 2^16: the 2^14-point quadrature grid, Q = 2^15, on its
        # table.  A jones_grid_exact grid, Q = N = 3000, takes int32
        dtypes, mod = [], _kernels._mod

        def spy(q, Q):
            if q.ndim == 3:
                dtypes.append(q.dtype)
            return mod(q, Q)

        monkeypatch.setattr(_kernels, "_mod", spy)
        n = 1 << 14
        xs = (np.arange(n) + 0.5) / n
        TestGrids.assert_grid_is_scan(np.full(n, 100), xs, every=509)
        assert dtypes and set(dtypes) == {np.dtype(np.uint16)}
        dtypes.clear()
        cs = np.arange(1, 6000, 2)
        _kernels.jones_grid_exact(cs, 1, 3000)
        assert dtypes and set(dtypes) == {np.dtype(np.int32)}
        # x = 3/2^22, its factors on direct cosines: the phases k j of
        # colors c take int32 while Q (c + _L) < 2^31, at N = 300, and
        # int64 past it, at N = 400; x = 3/2^15 keeps uint16 at N = 70000,
        # past that bound.  All match the reduction over the whole row
        for N, x, dt in ((300, 3 / 2**22, np.int32), (400, 3 / 2**22, np.int64),
                         (70000, 3 / 2**15, np.uint16)):
            assert (2**22 * (N + _kernels._L) < 2**31) == (dt is np.int32)
            dtypes.clear()
            s, l = horner_sum(unblocked(N, x))
            ks, kl = _kernels.jones_scan(N, x)
            assert ks == s and np.float64(kl).tobytes() == np.float64(l).tobytes(), N
            assert dtypes and set(dtypes) == {np.dtype(dt)}, N
            TestGrids.assert_grid_is_scan([N, N, 7], [x, 1 - x, x])


def midpoint_rows(n):
    # the rational rows of jones_grid's n-point midpoint grid: x =
    # (2i + 1)/(2n), one row per x <-> 1 - x pair, k odd below n
    return np.arange(1, n, 2), 2 * n


class TestNearRows:
    # the rational route scans for near-root factors only the rows that
    # _near flags: a factor of any other row is at least _TAU, or 0.0
    # exactly, whose sine product -0.0 sums the same
    @staticmethod
    def assert_unflagged_rows_have_no_small_factor(monkeypatch, c, k, Q):
        # every factor the route's own fill forms, unrefined, over each
        # row's width or a whole period of its phases, whichever is less
        L = _kernels._L
        c = np.asarray(c, dtype=np.int64)
        k = np.broadcast_to(np.asarray(k, dtype=np.int64), c.shape)
        monkeypatch.setattr(_kernels, "_refine", lambda g, *args: g)
        _, fill, near = _kernels._rational_rows(c, k, Q, Q)
        n = -(-min(int(c.max()), Q) // L)
        step = max(1, (1 << 20) // (n * L))
        for a in range(0, len(c), step):
            i = np.arange(a, min(a + step, len(c)))
            g = np.abs(block(fill, i, L, n)[:, :, ~near[i]])
            small = (g > 0.0) & (g < _kernels._TAU)
            assert not small.any(), (Q, c[i][~near[i]][np.flatnonzero(small.any(axis=(0, 1)))[:3]])
        monkeypatch.undo()
        return near

    def test_unflagged_rows_have_no_small_factor(self, monkeypatch):
        for n in (1 << 14, 1 << 16):
            k, Q = midpoint_rows(n)
            for N in (100, 300, 1000):
                near = self.assert_unflagged_rows_have_no_small_factor(
                    monkeypatch, np.full(len(k), N), k, Q)
                assert 0 < near.sum() < len(k) // 4, (n, N)
        # the cable profiles at integer r: every odd color, Q = N, one
        # of them odd
        for N, r in [(3000, r) for r in range(1, 8)] + [(1001, 7)]:
            near = self.assert_unflagged_rows_have_no_small_factor(
                monkeypatch, np.arange(1, 2 * N, 2), r, N)
            assert near.sum() < N // 50, (N, r)
        # random rows, with x = 0 (Q = 1), x = 1/2 (Q = 2) and k = 0
        rng = np.random.default_rng(24)
        for Q in [1, 2, 3, 4, 7, 64] + rng.integers(5, 20000, size=20).tolist():
            c = rng.integers(1, 3 * Q + 2, size=50)
            for k in (0, int(rng.integers(0, Q)), rng.integers(0, Q, size=50)):
                self.assert_unflagged_rows_have_no_small_factor(monkeypatch, c, k, Q)

    def test_near_flags_change_no_bit_and_only_flagged_chunks_scan(self, monkeypatch):
        n = 1 << 14
        xs = (np.arange(n) + 0.5) / n
        cs = np.arange(1, 6000, 2)
        rng = np.random.default_rng(25)
        dN = rng.integers(1, 3000, size=400)
        dx = rng.integers(0, 1 << 20, size=400) / (1 << rng.integers(1, 21, size=400))

        def run():
            out = [_kernels.jones_grid(np.full(n, N), xs) for N in (100, 300, 1000)]
            out += [_kernels.jones_grid_exact(cs, r, 3000) for r in (1, 2, 3)]
            out.append(_kernels.jones_grid(dN, dx))
            out += [_kernels.jones_scan(int(N), float(x)) for N, x in zip(dN[:60], dx[:60])]
            out += [_kernels.jones_prefix(int(N), float(x)) for N, x in zip(dN[:20], dx[:20])]
            out += [_kernels.jones_prefix(3000, 1 / 3000), _kernels.jones_scan(3000, 2 / 3000)]
            return [np.asarray(v).tobytes() for pair in out for v in pair]

        refine, seen = _kernels._refine, []

        def spy(g, tmp, j0, sine, scan=None):
            seen.append(g.shape[2] if scan is None else len(scan))
            return refine(g, tmp, j0, sine, scan)

        monkeypatch.setattr(_kernels, "_refine", spy)
        flagged = run()
        # the N = 1000 quadrature grid: by default only the flagged rows
        # are scanned, in the parts of the chunks that hold them; with
        # every row near, every row in every part of its chunk
        k, Q = midpoint_rows(n)
        lengths, _, near = _kernels._rational_rows(np.full(len(k), 1000), k, Q, Q)
        pieces = -(-lengths // _kernels._L)
        chunks = [near[np.lexsort((near, lengths))][sl] for sl in _kernels._chunks(pieces.tolist())]
        seen.clear()
        _kernels.jones_grid(np.full(n, 1000), xs)
        scanned = list(seen)
        monkeypatch.setattr(_kernels, "_near", lambda qc, Q: np.ones(len(qc), dtype=bool))
        assert run() == flagged
        seen.clear()
        _kernels.jones_grid(np.full(n, 1000), xs)
        parts = len(seen) // len(chunks)
        assert len(seen) == parts * len(chunks) and sum(seen) == parts * len(k)
        assert len(scanned) <= parts * sum(bool(f.any()) for f in chunks) < len(seen) // 4
        assert sum(scanned) == parts * near.sum()
