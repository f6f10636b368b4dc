import math

import numpy as np

from fig8jones import _kernels


class TestBackendDispatch:
    def test_default_backend_name(self):
        # benchmark records carry this name
        assert _kernels.current_backend() == "numpy"


class TestScanAgreement:
    # dominated-peak points only: alternating-cancellation positions
    # (r in (1/6, 1/2) at N >= 4000) sit at the noise floor, where the
    # two summation orders legitimately differ in the cancelled digits;
    # (5, 0.5) exercises the exact-zero truncation
    CASES = [(2, 0.5), (3, 1 / 3), (5, 0.5), (7, 0.123), (100, 0.37),
             (501, 0.95 / 501), (1000, 1.0 / 1000), (4096, 0.95 / 4096)]

    def test_against_mpmath_oracle(self):
        # 40-digit sum_k prod_{j<=k} (2cos 2 pi xN - 2cos 2 pi xj); log|J|
        # must agree to 1e-11 relative, the tolerance the kernels were
        # held to when they had two implementations
        import mpmath

        def oracle(N, x, vanishes=lambda j: False):
            with mpmath.workdps(40):
                gN = 2 * mpmath.cos(2 * mpmath.pi * x * N)
                total = prod = mpmath.mpf(1)
                for j in range(1, N):
                    if vanishes(j):
                        break
                    prod *= gN - 2 * mpmath.cos(2 * mpmath.pi * x * j)
                    total += prod
                return total

        def check(got, z):
            assert got[0] == int(mpmath.sign(z))
            want = float(mpmath.log(abs(z)))
            assert abs(got[1] - want) <= 1e-11 * max(1.0, abs(want))

        for N, x in self.CASES:
            check(_kernels.jones_scan(N, x), oracle(N, mpmath.mpf(x)))
        # x = r/N exactly: factor j vanishes when r (c -+ j) = 0 mod N
        # (960, 5, 800), (450, 2, 300) and (400, 3, 301) stop at j = 160,
        # 150 and 99, far from both ends of the row; their terms keep one
        # sign from k = 1 on, so the sums are well conditioned
        for c, r, N in ((801, 1, 800), (799, 1, 800), (803, 3, 800),
                        (960, 5, 800), (450, 2, 300), (400, 3, 301)):
            z = oracle(c, mpmath.mpf(r) / N,
                       lambda j: r * (c - j) % N == 0 or r * (c + j) % N == 0)
            check(_kernels.jones_scan_exact(c, r, N), z)

    def test_exact_kernel_matches_float_kernel_without_zeros(self):
        # r/N with r not dividing into zero hits: both kernels see the
        # same mathematical product up to phase rounding
        for c, r, N in ((37, 3, 100), (150, 7, 400), (55, 2, 111)):
            se, le = _kernels.jones_scan_exact(c, r, N)
            sf, lf = _kernels.jones_scan(c, r / N)
            assert se == sf
            assert abs(le - lf) < 1e-8 * max(1.0, abs(le))

    def test_exact_kernel_zero_detection(self):
        # c = N + 1 at integer r = 1: factor j = 1 vanishes, J = 1
        s, l = _kernels.jones_scan_exact(801, 1, 800)
        assert (s, l) == (1, 0.0)
        s, l = _kernels.jones_scan_exact(799, 1, 800)
        assert (s, l) == (1, 0.0)

    def test_exact_kernel_against_direct_complex_evaluation(self):
        # at t a root of unity the direct sum telescopes to exactly 1
        # for colors N +- 1 and 2N - 1, and carries the full growth at
        # c = N; small N keeps the float oracle's rebuild noise tiny
        from conftest import brute_force_jones

        for N in (6, 8, 12):
            for c in (N - 1, N + 1, 2 * N - 1):
                assert abs(abs(brute_force_jones(c, 1.0 / N)) - 1.0) < 1e-9
                assert _kernels.jones_scan_exact(c, 1, N) == (1, 0.0)
            z = abs(brute_force_jones(N, 1.0 / N))
            s, l = _kernels.jones_scan_exact(N, 1, N)
            assert s == 1
            assert abs(l - math.log(z)) < 1e-9

    def test_scan_truncates_at_exact_zero(self):
        # x = 0.5, N = 5: folded phases collide at j = 1, so the sum is
        # the single empty-product term
        s, l = _kernels.jones_scan(5, 0.5)
        assert (s, l) == (1, 0.0)


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
        # N = 17000 exceeds one chunk's factor budget on its own
        Ns = np.array([700, 1, 33, 2, 700, 5, 1, 2, 17000, 33, 5, 1999, 50, 500, 5])
        xs = np.array([0.31, 0.2, 0.0, 0.75, 0.0, 0.5, 0.0, 0.5, 0.41, 0.9,
                       0.13, 0.55, 0.031, 0.9 / 500, 0.2])
        self.assert_grid_is_scan(Ns, xs)

    def test_grid_color_spanning_chunks(self):
        # N = 101 fills two whole chunks plus a remainder, interleaved
        # with a second color
        rows = _kernels._CHUNK_FACTORS // 100
        rng = np.random.default_rng(4)
        Ns = np.array([101] * (2 * rows + 7) + [9] * 5, dtype=np.int64)
        rng.shuffle(Ns)
        self.assert_grid_is_scan(Ns, rng.random(len(Ns)))

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
        # not be exact; 1 - 2^-50 shows it, its products round
        seen = []
        factors = _kernels._factors

        def spy(N, xs):
            seen.extend(xs.tolist())
            return factors(N, xs)

        monkeypatch.setattr(_kernels, "_factors", spy)
        xs = np.array([0.5 ** 50, 1 - 0.5 ** 50, 0.5 ** 43, 0.5])
        Ns = np.full(len(xs), 1000, dtype=np.int64)
        _kernels.jones_grid(Ns, xs)
        assert sorted(seen) == [0.5 ** 50, 1 - 0.5 ** 50]
        self.assert_grid_is_scan(Ns, xs)

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
        # colors stop there, and the sum must equal, bit for bit, the
        # full row with its dead factors zeroed
        def full_row(c, r, N):
            q = r * np.arange(1, c) % N
            q = np.minimum(q, N - q)
            qc = min(r * c % N, N - r * c % N)
            g = (2.0 * np.cos(2.0 * np.pi * qc / N)
                 - 2.0 * np.cos(2.0 * np.pi * q / N))
            g[q == qc] = 0.0
            s, l = _kernels._reduce(*_kernels._log_prefix(g[None, :]))
            return int(s[0]), l[0], bool((q == qc).any())

        for N, r in ((20, 1), (800, 1), (300, 2), (301, 3)):
            cs = np.arange(1, 2 * N, 2, dtype=np.int64)
            gs, gl = _kernels.jones_grid_exact(cs, r, N)
            dead = 0
            for i, c in enumerate(cs.tolist()):
                s, l = _kernels.jones_scan_exact(c, r, N)
                fs, fl, has_dead = full_row(c, r, N)
                dead += has_dead
                assert gs[i] == s == fs, (c, r, N)
                assert (gl[i].tobytes() == np.float64(l).tobytes()
                        == fl.tobytes()), (c, r, N)
            assert dead > len(cs) // 4

    def test_concurrent_callers_get_identical_results(self):
        # pure functions: many threads evaluating the same points must
        # agree bitwise with the sequential answers
        from concurrent.futures import ThreadPoolExecutor

        pts = [(n, 0.3 + 0.001 * n) for n in range(50, 90)]
        expected = [_kernels.jones_scan(n, x) for n, x in pts]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda p: _kernels.jones_scan(*p), pts * 4))
        assert got == expected * 4
