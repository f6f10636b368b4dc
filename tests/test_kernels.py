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
        for c, r, N in ((801, 1, 800), (799, 1, 800), (803, 3, 800)):
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
    def test_grid_matches_pointwise(self):
        Ns = np.array([5, 50, 500, 1999], dtype=np.int64)
        xs = np.array([0.2, 0.031, 0.9 / 500, 0.55])
        gs, gl = _kernels.jones_grid(Ns, xs)
        for i in range(len(Ns)):
            s, l = _kernels.jones_scan(int(Ns[i]), float(xs[i]))
            assert gs[i] == s
            assert gl[i] == l

    def test_grid_exact_matches_pointwise(self):
        cs = np.arange(1, 40, 2, dtype=np.int64)
        gs, gl = _kernels.jones_grid_exact(cs, 1, 20)
        for i, c in enumerate(cs):
            s, l = _kernels.jones_scan_exact(int(c), 1, 20)
            assert gs[i] == s
            assert (gl[i] == l) or (math.isinf(gl[i]) and math.isinf(l))

    def test_concurrent_callers_get_identical_results(self):
        # pure functions: many threads evaluating the same points must
        # agree bitwise with the sequential answers
        from concurrent.futures import ThreadPoolExecutor

        pts = [(n, 0.3 + 0.001 * n) for n in range(50, 90)]
        expected = [_kernels.jones_scan(n, x) for n, x in pts]
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda p: _kernels.jones_scan(*p), pts * 4))
        assert got == expected * 4
