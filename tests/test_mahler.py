import math
import warnings
from functools import partial

import numpy as np
import pytest

from fig8jones.errors import PrecisionError, SingularityError
from fig8jones.mahler import (
    FIG8_ALEXANDER,
    LaurentPolynomialZ,
    NearUnitRootWarning,
    const_on_circle,
    homology_order,
    jones_mahler_growth,
    jones_on_circle,
    log_mahler_quadrature,
    mahler_from_roots,
    silver_williams_convergence,
)

GOLDEN_SQ = (3.0 + math.sqrt(5.0)) / 2.0  # dominant root of t^2 - 3t + 1
# 6_1: 2t - 5 + 2/t = (2t - 1)(t - 2)/t, so |H_1(M_N)| = (2^N - 1)^2
SIX_ONE_ALEXANDER = LaurentPolynomialZ(-1, (2, -5, 2))

CYCLOTOMICS = [
    LaurentPolynomialZ(0, (-1, 1)),            # t - 1
    LaurentPolynomialZ(0, (1, 1)),             # t + 1
    LaurentPolynomialZ(0, (1, 1, 1)),          # t^2 + t + 1
    LaurentPolynomialZ(0, (1, 0, 1)),          # t^2 + 1
    LaurentPolynomialZ(0, (1, 1, 1, 1, 1)),    # 5th
    LaurentPolynomialZ(0, (1, -1, 1)),         # 6th
    LaurentPolynomialZ(0, (1, 0, 0, 0, 1, 0, 0, 0, 1)),  # 12th-ish (t^8+t^4+1)
    LaurentPolynomialZ(-2, (1, 0, -1, 0, 1)),  # 12th as Laurent
]


def lucas_homology_oracle(N: int) -> int:
    """|H_1| for the figure-eight via the integer recurrence
    l_k = 3 l_{k-1} - l_{k-2} (power sums of the Alexander roots):
    the order is l_N - 2 = L_{2N} - 2 with L the Lucas numbers
    (Silver-Williams, Topology 41, 2002), computed exactly."""
    a, b = 2, 3
    for _ in range(N):
        a, b = b, 3 * b - a
    return a - 2


def random_laurent(rng) -> LaurentPolynomialZ:
    span = int(rng.integers(1, 9))
    coeffs = rng.integers(-9, 10, size=span + 1)
    coeffs[0] = coeffs[0] if coeffs[0] != 0 else 1
    coeffs[-1] = coeffs[-1] if coeffs[-1] != 0 else -1
    low = int(rng.integers(-4, 5))
    return LaurentPolynomialZ(low, tuple(int(c) for c in coeffs))


class TestLaurentPolynomial:
    def test_parse_roundtrip(self):
        f = LaurentPolynomialZ.parse("-1,3,-1@-1")
        assert f == FIG8_ALEXANDER
        assert LaurentPolynomialZ.parse(str(f)) == f

    def test_parse_default_low(self):
        f = LaurentPolynomialZ.parse("1,2,3")
        assert f.low_exponent == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            LaurentPolynomialZ(0, ())
        with pytest.raises(ValueError):
            LaurentPolynomialZ(0, (0, 1))
        with pytest.raises(ValueError):
            LaurentPolynomialZ(0, (1, 0))


class TestMahlerFromRoots:
    def test_monomial(self):
        assert mahler_from_roots(LaurentPolynomialZ(1, (1,))) == 0.0

    def test_figure_eight(self):
        m = mahler_from_roots(FIG8_ALEXANDER)
        assert abs(m - math.log(GOLDEN_SQ)) < 1e-12

    def test_linear(self):
        m = mahler_from_roots(LaurentPolynomialZ(0, (-2, 1)))
        assert abs(m - math.log(2.0)) < 1e-12

    def test_constant(self):
        assert abs(mahler_from_roots(LaurentPolynomialZ(0, (7,)))
                   - math.log(7.0)) < 1e-15

    def test_cyclotomic_flags_and_vanishes(self):
        for f in CYCLOTOMICS:
            with pytest.warns(NearUnitRootWarning):
                m = mahler_from_roots(f)
            assert abs(m) < 1e-9

    def test_multiplicativity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f, g = random_laurent(rng), random_laurent(rng)
            fg = LaurentPolynomialZ(
                f.low_exponent + g.low_exponent,
                tuple(int(c) for c in np.convolve(f.coefficients, g.coefficients)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NearUnitRootWarning)
                m_fg = mahler_from_roots(fg)
                m_sum = mahler_from_roots(f) + mahler_from_roots(g)
            assert abs(m_fg - m_sum) < 1e-9

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            mahler_from_roots(FIG8_ALEXANDER, tol=0.0)


class TestQuadrature:
    def test_constant_one_is_exact_zero(self):
        assert log_mahler_quadrature(partial(const_on_circle, 1.0), 4096) == 0.0

    def test_cross_path_figure_eight(self):
        m_q = log_mahler_quadrature(FIG8_ALEXANDER.eval_circle_batch, 1 << 16)
        assert abs(m_q - math.log(GOLDEN_SQ)) < 1e-3

    def test_cross_path_random_polys(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            f = random_laurent(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NearUnitRootWarning)
                m_r = mahler_from_roots(f)
            m_q = log_mahler_quadrature(f.eval_circle_batch, 1 << 16)
            assert abs(m_q - m_r) < 1e-3

    def test_jones_sampler_self_convergence(self):
        a = log_mahler_quadrature(partial(jones_on_circle, 5), 1 << 12)
        b = log_mahler_quadrature(partial(jones_on_circle, 5), 1 << 13)
        assert math.isfinite(a)
        assert abs(a - b) < 1e-2

    def test_jones_on_circle_rejects_color_zero(self):
        with pytest.raises(ValueError):
            jones_on_circle(0, np.array([0.25]))

    def test_zero_sample_refinement(self):
        # t - 1 vanishes at x = 0; midpoint grids dodge it, so force a
        # hitting grid via an even n and a shifted sampler
        def shifted_root(xs):
            return LaurentPolynomialZ(0, (-1, 1)).eval_circle_batch(xs - 0.5 / 4096)

        m = log_mahler_quadrature(shifted_root, 4096)
        assert abs(m) < 1e-2  # m(t-1) = 0, one refined panel

        # three zero panels: their 24 sub-midpoints take one second batch
        # call, and each panel averages its live samples exactly as a
        # panel-by-panel refinement does (panel 1000 loses one
        # sub-sample, panel 2050 all eight)
        n = 4096
        sub = (np.arange(8) + 0.5) / 8.0
        zeros = np.concatenate((
            (np.array([3, 1000, 2050]) + 0.5) / n,
            (1000 + sub[:1]) / n,
            (2050 + sub) / n,
        ))

        calls = []

        def three_zero(xs):
            calls.append(len(xs))
            s, l = FIG8_ALEXANDER.eval_circle_batch(xs)
            s[np.isin(xs, zeros)] = 0
            return s, l

        def per_panel(sample):
            s, l = sample((np.arange(n) + 0.5) / n)
            vals = l.astype(float)
            for i in np.nonzero(s == 0)[0]:
                ss, sl = sample((i + sub) / n)
                live = ss != 0
                vals[i] = np.mean(sl[live]) if np.any(live) else 0.0
            return float(np.mean(vals))

        m = log_mahler_quadrature(three_zero, n)
        assert len(calls) == 2
        assert m == per_panel(three_zero)

    def test_identically_zero_raises(self):
        with pytest.raises(SingularityError):
            log_mahler_quadrature(partial(const_on_circle, 0.0), 256)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            log_mahler_quadrature(partial(const_on_circle, 1.0), 1)


class TestHomologyOrder:
    def test_hand_values(self):
        assert homology_order(FIG8_ALEXANDER, 2) == 5
        assert homology_order(FIG8_ALEXANDER, 3) == 16
        assert homology_order(FIG8_ALEXANDER, 4) == 45

    @pytest.mark.parametrize("N", list(range(2, 301)) + [500])
    def test_against_lucas_oracle(self, N):
        assert homology_order(FIG8_ALEXANDER, N) == lucas_homology_oracle(N)

    @pytest.mark.parametrize("N", list(range(2, 301)))
    def test_non_monic_closed_form(self, N):
        assert homology_order(SIX_ONE_ALEXANDER, N) == (2**N - 1) ** 2

    def test_float_path_agrees_when_certifiable(self):
        # the float path either certifies the right order or refuses,
        # and it never refuses a small cover
        for N in range(2, 61):
            try:
                via_float = homology_order(FIG8_ALEXANDER, N, method="float")
            except PrecisionError:
                assert N > 20
                continue
            assert via_float == lucas_homology_oracle(N)

    def test_dual_route_random_polynomials(self):
        # complex product vs integer determinant: two independent paths
        # over assorted degrees, small N keeps the float path certifiable
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 25:
            span = int(rng.integers(1, 7))
            coeffs = rng.integers(-3, 4, size=span + 1)
            coeffs[0] = coeffs[0] or 1
            coeffs[-1] = coeffs[-1] or 1
            f = LaurentPolynomialZ(int(rng.integers(-2, 3)),
                                   tuple(int(c) for c in coeffs))
            N = int(rng.integers(2, 9))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                try:
                    via_float = homology_order(f, N, method="float")
                except PrecisionError:
                    continue
                assert via_float == homology_order(f, N, method="exact")
            checked += 1

    @pytest.mark.parametrize("N", [200, 35])
    def test_float_path_refuses_beyond_window(self, N):
        # at N = 35 the product is about 4.3e14, below 2^52, and rounds
        # to an order one too large
        with pytest.raises(PrecisionError):
            homology_order(FIG8_ALEXANDER, N, method="float")

    def test_never_vanishes_up_to_500(self):
        # no root of the figure-eight Alexander polynomial is a root of
        # unity, so the product never vanishes
        for N in list(range(2, 120)) + [250, 500]:
            assert homology_order(FIG8_ALEXANDER, N) > 0

    def test_t_minus_one_gives_N(self):
        f = LaurentPolynomialZ(0, (-1, 1))
        with pytest.warns(UserWarning):
            assert homology_order(f, 7) == 7

    def test_root_of_unity_gives_zero(self):
        f = LaurentPolynomialZ(0, (1, 1))  # t + 1 vanishes at zeta_2
        with pytest.warns(UserWarning):
            assert homology_order(f, 4) == 0

    def test_non_alexander_warns(self):
        with pytest.warns(UserWarning):
            homology_order(LaurentPolynomialZ(0, (3,)), 3)

    def test_rejects_small_N(self):
        with pytest.raises(ValueError):
            homology_order(FIG8_ALEXANDER, 1)


class TestSilverWilliams:
    def test_determinant_point(self):
        (rec,) = silver_williams_convergence(FIG8_ALEXANDER, [2])
        assert abs(rec.finite_value - math.log(5.0) / 2.0) < 1e-12

    def test_hundred_fold_cover(self):
        (rec,) = silver_williams_convergence(FIG8_ALEXANDER, [100])
        assert abs(rec.delta) < 0.02

    def test_non_monic_against_roots(self):
        # m(6_1) = log 4 and log|H_1|/N = 2 log(2^N - 1)/N
        (rec,) = silver_williams_convergence(SIX_ONE_ALEXANDER, [100])
        assert abs(rec.predicted - math.log(4.0)) < 1e-12
        assert abs(rec.delta) < 1e-12

    def test_unknot(self):
        (rec,) = silver_williams_convergence(LaurentPolynomialZ(0, (1,)), [10])
        assert rec.finite_value == 0.0 and rec.predicted == 0.0

    def test_vanishing_order_is_flagged(self):
        with pytest.warns(UserWarning):
            (rec,) = silver_williams_convergence(
                LaurentPolynomialZ(0, (1, 1)), [4])
        assert rec.flagged

    def test_monotone_convergence_trend(self):
        # convergence is alpha^(-2N)-fast and floors at rounding by N ~ 50
        recs = silver_williams_convergence(FIG8_ALEXANDER, [3, 6, 10])
        deltas = [abs(rec.delta) for rec in recs]
        assert deltas[0] > deltas[1] > deltas[2]


class TestJonesGrowth:
    def test_color_one_vanishes(self):
        ((N, m, ratio),) = jones_mahler_growth([1], 256)
        assert N == 1 and m == 0.0 and math.isnan(ratio)

    def test_rows_and_nonnegativity(self):
        rows = jones_mahler_growth([2, 3, 5, 8], 1 << 12)
        assert [row[0] for row in rows] == [2, 3, 5, 8]
        for _, m, ratio in rows:
            # observed: the growth measure stays nonnegative (recorded,
            # not a theorem); allow quadrature slack
            assert m > -1e-6
            assert math.isfinite(ratio)
