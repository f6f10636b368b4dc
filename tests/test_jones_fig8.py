import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_force_jones
from fig8jones import _kernels
from fig8jones.errors import DomainError, ZeroValueError
from fig8jones.jones_fig8 import (
    EvaluationPoint,
    SignedLogValue,
    colored_jones,
    critical_indices,
    f_max,
    normalized_log,
    partial_product_f,
    term_g,
)
from fig8jones.special_functions import fig8_volume


class TestSignedLogValue:
    def test_zero_roundtrip(self):
        z = SignedLogValue.zero()
        assert z.sign == 0 and z.value == 0.0

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError):
            SignedLogValue(2, 0.0)

    def test_rejects_non_finite_logabs(self):
        with pytest.raises(ValueError):
            SignedLogValue(1, math.inf)

    def test_huge_value_overflows_to_inf(self):
        assert SignedLogValue(-1, 1e4).value == -math.inf


class TestEvaluationPoint:
    def test_r_is_derived(self):
        p = EvaluationPoint(2000, 0.95 / 2000)
        assert abs(p.r - 0.95) < 1e-12

    def test_from_r(self):
        p = EvaluationPoint.from_r(100, 1.0)
        assert p.x == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            EvaluationPoint(0, 0.1)
        with pytest.raises(ValueError):
            EvaluationPoint(3, 1.0)
        with pytest.raises(ValueError):
            EvaluationPoint(3, -0.1)


class TestTermG:
    def test_hand_value_n3(self):
        # 4(sin^2(pi/3) - sin^2(pi)) = 3
        assert abs(term_g(1, EvaluationPoint(3, 1 / 3)) - 3.0) < 1e-12

    def test_hand_value_n2(self):
        assert abs(term_g(1, EvaluationPoint(2, 0.5)) - 4.0) < 1e-12

    def test_j_equal_n_is_zero(self):
        assert term_g(5, EvaluationPoint(5, 0.3123)) == 0.0

    def test_matches_paper_sine_form(self):
        # g(j) = 4 sin(r j pi/N + r pi) sin(r j pi/N - r pi) at x = r/N
        N, r = 137, 0.93
        p = EvaluationPoint.from_r(N, r)
        for j in (1, 17, 60, 136):
            expect = 4 * math.sin(r * j * math.pi / N + r * math.pi) * \
                math.sin(r * j * math.pi / N - r * math.pi)
            assert abs(term_g(j, p) - expect) < 1e-10

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            term_g(0, EvaluationPoint(4, 0.1))
        with pytest.raises(ValueError):
            term_g(5, EvaluationPoint(4, 0.1))


class TestPartialProduct:
    def test_empty_product(self):
        v = partial_product_f(0, EvaluationPoint(7, 0.123))
        assert v.sign == 1 and v.logabs == 0.0

    def test_single_factor(self):
        v = partial_product_f(1, EvaluationPoint(2, 0.5))
        assert v.sign == 1
        assert abs(v.logabs - math.log(4.0)) < 1e-12

    def test_two_factors_by_hand(self):
        v = partial_product_f(2, EvaluationPoint(3, 1 / 3))
        assert abs(v.value - 9.0) < 1e-10

    def test_matches_term_g_product(self):
        p = EvaluationPoint(50, 0.9 / 50)
        prod = 1.0
        for j in range(1, 30):
            prod *= term_g(j, p)
        v = partial_product_f(29, p)
        assert v.sign == (1 if prod > 0 else -1)
        assert abs(v.logabs - math.log(abs(prod))) < 1e-9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            partial_product_f(7, EvaluationPoint(7, 0.1))


class TestColoredJones:
    def test_color_one_is_unknot_normalization(self):
        v = colored_jones(EvaluationPoint(1, 0.77))
        assert v.sign == 1 and v.logabs == 0.0

    def test_determinant_value(self):
        v = colored_jones(EvaluationPoint(2, 0.5))
        assert v.sign == 1
        assert abs(v.logabs - math.log(5.0)) < 5e-13  # |J_2(e^{pi i})| = 5

    def test_color_three(self):
        v = colored_jones(EvaluationPoint(3, 1 / 3))
        assert abs(v.logabs - math.log(13.0)) < 5e-13

    @pytest.mark.parametrize("N", [2, 3, 5, 8, 13, 21, 34, 50])
    def test_brute_force_complex_oracle(self, N):
        for x in (0.04, 1 / 7, 0.35, 0.72, 0.9):
            z = brute_force_jones(N, x)
            assert abs(z.imag) < 1e-9 * max(1.0, abs(z))
            v = colored_jones(EvaluationPoint(N, x))
            if abs(z) < 1e-9:
                # x lands on a root of J_N; both paths agree it vanishes
                # to rounding, where the sign is noise
                assert v.sign == 0 or v.logabs < -20.0
                continue
            assert v.sign == (1 if z.real > 0 else -1)
            assert abs(v.logabs - math.log(abs(z))) < 1e-9

    def test_palindrome_exact_on_dyadic_grid(self):
        # cos is even: J(x) = J(1-x); dyadic x makes the folded phases
        # bit-identical, so the results match exactly
        for N in (11, 37, 128):
            for k in range(1, 32):
                a = colored_jones(EvaluationPoint(N, k / 64.0))
                b = colored_jones(EvaluationPoint(N, 1.0 - k / 64.0))
                assert a.sign == b.sign
                assert a.logabs == b.logabs

    @given(st.floats(1e-3, 0.5), st.integers(2, 200))
    @settings(max_examples=60, deadline=None)
    def test_palindrome_generic(self, x, N):
        # the pair must be an exact mirror: 1 - x rounds for most drawn
        # x, and J at fl(1 - x) is the value at another point, which
        # differs from J(x) by O(1) where a factor nearly vanishes or the
        # sum cancels.  y = fl(1 - x) and x' = 1 - y give x' + y == 1
        # exactly (Sterbenz), and the kernels fold both to the same
        # float, so the pair agrees bit for bit, well inside the coarse
        # bounds below
        y = 1.0 - x
        x = 1.0 - y
        a = colored_jones(EvaluationPoint(N, x))
        b = colored_jones(EvaluationPoint(N, y))
        assert a.sign == b.sign
        assert np.float64(a.logabs).tobytes() == np.float64(b.logabs).tobytes()
        if a.sign == 0 or b.sign == 0 or a.logabs < -20 or b.logabs < -20:
            assert (a.sign == 0 or a.logabs < -20)
            assert (b.sign == 0 or b.logabs < -20)
            return
        _, fm = f_max(EvaluationPoint(N, x))
        amp = math.exp(min(fm.logabs - min(a.logabs, b.logabs), 34.0))
        if amp >= 1e9:
            return  # cancellation-dominated; sign and log are noise
        assert a.sign == b.sign
        assert abs(a.logabs - b.logabs) <= 1e-4 * max(1.0, abs(a.logabs))

    def test_agrees_with_oracle(self):
        z = brute_force_jones(50, 0.931 / 50)
        v = colored_jones(EvaluationPoint(50, 0.931 / 50))
        assert v.sign == (1 if z.real > 0 else -1)
        assert abs(v.logabs - math.log(abs(z))) < 1e-9


class TestNormalizedLog:
    def test_pi_log_five(self):
        p = EvaluationPoint(2, 0.5)
        got = normalized_log(p, colored_jones(p))
        assert abs(got - math.pi * math.log(5.0)) < 1e-12

    def test_color_one_gives_zero(self):
        p = EvaluationPoint(1, 0.3)
        assert normalized_log(p, colored_jones(p)) == 0.0

    def test_kashaev_point_converges_to_volume(self):
        p = EvaluationPoint(5000, 1.0 / 5000)
        got = normalized_log(p, colored_jones(p))
        assert abs(got - fig8_volume()) < 0.03

    def test_zero_value_raises(self):
        with pytest.raises(ZeroValueError):
            normalized_log(EvaluationPoint(5, 0.2), SignedLogValue.zero())


class TestCriticalIndices:
    def test_arithmetic_example(self):
        ci = critical_indices(0.9, 1000)
        assert abs(ci.A - 1000 / 9) < 1e-9

    def test_limit_toward_one(self):
        ci = critical_indices(1.0 - 1e-9, 1000)
        assert abs(ci.B - 1000 / 6) < 1e-3
        assert abs(ci.C - 5000 / 6) < 1e-3

    def test_ordering_holds(self):
        ci = critical_indices(0.95, 2000)
        assert 0 < ci.A < ci.B < ci.C < 2000

    @pytest.mark.parametrize("r", [0.5, 5 / 6, 1.0, 1.2])
    def test_domain(self, r):
        with pytest.raises(DomainError):
            critical_indices(r, 1000)


class TestFMax:
    def test_color_one(self):
        k, v = f_max(EvaluationPoint(1, 0.3))
        assert k == 0 and v.sign == 1 and v.logabs == 0.0

    def test_peak_at_C(self):
        N, r = 2000, 0.95
        k, v = f_max(EvaluationPoint.from_r(N, r))
        C = critical_indices(r, N).C
        assert abs(k - round(C)) <= 1

    def test_integer_r_peak_at_five_sixths(self):
        N = 1000
        k, _ = f_max(EvaluationPoint(N, 1.0 / N))
        assert abs(k - round(5 * N / 6)) <= 1


def sign_structure_report(N: int, r: float):
    """Scan the paper's items (1)-(4) for 5/6 < r < 1; returns dict of bools."""
    p = EvaluationPoint.from_r(N, r)
    ci = critical_indices(r, N)
    sgnf, logf = _kernels.jones_prefix(N, p.x)
    g = np.array([term_g(j, p) for j in range(1, N)])
    below = np.arange(1, N) < ci.A
    above = np.arange(1, N) > ci.A
    ok_g = bool(np.all(g[below] < 0) and np.all(g[above] > 0))
    ks = np.arange(N)
    alt = sgnf[1:][ks[1:] < ci.A] * sgnf[:-1][ks[1:] < ci.A]
    ok_alt = bool(np.all(alt < 0))
    const = sgnf[1:][ks[1:] > ci.A + 1] * sgnf[:-1][ks[1:] > ci.A + 1]
    ok_const = bool(np.all(const > 0))
    dec = np.all(np.diff(logf[: math.floor(ci.B) + 1]) < 0)
    inc = np.all(np.diff(logf[math.ceil(ci.B) + 1: math.floor(ci.C) + 1]) > 0)
    return {"g_sign": ok_g, "alternate": ok_alt, "constant": ok_const,
            "v_shape": bool(dec and inc)}


def sandwich_holds(N: int, r: float) -> bool:
    """Claim-1 inequality f_MAX - 1 <= |J_N| <= N f_MAX, checked in logs."""
    p = EvaluationPoint.from_r(N, r)
    _, fm = f_max(p)
    v = colored_jones(p)
    upper = fm.logabs + math.log(N)
    lower = fm.logabs + math.log1p(-math.exp(min(-fm.logabs, 0.0)) if fm.logabs > 0 else 0.0)
    return lower - 1e-9 <= v.logabs <= upper + 1e-9


@pytest.mark.parametrize("N", [500, 2000])
@pytest.mark.parametrize("r", [0.87, 0.9, 0.95])
class TestGrowthStructure:
    def test_sandwich(self, N, r):
        assert sandwich_holds(N, r)

    def test_sign_structure(self, N, r):
        report = sign_structure_report(N, r)
        assert all(report.values()), report
