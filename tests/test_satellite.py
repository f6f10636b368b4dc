import math

import pytest

from fig8jones.jones_fig8 import EvaluationPoint, colored_jones, normalized_log
from fig8jones.satellite import ProfileRow, argmax_color, cable_profile


class TestCableProfile:
    def test_smallest_case_rows(self):
        profile = cable_profile(2, 1.0)
        assert [row.c for row in profile.rows] == [1, 3]
        assert profile.rows[0].value == 0.0  # J_1 == 1

    def test_rows_sorted_and_odd(self):
        profile = cable_profile(25, 0.95)
        cs = [row.c for row in profile.rows]
        assert cs == sorted(cs)
        assert all(c % 2 == 1 for c in cs)
        assert cs[-1] == 49

    def test_c_equals_N_reproduces_normalized_log_noninteger_r(self):
        # same kernel call, so bitwise equality: value = normalized/r
        N, r = 101, 0.95
        profile = cable_profile(N, r)
        row = next(row for row in profile.rows if row.c == N)
        p = EvaluationPoint(N, r / N)
        assert row.value == normalized_log(p, colored_jones(p)) / r

    def test_c_equals_N_reproduces_normalized_log_integer_r(self):
        # integer r routes through the exact-phase kernel; the float
        # kernel evaluates the same product up to phase rounding
        N = 101
        profile = cable_profile(N, 1.0)
        row = next(row for row in profile.rows if row.c == N)
        p = EvaluationPoint(N, 1.0 / N)
        ref = normalized_log(p, colored_jones(p))
        assert abs(row.value - ref) < 1e-9

    def test_dead_colors_at_root_of_unity(self):
        # at t = exp(2 pi i/N) a factor of J_{N +- 1} vanishes exactly at
        # j = 1, truncating the sum to J = 1; same for c = 2N - 1
        N = 800
        profile = cable_profile(N, 1.0)
        by_c = {row.c: row for row in profile.rows}
        assert by_c[N - 1].value == 0.0
        assert by_c[N + 1].value == 0.0
        assert by_c[2 * N - 1].value == 0.0
        assert not by_c[N - 1].flagged

    def test_live_region_traces_V_over_r(self):
        # for c below N/(2r) the profile follows V(c r/N)/r within the
        # finite-color error
        from fig8jones.limits import limit_V
        N, r = 800, 1.0
        profile = cable_profile(N, r)
        for row in profile.rows:
            rho = row.c * r / N
            if 0.3 <= rho <= 0.45:
                # finite-color error at c ~ 250..360 runs to ~0.26
                assert abs(row.value - float(limit_V(rho)) / r) < 0.35

    def test_validation(self):
        with pytest.raises(ValueError):
            cable_profile(1, 1.0)
        with pytest.raises(ValueError):
            cable_profile(10, 0.0)
        with pytest.raises(ValueError):
            cable_profile(10, 10.0)
        # the range test alone turns away nan and inf
        for r in (math.nan, math.inf):
            with pytest.raises(ValueError, match=r"^r must satisfy 0 < r < N, got "):
                cable_profile(10, r)


class TestArgmaxColor:
    def test_tie_resolves_to_larger_color(self):
        # N=2, r=1: J_1 = J_3 = 1 exactly (both values 0)
        assert argmax_color(2, 1.0) == 3

    def test_color_one_is_never_flagged(self):
        # J_1 = 1 on both routes, so every profile has an unflagged row
        # for the maximum to take
        for N, r in ((2, 1.0), (800, 1.0), (800, 1.5), (3000, 3.0)):
            assert cable_profile(N, r).rows[0] == ProfileRow(1, 0.0), (N, r)

    def test_odd_N_at_integer_r_peaks_at_N(self):
        # c = N is the one live color carrying the full Kashaev growth
        assert argmax_color(101, 1.0) == 101

    def test_noninteger_r_peaks_near_N_over_r(self):
        # the profile traces the limit curves in rho = c r/N, whose
        # maximum sits at rho = 1, i.e. c ~ N/r
        for N, r in ((100, 0.95), (400, 0.95), (100, 1.05)):
            c_star = argmax_color(N, r)
            assert abs(c_star - N / r) <= 3.0

    @pytest.mark.xfail(
        reason="stated contract |argmax - N| <= 1 at r = 1 (even N) and "
               "r = 0.95/0.98/1.05 contradicts the exact evaluation: at "
               "r = 1 the colors c = N +- 1 give J_c = 1 exactly (dead "
               "rows, value 0) and the live profile peaks near c = N/2; "
               "for non-integer r the peak sits near c = N/r (e.g. "
               "c* = 103 at N = 100, r = 0.98).  The c = N observation "
               "only emerges in the r -> 1 limit; a float phase kernel "
               "reproduces it spuriously through rounding noise past "
               "the vanishing factor.",
        strict=True,
    )
    def test_spec_contract_argmax_within_one_of_N(self):
        cases = [(N, r) for N in (100, 400, 800) for r in (0.95, 1.0, 1.05)]
        cases.append((100, 0.98))
        for N, r in cases:
            assert abs(argmax_color(N, r) - N) <= 1
