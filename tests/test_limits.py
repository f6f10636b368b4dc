import math

import numpy as np
import pytest

from fig8jones import _kernels, limits
from fig8jones.errors import DomainError
from fig8jones.jones_fig8 import EvaluationPoint, colored_jones, normalized_log
from fig8jones.limits import (
    ConvergenceRecord,
    LimitBranch,
    PiecewiseLimitSpec,
    V_SPEC,
    W_SPEC,
    convergence_table,
    limit_theorem3,
    limit_V,
    limit_W,
    mahler_growth_integral,
)
from fig8jones.special_functions import ThetaVariant, fig8_volume, lobachevsky

VOLUME = 2.029883213

BREAKPOINTS_V = (1.0 / 6.0, 0.75)
BREAKPOINTS_W = (0.25, 0.75)


def conv_grid(lo: float, step: float = 0.01) -> list[float]:
    """r grid of a conv figure, built as the CLI builds it."""
    n = round(1.0 / step)
    return [lo + k * step for k in range(n + 1)]


# (grid, N): the conv1, conv2, conv5 and conv8000 figures, and a grid that
# crosses r = 1 and the integers
PREDICTION_GRIDS = [
    (conv_grid(0.0), 2000),
    (conv_grid(1.0), 2000),
    (conv_grid(4.0), 2000),
    (conv_grid(4.0), 8000),
    ([0.5 + 0.25 * k for k in range(11)], 100),
]


def finite_n_oracle(N: int, r: float) -> float:
    """The quantity the limit curves predict, at finite N."""
    p = EvaluationPoint.from_r(N, r)
    return normalized_log(p, colored_jones(p))


class TestLimitTheorem3:
    def test_integer_one_is_volume(self):
        assert abs(limit_theorem3(1.0) - VOLUME) < 1e-8

    def test_integer_two_is_half_volume(self):
        assert abs(limit_theorem3(2.0) - VOLUME / 2.0) < 1e-8

    def test_integer_five(self):
        assert abs(limit_theorem3(5.0) - fig8_volume() / 5.0) < 1e-12

    def test_non_integer_against_finite_N(self):
        # r * limit = the 2 r pi log|J|/N limit; finite-N error ~ log N/N
        r = 0.95
        finite = finite_n_oracle(20000, r)
        assert abs(finite - r * limit_theorem3(r)) < 0.05

    def test_corollary_continuity_at_one(self):
        vol = fig8_volume()
        gaps_up = [abs(limit_theorem3(1.0 + e) - vol) for e in (1e-2, 1e-3, 1e-4)]
        gaps_dn = [abs(limit_theorem3(1.0 - e) - vol) for e in (1e-2, 1e-3, 1e-4)]
        assert gaps_up[0] > gaps_up[1] > gaps_up[2]
        assert gaps_dn[0] > gaps_dn[1] > gaps_dn[2]
        assert gaps_up[2] < 1e-3 and gaps_dn[2] < 1e-3

    @pytest.mark.parametrize("r", [0.5, 0.8, 7.0 / 6.0 + 1e-6, -1.0, 0.0])
    def test_domain(self, r):
        with pytest.raises(DomainError):
            limit_theorem3(r)


class TestLimitCurves:
    def test_V_zero_branch(self):
        assert float(limit_V(0.1)) == 0.0
        assert float(limit_V(0.0)) == 0.0

    def test_V_at_one_is_volume(self):
        assert abs(float(limit_V(1.0)) - VOLUME) < 1e-8

    def test_V_vanishes_at_one_sixth(self):
        # theta_plus(1/6) = 0 makes the branch value vanish analytically
        assert abs(float(limit_V(1.0 / 6.0))) < 1e-6

    def test_W_endpoints_are_volume(self):
        assert abs(float(limit_W(0.0)) - VOLUME) < 1e-8
        assert abs(float(limit_W(1.0)) - VOLUME) < 1e-8

    def test_W_at_zero_matches_finite_N_above_integer(self):
        # the branch value continues the r -> 1+ finite-N data
        finite = finite_n_oracle(8000, 1.01)
        assert abs(finite - float(limit_W(0.01))) < 0.05

    @pytest.mark.parametrize("curve,breaks", [(limit_V, BREAKPOINTS_V),
                                              (limit_W, BREAKPOINTS_W)])
    def test_continuity_at_breakpoints(self, curve, breaks):
        for b in breaks:
            jump = abs(float(curve(b + 1e-12)) - float(curve(b - 1e-12)))
            assert jump < 1e-8

    def test_theorem3_equals_V_branch(self):
        for r in np.linspace(5.0 / 6.0 + 1e-6, 1.0 - 1e-9, 57):
            assert abs(r * limit_theorem3(float(r)) - float(limit_V(float(r)))) < 1e-10

    def test_vectorized(self):
        xs = np.linspace(0.0, 1.0, 101)
        vs = limit_V(xs)
        assert vs.shape == xs.shape
        assert np.all(np.isfinite(vs))

    @pytest.mark.parametrize("curve", [limit_V, limit_W])
    @pytest.mark.parametrize("x", [-0.01, 1.01, 5.0])
    def test_domain(self, curve, x):
        with pytest.raises(DomainError):
            curve(x)

    @pytest.mark.parametrize("curve", [limit_V, limit_W])
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_raise(self, curve, x):
        # a NaN fails every comparison, so no branch took it and the
        # curve read uninitialised memory there
        with pytest.raises(DomainError):
            curve(x)
        with pytest.raises(DomainError):
            curve(np.array([0.5, x, 0.9]))

    def test_middle_branch_equals_printed_shifted_form(self):
        # scale -2 with theta_plus and no shift == scale +2 of the
        # pi/2-shifted difference at the complementary angle pi - theta_plus
        from fig8jones.special_functions import theta_r
        xs = np.linspace(0.2, 0.74, 41)
        tp = theta_r(xs, ThetaVariant.PLUS_HALF)
        phi = np.pi - tp
        printed = 2.0 * (lobachevsky(xs * np.pi + phi / 2 - np.pi / 2)
                         - lobachevsky(xs * np.pi - phi / 2 - np.pi / 2))
        assert np.max(np.abs(limit_V(xs) - printed)) < 1e-12

    def test_calibration_against_finite_N_grid(self):
        # the finite-N oracle is the arbiter of the branch scales; the
        # x1-scaled table would sit ~1 below the data on [0.3, 0.7]
        for r in (0.3, 0.45, 0.55, 0.7):
            finite = finite_n_oracle(4000, r)
            assert abs(finite - float(limit_V(r))) < 0.1
            assert abs(finite - 0.5 * float(limit_V(r))) > 0.3


class TestPiecewiseSpec:
    def test_tables_partition_unit_interval(self):
        for spec in (V_SPEC, W_SPEC):
            assert spec.branches[0].lo == 0.0
            assert spec.branches[-1].hi == 1.0

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            PiecewiseLimitSpec((
                LimitBranch(0.0, 0.5, None, 0.0),
                LimitBranch(0.6, 1.0, ThetaVariant.MINUS_HALF, 2.0),
            ))

    def test_branch_variant_covers_interval(self):
        # every non-trivial branch evaluates without domain errors
        for spec in (V_SPEC, W_SPEC):
            xs = np.linspace(0.0, 1.0, 997)
            vals = spec.evaluate(xs)
            assert np.all(np.isfinite(vals))


class TestConvergenceTable:
    def test_small_r_predicts_zero(self):
        (rec,) = convergence_table([0.05], 2000)
        assert rec.predicted == 0.0
        assert abs(rec.finite_value) < 0.01
        assert not rec.flagged

    def test_kashaev_point(self):
        (rec,) = convergence_table([1.0], 2000)
        assert abs(rec.delta) <= 0.05

    def test_above_one_uses_W(self):
        (rec,) = convergence_table([1.3], 2000)
        assert abs(rec.predicted - float(limit_W(0.3))) < 1e-12

    def test_integer_r_above_one(self):
        (rec,) = convergence_table([3.0], 2000)
        assert abs(rec.predicted - float(limit_W(0.0))) < 1e-12

    def test_record_fields(self):
        recs = convergence_table([0.4, 0.9], 500)
        assert [rec.r for rec in recs] == [0.4, 0.9]
        for rec in recs:
            assert rec.N == 500
            assert rec.delta == rec.finite_value - rec.predicted

    def test_vanishing_point_is_flagged(self, monkeypatch):
        def fake_grid(Ns, xs):
            return (np.zeros(len(xs), dtype=np.int8),
                    np.full(len(xs), -np.inf))

        monkeypatch.setattr(_kernels, "jones_grid", fake_grid)
        (rec,) = convergence_table([0.5], 100)
        assert rec.flagged and math.isnan(rec.finite_value)

    @pytest.mark.parametrize("rs, N", PREDICTION_GRIDS)
    def test_predicted_column_matches_scalar_reference(self, rs, N):
        # one vectorized call per curve gives the bits of a scalar call
        # per point
        ref = [float(limit_V(r)) if r <= 1.0 else float(limit_W(r - math.floor(r)))
               for r in rs]
        got = [rec.predicted for rec in convergence_table(rs, N)]
        assert np.array_equal(np.array(got), np.array(ref))
        assert all(type(p) is float for p in got)

    @pytest.mark.parametrize("rs, N", PREDICTION_GRIDS)
    def test_one_limit_call_per_curve(self, rs, N, monkeypatch):
        calls = {"V": 0, "W": 0}

        def spy(name, fn):
            def wrapped(x):
                calls[name] += 1
                return fn(x)
            return wrapped

        monkeypatch.setattr(limits, "limit_V", spy("V", limits.limit_V))
        monkeypatch.setattr(limits, "limit_W", spy("W", limits.limit_W))
        convergence_table(rs, N)
        assert calls["V"] == (min(rs) <= 1.0)
        assert calls["W"] == (max(rs) > 1.0)

    def test_empty_grid(self, monkeypatch):
        monkeypatch.setattr(limits, "limit_V", None)
        monkeypatch.setattr(limits, "limit_W", None)
        assert convergence_table([], 100) == []

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            convergence_table([0.5], 1)
        with pytest.raises(DomainError):
            convergence_table([150.0], 100)
        with pytest.raises(DomainError):
            convergence_table([-0.5], 100)


class TestGrowthIntegral:
    def test_paper_value(self):
        assert abs(mahler_growth_integral(1 << 16) - 1.450191516) < 1e-3

    def test_self_convergence(self):
        a = mahler_growth_integral(1 << 16)
        b = mahler_growth_integral(1 << 17)
        assert abs(a - b) < 1e-6

    def test_bounded_by_peak(self):
        assert mahler_growth_integral(1 << 12) <= fig8_volume() + 1e-12

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            mahler_growth_integral(1)


class TestConvergenceRecordType:
    def test_delta_invariant(self):
        rec = ConvergenceRecord(10, 0.5, 1.25, 1.0)
        assert rec.delta == 0.25
