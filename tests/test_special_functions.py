import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import zeta

import fig8jones
from fig8jones.errors import DomainError
from fig8jones.special_functions import (
    _ZETA_EVEN,
    ThetaVariant,
    fig8_volume,
    lobachevsky,
    theta_r,
)

VOLUME = 2.029883213


def lobachevsky_quad_oracle(theta: float) -> float:
    """Independent oracle: adaptive quadrature of -log|2 sin u|,
    integrated piecewise between the integrable log singularities."""
    if theta == 0.0:
        return 0.0
    lo, hi = min(0.0, theta), max(0.0, theta)
    cuts = [lo] + [k * math.pi for k in range(-50, 51) if lo < k * math.pi < hi] + [hi]
    total = 0.0
    with np.errstate(divide="ignore"):
        for a, b in zip(cuts[:-1], cuts[1:]):
            val, err = quad(lambda u: -np.log(np.abs(2.0 * np.sin(u))), a, b,
                            limit=800, epsabs=1e-13, epsrel=1e-13)
            assert err < 5e-11, (a, b, err)
            total += val
    return total


class TestZetaTable:
    def test_matches_scipy_bit_for_bit(self):
        # scipy is the independent oracle; too few fixed-point bits in
        # the recurrence would change the last bit of some entry
        assert np.array_equal(_ZETA_EVEN, zeta(2.0 * np.arange(1, 81)))

    def test_cli_import_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(fig8jones.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, fig8jones.cli; print(sorted(m for m in sys.modules"
             " if m.split('.')[0] == 'scipy'))"],
            env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestLobachevsky:
    def test_zero(self):
        assert lobachevsky(0.0) == 0.0

    def test_pi_is_zero(self):
        # odd + pi-periodic forces Lambda(pi) = Lambda(0) = 0
        assert abs(lobachevsky(math.pi)) < 1e-12

    def test_pi_over_six_vs_quadrature_oracle(self):
        oracle = lobachevsky_quad_oracle(math.pi / 6)
        assert abs(oracle - 0.5074708032048268) < 1e-10  # frozen from oracle
        assert abs(lobachevsky(math.pi / 6) - oracle) < 1e-10

    def test_four_lambda_pi_six_is_volume(self):
        assert abs(4.0 * lobachevsky(math.pi / 6) - VOLUME) < 1e-8

    def test_against_oracle_on_grid(self):
        thetas = np.linspace(0.0, 2.0 * np.pi, 100)
        vals = lobachevsky(thetas)
        for t, v in zip(thetas, vals):
            assert abs(v - lobachevsky_quad_oracle(float(t))) < 1e-9

    def test_slow_region_near_pi_multiples(self):
        # reduced-argument series keeps full accuracy near k*pi
        for t in (math.pi - 1e-6, math.pi + 1e-6, 2 * math.pi - 1e-5):
            assert abs(lobachevsky(t) - lobachevsky_quad_oracle(t)) < 1e-9

    def test_vectorized_matches_scalar(self):
        thetas = np.array([0.3, 1.2, 2.9, -0.7])
        vals = lobachevsky(thetas)
        for t, v in zip(thetas, vals):
            assert v == lobachevsky(float(t))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            lobachevsky(math.inf)

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_odd(self, theta):
        assert abs(lobachevsky(theta) + lobachevsky(-theta)) < 1e-12

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_pi_periodic(self, theta):
        assert abs(lobachevsky(theta + math.pi) - lobachevsky(theta)) < 1e-12


class TestThetaR:
    def test_integer_r_gives_pi_third(self):
        assert abs(theta_r(1.0, ThetaVariant.MINUS_HALF) - math.pi / 3) < 1e-15

    def test_five_sixth_gives_pi_half(self):
        assert abs(theta_r(5.0 / 6.0, ThetaVariant.MINUS_HALF) - math.pi / 2) < 1e-7

    def test_one_sixth_plus_variant_gives_zero(self):
        assert theta_r(1.0 / 6.0, ThetaVariant.PLUS_HALF) < 1e-7

    @pytest.mark.parametrize("variant,r_ok", [
        (ThetaVariant.MINUS_HALF, np.concatenate([np.linspace(0, 1 / 3, 40),
                                                  np.linspace(2 / 3, 1, 40)])),
        (ThetaVariant.PLUS_HALF, np.linspace(1 / 6, 5 / 6, 80)),
    ])
    def test_defining_equation_and_range(self, variant, r_ok):
        th = theta_r(r_ok, variant)
        assert np.all((th >= 0.0) & (th <= np.pi))
        resid = np.cos(th) - (np.cos(2 * np.pi * r_ok) + variant.offset)
        assert np.max(np.abs(resid)) < 1e-12

    @pytest.mark.parametrize("variant,r_bad", [
        (ThetaVariant.MINUS_HALF, 0.5),
        (ThetaVariant.MINUS_HALF, 0.4),
        (ThetaVariant.PLUS_HALF, 0.05),
        (ThetaVariant.PLUS_HALF, 0.95),
    ])
    def test_domain_error_carries_interval(self, variant, r_bad):
        with pytest.raises(DomainError) as err:
            theta_r(r_bad, variant)
        assert err.value.interval is not None


class TestVolume:
    def test_value(self):
        assert abs(fig8_volume() - VOLUME) < 1e-8

    def test_consistency_with_five_pi_six(self):
        # integer-r derivation evaluates -(2/r pi) Lambda(5 pi/6)
        assert abs(fig8_volume() + 4.0 * lobachevsky(5 * math.pi / 6)) < 1e-10

    def test_consistency_with_duplication(self):
        # classical Lambda(pi/6) = (3/2) Lambda(pi/3)
        assert abs(fig8_volume() - 6.0 * lobachevsky(math.pi / 3)) < 1e-10
        assert abs(6.0 * lobachevsky(math.pi / 3)
                   - lobachevsky_quad_oracle(math.pi / 3) * 6.0) < 1e-9
