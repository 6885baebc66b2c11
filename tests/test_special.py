"""Jacobi parameters and norms against identities, quadrature and mpmath."""

import math

import mpmath
import pytest
from scipy.integrate import quad
from scipy.special import eval_jacobi

from tanhspec import JacobiParams
from tanhspec.special import log_jacobi_norm

from oracles import jacobi_norm, log_norm, norm_ratio

PARAM_GRID = [-0.9, -0.5, 0.0, 0.5, 2.0, 7.3]


class TestJacobiParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="alpha must exceed -1"):
            JacobiParams(-1.0, 0.0)
        with pytest.raises(ValueError, match="beta must exceed -1"):
            JacobiParams(0.0, -1.5)
        JacobiParams(-0.999, 7.3)


def _norm_quadrature(a: float, b: float, m: int) -> float:
    # independent norm: scipy Jacobi values against the weight
    val, _ = quad(
        lambda t: (1 - t) ** a * (1 + t) ** b * eval_jacobi(m, a, b, t) ** 2,
        -1.0,
        1.0,
        limit=200,
    )
    return val


class TestJacobiNorm:
    def test_legendre_values(self):
        p = JacobiParams(0.0, 0.0)
        assert math.isclose(jacobi_norm(p, 0), 2.0, rel_tol=1e-14)
        assert math.isclose(jacobi_norm(p, 1), 2.0 / 3.0, rel_tol=1e-14)

    def test_chebyshev_mass(self):
        # brute-force quadrature of the arcsine weight gives pi
        oracle, _ = quad(lambda t: (1 - t * t) ** -0.5, -1.0, 1.0)
        assert math.isclose(oracle, math.pi, rel_tol=1e-9)
        assert math.isclose(jacobi_norm(JacobiParams(-0.5, -0.5), 0), math.pi, rel_tol=1e-13)

    @pytest.mark.parametrize("a", [-0.9, 0.0, 2.0])
    @pytest.mark.parametrize("b", [-0.5, 0.5, 7.3])
    def test_against_quadrature(self, a, b):
        p = JacobiParams(a, b)
        for m in (0, 1, 2, 5, 9):
            assert math.isclose(jacobi_norm(p, m), _norm_quadrature(a, b, m), rel_tol=1e-8)

    @pytest.mark.parametrize("a,b", [(-0.99, 0.3), (-0.99, -0.99), (80.0, 80.0), (5.0, 3.0)])
    def test_against_mpmath(self, a, b):
        # 30-digit Gamma closed form; math.lgamma near 280 is off by about
        # 1e-13 absolute, which sets the tolerance.  The library holds ln g_0;
        # the oracle's lgamma formula gives the higher degrees
        p = JacobiParams(a, b)
        with mpmath.workdps(30):
            ma, mb = mpmath.mpf(a), mpmath.mpf(b)
            for m in (0, 1, 2, 7, 40, 200):
                ref = (
                    2 ** (ma + mb + 1) * mpmath.gamma(m + ma + 1) * mpmath.gamma(m + mb + 1)
                    / (mpmath.factorial(m) * (2 * m + ma + mb + 1) * mpmath.gamma(m + ma + mb + 1))
                )
                got = log_jacobi_norm(p) if m == 0 else log_norm(p, m)
                assert abs(got - float(mpmath.log(ref))) <= 1e-12
                assert math.isclose(jacobi_norm(p, m), float(ref), rel_tol=1e-12)

    @pytest.mark.parametrize("a,b", [
        (7.0, 7.0), (7.0, 12.0), (30.0, 7.5), (7.0, 30.0), (80.0, 80.0), (80.0, 1e3), (20.0, 1e3), (1e3, 1e3),
        (1e3, 1.1e3), (4914.9, 4622.8), (1e4, 1e4), (1e4, 7.0), (7.0, 1e4), (1e5, 1e5), (1e5, 7.0), (1e5, 3e4),
        (7.0, 1e6), (1e6, 1e6), (1e6, 7.5), (1e6, 3e5), (6.9, 7.5), (6.0, 6.0), (6.9, 1e12), (1e12, 3.0),
        (-0.9, 1e8), (1e300, 0.0),
    ])
    def test_mass_against_mpmath(self, a, b):
        # ln g_0 = (a+b+1) ln 2 + ln B(a+1, b+1), Stirling's form on arguments lifted to 8: lgamma's terms of
        # (1e4, 1e4) are 8e4 and cancel to -4, which cost 7.2e-12, and those of (1e12, 3) 2.7e13, which cost
        # 2.7e-3 absolute; 40-digit closed form
        with mpmath.workdps(40):
            ma, mb = mpmath.mpf(a), mpmath.mpf(b)
            want = (ma + mb + 1) * mpmath.log(2) + mpmath.log(mpmath.beta(ma + 1, mb + 1))
            assert abs(log_jacobi_norm(JacobiParams(a, b)) - want) <= 2e-15 * max(1.0, abs(float(want)))

    def test_positive_to_degree_200(self):
        for a in PARAM_GRID:
            for b in PARAM_GRID:
                p = JacobiParams(a, b)
                for m in range(0, 201, 7):
                    g = jacobi_norm(p, m)
                    assert math.isfinite(g) and g > 0.0


class TestNormRatio:
    def test_frozen_examples(self):
        p = JacobiParams(0.0, 0.0)
        assert math.isclose(norm_ratio(p, 0, +1), math.sqrt(1.0 / 3.0), rel_tol=1e-14)
        assert math.isclose(norm_ratio(p, 1, -1), math.sqrt(3.0), rel_tol=1e-14)

    def test_chebyshev_t_ratio(self):
        # quadrature oracle: g_1 = pi/8 and g_2 = 9 pi/128 for the arcsine
        # pair, so sqrt(g_2/g_1) = 3/4 (the Jacobi normalisation, not the
        # unit-leading T_m one)
        g1 = _norm_quadrature(-0.5, -0.5, 1)
        g2 = _norm_quadrature(-0.5, -0.5, 2)
        assert math.isclose(math.sqrt(g2 / g1), 0.75, rel_tol=1e-8)
        assert math.isclose(norm_ratio(JacobiParams(-0.5, -0.5), 1, +1), 0.75, rel_tol=1e-14)

    def test_matches_norm_quotients(self):
        for a in PARAM_GRID:
            for b in PARAM_GRID:
                p = JacobiParams(a, b)
                for m in range(0, 30):
                    want = math.sqrt(jacobi_norm(p, m + 1) / jacobi_norm(p, m))
                    assert math.isclose(norm_ratio(p, m, +1), want, rel_tol=1e-12)
                    if m >= 1:
                        want = math.sqrt(jacobi_norm(p, m - 1) / jacobi_norm(p, m))
                        assert math.isclose(norm_ratio(p, m, -1), want, rel_tol=1e-12)

    def test_removable_point(self):
        # alpha + beta = -1 puts the naive closed form at 0/0 for m = 0
        p = JacobiParams(-0.5, -0.5)
        want = math.sqrt(jacobi_norm(p, 1) / jacobi_norm(p, 0))
        assert math.isclose(norm_ratio(p, 0, +1), want, rel_tol=1e-13)
        p2 = JacobiParams(-0.7, -0.3)
        want2 = math.sqrt(jacobi_norm(p2, 1) / jacobi_norm(p2, 0))
        assert math.isclose(norm_ratio(p2, 0, +1), want2, rel_tol=1e-13)

    def test_index_error(self):
        with pytest.raises(ValueError):
            norm_ratio(JacobiParams(0.0, 0.0), 0, -1)
