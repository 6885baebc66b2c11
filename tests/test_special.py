"""Gamma-family functions and Jacobi norms against identities and scipy."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import eval_jacobi, loggamma as scipy_loggamma

from tanhspec import JacobiParams, log_gamma_complex
from tanhspec.special import log_jacobi_norm

from oracles import jacobi_norm, norm_ratio

PARAM_GRID = [-0.9, -0.5, 0.0, 0.5, 2.0, 7.3]


class TestLogGammaComplex:
    def test_trivial_values(self):
        assert abs(log_gamma_complex(1.0 + 0.0j)) <= 1e-14
        assert abs(log_gamma_complex(0.5 + 0.0j) - 0.5 * math.log(math.pi)) <= 1e-14

    def test_carlitz_modulus(self):
        # |Gamma(1/2 + i)|^2 = pi / cosh(pi), a reflection-formula consequence
        val = 2.0 * log_gamma_complex(0.5 + 1.0j).real
        assert math.isclose(math.exp(val), math.pi / math.cosh(math.pi), rel_tol=1e-13)

    def test_recurrence_invariant(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            z = complex(rng.uniform(1e-3, 10.0), rng.uniform(-8.0, 8.0))
            lhs = cmath.exp(log_gamma_complex(z + 1.0) - log_gamma_complex(z))
            assert abs(lhs - z) <= 1e-10 * abs(z)

    def test_conjugate_symmetry_bitwise(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = complex(rng.uniform(1e-3, 8.0), rng.uniform(0.01, 12.0))
            w = log_gamma_complex(z)
            wc = log_gamma_complex(z.conjugate())
            assert w.real == wc.real and w.imag == -wc.imag

    def test_reflection_identity(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            z = complex(rng.uniform(0.02, 0.98), rng.uniform(-3.0, 3.0))
            prod = cmath.exp(log_gamma_complex(z) + log_gamma_complex(1.0 - z))
            assert abs(prod * cmath.sin(math.pi * z) - math.pi) <= 1e-10

    def test_against_scipy(self):
        # cross-library oracle on a grid that straddles |z| = 8
        for re in (0.05, 0.3, 0.5, 0.75, 1.0, 2.5, 7.0):
            for im in (0.0, 0.2, 1.0, 4.0, 15.0, -2.0):
                z = complex(re, im)
                mine = log_gamma_complex(z)
                ref = complex(scipy_loggamma(z))
                assert abs(mine - ref) <= 1e-13 * (1.0 + abs(ref))

    def test_against_mpmath(self):
        # 30-digit oracle on both sides of Re z = 1/2, compared through exp
        # so that the choice of branch does not matter
        with mpmath.workdps(30):
            for re in (1e-3, 0.1, 0.45, 0.55, 1.0, 3.0, 7.9, 20.0):
                for im in (-30.0, -1.0, 0.0, 0.5, 7.0, 40.0):
                    ref = complex(mpmath.loggamma(mpmath.mpc(re, im)))
                    mine = log_gamma_complex(complex(re, im))
                    assert abs(cmath.exp(mine - ref) - 1.0) <= 4e-15 * (1.0 + abs(ref))

    def test_against_scipy_on_every_branch(self):
        # dense sample of the right half-plane on both sides of |z| = 8, where
        # the recurrence shift starts, about the zeros of ln Gamma at 1 and 2,
        # in both half-planes and on the real axis
        rng = np.random.default_rng(5)
        disc = lambda c: c + 0.25 * (rng.uniform(-1.0, 1.0, 500) + 1j * rng.uniform(-1.0, 1.0, 500))
        z = np.concatenate([
            rng.uniform(1e-4, 14.0, 4000) + 1j * rng.uniform(-15.0, 15.0, 4000),
            disc(1.0),
            disc(2.0),
            rng.uniform(1e-4, 12.0, 500) + 0j,
        ])
        ref = scipy_loggamma(z)
        got = log_gamma_complex(z)
        assert np.all(np.abs(got - ref) <= 1e-13 * (1.0 + np.abs(ref)))
        assert np.array_equal(log_gamma_complex(z.conjugate()), got.conjugate())

    def test_against_scipy_on_fourier_weight_lines(self):
        # the lines Re z = (a + 1)/2 that g_weight evaluates, from a near -1
        # to large a, out to |xi| = 800
        im = np.concatenate([np.linspace(-400.0, 400.0, 1601), [-1e-3, 1e-3, 0.0]])
        for a in (-0.999, -0.5, 0.0, 0.5, 1.3, 80.0):
            z = 0.5 * (a + 1.0) + 1j * im
            ref = scipy_loggamma(z)
            assert np.all(np.abs(log_gamma_complex(z) - ref) <= 1e-13 * (1.0 + np.abs(ref)))

    def test_array_matches_scalar_calls(self):
        z = np.array([[0.3 + 2.0j, 12.5 - 1.0j], [7.0 + 0.0j, 0.5 - 40.0j]])
        got = log_gamma_complex(z)
        assert got.shape == z.shape
        assert all(got[ij] == log_gamma_complex(complex(z[ij])) for ij in np.ndindex(z.shape))

    def test_poles(self):
        # poles and the rest of the closed left half-plane (either sign of a
        # zero imaginary part)
        for bad in (0.0, -1.0, -2.0, -17.0, complex(0.0, 3.0), complex(-0.3, 0.0), complex(-2.5, -0.0)):
            with pytest.raises(ValueError):
                log_gamma_complex(complex(bad))
        with pytest.raises(ValueError, match=r"Re z > 0 \(got \(-2\+0j\)\)"):
            log_gamma_complex(np.array([1.5 + 0.0j, -2.0 + 0.0j]))

    def test_non_finite_raises(self):
        for bad in (complex(math.inf, 0.0), complex(1.0, math.nan), complex(-math.inf, 2.0)):
            with pytest.raises(ValueError, match="requires finite z"):
                log_gamma_complex(bad)


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
        # 1e-13 absolute, which sets the tolerance
        p = JacobiParams(a, b)
        with mpmath.workdps(30):
            ma, mb = mpmath.mpf(a), mpmath.mpf(b)
            for m in (0, 1, 2, 7, 40, 200):
                ref = (
                    2 ** (ma + mb + 1) * mpmath.gamma(m + ma + 1) * mpmath.gamma(m + mb + 1)
                    / (mpmath.factorial(m) * (2 * m + ma + mb + 1) * mpmath.gamma(m + ma + mb + 1))
                )
                assert abs(log_jacobi_norm(p, m) - float(mpmath.log(ref))) <= 1e-12
                assert math.isclose(jacobi_norm(p, m), float(ref), rel_tol=1e-12)

    @pytest.mark.parametrize("a,b", [
        (7.0, 7.0), (7.0, 12.0), (30.0, 7.5), (7.0, 30.0), (80.0, 80.0), (80.0, 1e3), (20.0, 1e3), (1e3, 1e3),
        (1e3, 1.1e3), (4914.9, 4622.8), (1e4, 1e4), (1e4, 7.0), (7.0, 1e4), (1e5, 1e5), (1e5, 7.0), (1e5, 3e4),
        (7.0, 1e6), (1e6, 1e6), (1e6, 7.5), (1e6, 3e5),
    ])
    def test_mass_against_mpmath(self, a, b):
        # ln g_0 = (a+b+1) ln 2 + ln B(a+1, b+1) where both a+1, b+1 >= 8 (Stirling's form; below, lgamma's):
        # the lgamma terms of (1e4, 1e4) are 8e4 and cancel to -4, which cost 7.2e-12; 40-digit closed form
        with mpmath.workdps(40):
            ma, mb = mpmath.mpf(a), mpmath.mpf(b)
            want = (ma + mb + 1) * mpmath.log(2) + mpmath.log(mpmath.beta(ma + 1, mb + 1))
            assert abs(log_jacobi_norm(JacobiParams(a, b), 0) - want) <= 2e-15 * max(1.0, abs(float(want)))

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
