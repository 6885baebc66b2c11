"""Fourier-space weight, measure, recurrence polynomials and transforms."""

import cmath
import math
from unittest import mock

import mpmath
import numpy as np
import pytest

from tanhspec import (
    BasisSpec,
    Expansion,
    JacobiParams,
    carlitz_eval,
    diff_coeffs,
    fourier_transform,
    g_weight,
    measure_density,
    normalisation_constant,
    analyze_full,
    synthesize,
)
from tanhspec import fourier as fourier_mod

from oracles import (
    _log_weight_mp,
    carlitz_hahn_mp,
    carlitz_rowwise,
    direct_fourier,
    fourier_backward,
    fourier_transform_mp,
    gauss_panels,
    panel_mass,
    trapezoid_mass,
)


#: (a, b) from next to -1 to 1e8, where ln C and each ln Gamma reach 1e9 but ln g stays O(1)
WEIGHT_PAIRS = [
    (math.nextafter(-1.0, 0.0), 10.0), (-0.999, -0.999), (-0.5, -0.5), (0.5, -0.5), (0.0, 0.0), (1.3, 0.2),
    (5.0, 3.0), (14.0, 15.0), (15.0, 15.0), (80.0, 80.0), (200.0, 200.0), (1e3, 1e3), (1e5, 0.0), (0.0, 1e5),
    (1e5, 1e5), (1e5, 3.0), (1e6, 3.0), (1e6, 1e6), (0.0, 1e6), (1e8, 1e8),
]
WEIGHT_XI = np.array([0.0, 0.3, 1.0, 5.0, 20.0, 100.0, -7.5, 1e3])


class TestWeight:
    def test_symmetric_pair_is_real(self):
        params = JacobiParams(0.5, 0.5)
        for xi in (0.0, 0.7, 3.3):
            val = g_weight(params, xi)
            assert abs(val.imag) <= 1e-15 * abs(val)
            assert val.real > 0.0

    @pytest.mark.parametrize("a,b", [(-0.99, 0.3), (-0.99, -0.99), (80.0, 80.0), (5.0, 3.0)])
    def test_against_mpmath(self, a, b):
        # 30-digit C Gamma Gamma, with C from Barnes' lemma (checked against
        # quadrature in TestNormalisation)
        xi = np.array([0.0, 0.3, -1.7, 5.0, -20.0, 60.0])
        got = g_weight(JacobiParams(a, b), xi)
        with mpmath.workdps(30):
            p, q = (mpmath.mpf(a) + 1) / 2, (mpmath.mpf(b) + 1) / 2
            mass = 4 * mpmath.pi * mpmath.gamma(2 * p) * mpmath.gamma(2 * q) * mpmath.gamma(p + q) ** 2
            mass /= mpmath.gamma(2 * (p + q))
            for x, g in zip(xi, got):
                ref = mpmath.gamma(mpmath.mpc(p, x / 2)) * mpmath.gamma(mpmath.mpc(q, -x / 2))
                ref = complex(ref / mpmath.sqrt(mass))
                assert abs(g - ref) <= 1e-12 * abs(ref)

    def test_parity(self):
        params = JacobiParams(1.3, 0.2)
        for xi in (0.4, 1.9, 6.0):
            plus = g_weight(params, xi)
            minus = g_weight(params, -xi)
            assert plus.real == minus.real
            assert plus.imag == -minus.imag

    @pytest.mark.parametrize("a,b", WEIGHT_PAIRS)
    def test_against_mpmath_40_digits(self, a, b):
        # ln g = ln C + ln Gamma(p + i xi/2) + ln Gamma(q - i xi/2), p, q = (a+1)/2, (b+1)/2, the branch of the
        # principal ln Gamma; compared where Re ln g > -745, so that g is a normal float or a subnormal
        got = fourier_mod._log_weight(JacobiParams(a, b), WEIGHT_XI)
        with mpmath.workdps(40):
            p, q = (mpmath.mpf(a) + 1) / 2, (mpmath.mpf(b) + 1) / 2
            lg = mpmath.loggamma
            log_c = -(mpmath.log(4 * mpmath.pi) + lg(2 * p) + lg(2 * q) - lg(2 * p + 2 * q)) / 2 - lg(p + q)
            for x, g in zip(WEIGHT_XI, got):
                ref = log_c + lg(mpmath.mpc(p, x / 2)) + lg(mpmath.mpc(q, -x / 2))
                if ref.real > -745:
                    assert abs(g.real - float(ref.real)) <= 1e-13, x
                    assert abs(g.imag - float(ref.imag)) <= 1e-13 * max(1.0, abs(float(ref.imag))), x

    @pytest.mark.parametrize("a,b", WEIGHT_PAIRS)
    def test_symmetries_bitwise(self, a, b):
        # g(-xi) = conj g(xi); g is real at a = b; an array gives the values of scalar calls
        params = JacobiParams(a, b)
        xi = np.concatenate([WEIGHT_XI, [1e-300, 3e4, 1e150, 1e300, 1e308]])
        got = g_weight(params, xi)
        assert np.array_equal(g_weight(params, -xi), got.conj())
        assert got.tobytes() == np.array([g_weight(params, float(x)) for x in xi]).tobytes()
        dens = np.array([measure_density(params, float(x)) for x in xi])
        assert measure_density(params, xi).tobytes() == dens.tobytes()
        if a == b:
            assert np.all(got.imag == 0.0)

    def test_sech_profile(self):
        # |g_{0,0}|^2 is proportional to sech^2(pi xi / 2)
        params = JacobiParams(0.0, 0.0)
        xi = np.linspace(-10.0, 10.0, 41)
        dens = measure_density(params, xi)
        ratio = dens * np.cosh(math.pi * xi / 2.0) ** 2
        assert np.max(np.abs(ratio / ratio[20] - 1.0)) <= 1e-11

    @pytest.mark.parametrize("a", [0.3, 0.7])
    def test_carlitz_profile(self, a):
        # beta = -alpha collapses to 2 pi^2 C^2 / (cosh pi xi + cos pi a)
        params = JacobiParams(a, -a)
        xi = np.linspace(-8.0, 8.0, 33)
        dens = measure_density(params, xi)
        c2 = math.exp(2.0 * normalisation_constant(params))
        want = 2.0 * math.pi**2 * c2 / (np.cosh(math.pi * xi) + math.cos(math.pi * a))
        assert np.max(np.abs(dens / want - 1.0)) <= 1e-10

    def test_carlitz_point_value(self):
        params = JacobiParams(0.5, -0.5)
        want = 2.0 * math.pi**2 * math.exp(2.0 * normalisation_constant(params)) / math.cosh(3.0 * math.pi)
        assert math.isclose(measure_density(params, 3.0), want, rel_tol=1e-10)

    @pytest.mark.parametrize("a", [0, 1, 2, 3])
    def test_integer_closed_forms(self, a):
        # even a: g ~ pi C prod_{j<n} [(j+1/2)^2 + xi^2/4] / cosh(pi xi/2)
        # odd  a: g ~ (pi/2) C xi prod_{j=1..n} [j^2 + xi^2/4] / sinh(pi xi/2)
        params = JacobiParams(float(a), float(a))
        C = math.exp(normalisation_constant(params))
        for xi in np.linspace(-10.0, 10.0, 21):
            if xi == 0.0 and a % 2:
                continue
            g = g_weight(params, float(xi))
            if a % 2 == 0:
                n = a // 2
                prod = np.prod([(j + 0.5) ** 2 + xi**2 / 4.0 for j in range(n)]) if n else 1.0
                want = math.pi * C * prod / math.cosh(math.pi * xi / 2.0)
            else:
                n = (a - 1) // 2
                prod = np.prod([j**2 + xi**2 / 4.0 for j in range(1, n + 1)]) if n else 1.0
                want = 0.5 * math.pi * C * xi * prod / math.sinh(math.pi * xi / 2.0)
            assert abs(g.real - want) <= 1e-11 * abs(want)
            assert abs(g.imag) <= 1e-13 * abs(want)

    def test_exponential_tail(self):
        params = JacobiParams(0.4, 1.1)
        s = params.alpha + params.beta
        xi = np.linspace(20.0, 40.0, 9)
        scaled = measure_density(params, xi) * np.exp(math.pi * xi) * (xi / 2.0) ** (-s)
        limit = 4.0 * math.pi**2 * math.exp(2.0 * normalisation_constant(params))
        assert np.max(np.abs(scaled / limit - 1.0)) <= 0.05

    def test_top_of_the_float_range(self):
        # the weight is exactly 0.0 from |xi| = 1e300 on; the CLI's
        # floating-point errors raise, and a non-finite xi is still rejected
        params = JacobiParams(1.3, 0.2)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for xi in (1e308, -1e308):
                assert g_weight(params, xi) == 0.0
                assert measure_density(params, xi) == 0.0
            assert np.all(g_weight(params, np.array([1e308, -1e308])) == 0.0)
            xi = np.concatenate([-np.geomspace(1e-3, 1e308, 200), np.geomspace(1e-3, 1e308, 200)])
            for a, b in WEIGHT_PAIRS:
                other = JacobiParams(a, b)
                assert np.all(np.isfinite(g_weight(other, xi))) and np.all(np.isfinite(measure_density(other, xi)))
                assert g_weight(other, 1e300) == 0.0
        for bad in (math.inf, -math.inf, math.nan):
            for f in (g_weight, measure_density):
                with pytest.raises(ValueError, match="finite"):
                    f(params, bad)


class TestNormalisation:
    def test_legendre_pair_constant(self):
        # int sech^2(pi xi/2) dxi = 4/pi, so C^2 pi^2 (4/pi) = 1
        C = math.exp(normalisation_constant(JacobiParams(0.0, 0.0)))
        assert math.isclose(C * C, 1.0 / (4.0 * math.pi), rel_tol=1e-11)

    def test_swap_symmetry(self):
        assert math.isclose(
            math.exp(normalisation_constant(JacobiParams(1.3, 0.2))),
            math.exp(normalisation_constant(JacobiParams(0.2, 1.3))),
            rel_tol=1e-11,
        )

    @pytest.mark.parametrize("a,b", [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (1.3, 0.2), (-0.5, 0.5)])
    def test_unit_mass(self, a, b):
        params = JacobiParams(a, b)
        mass = 2.0 * gauss_panels(
            lambda xi: np.array([measure_density(params, float(x)) for x in np.atleast_1d(xi)]),
            0.0,
            _tail_cut(a + b),
            0.5,
            npts=20,
        )
        assert abs(mass - 1.0) <= 1e-10


    @pytest.mark.parametrize("a,b", [(-0.99, -0.99), (1.3, 0.2), (5.0, 3.0), (80.0, 80.0)])
    def test_against_mpmath_quadrature(self, a, b):
        # 30-digit quadrature of |Gamma Gamma|^2, independent of Barnes' lemma;
        # the density is even in xi and peaks at 0 with width min(a, b) + 1
        with mpmath.workdps(30):
            p, q = mpmath.mpf(a + 1.0) / 2, mpmath.mpf(b + 1.0) / 2
            dens = lambda x: abs(mpmath.gamma(mpmath.mpc(p, x / 2)) * mpmath.gamma(mpmath.mpc(q, -x / 2))) ** 2
            w = min(a, b) + 1.0
            mass = 2 * mpmath.quad(dens, [0, w, 10 * w, 1, 10, 40, mpmath.inf])
            want = float(1 / mpmath.sqrt(mass))
        assert math.isclose(math.exp(normalisation_constant(JacobiParams(a, b))), want, rel_tol=1e-13)

    def test_against_mpmath_40_digits(self):
        # ln C from ln g_0 against Barnes' lemma in 40 digits, next to -1 and out to 1e6, where ln C reaches 1e7
        alphas = [math.nextafter(-1.0, 0.0), -0.999, -0.5, 0.0, 0.5, 1.3, 3.0, 7.5, 15.0, 80.0, 1e3, 1e5, 1e6]
        betas = [math.nextafter(-1.0, 0.0), -0.5, 0.0, 2.0, 10.0, 300.0, 1e4, 1e6]
        lg = mpmath.loggamma
        with mpmath.workdps(40):
            for a in alphas:
                for b in betas:
                    ma, mb = mpmath.mpf(a), mpmath.mpf(b)
                    ref = -(mpmath.log(4 * mpmath.pi) + lg(ma + 1) + lg(mb + 1) + 2 * lg((ma + mb) / 2 + 1)
                            - lg(ma + mb + 2)) / 2
                    got = normalisation_constant(JacobiParams(a, b))
                    assert abs(got - float(ref)) <= 1.2e-15 * max(1.0, abs(float(ref))), (a, b)

    @pytest.mark.parametrize("a,b", [(-0.9, -0.9), (-0.99, -0.99), (-0.999, -0.999), (80.0, 80.0)])
    def test_mass_check_near_pole_and_large(self, a, b):
        # the graded panels resolve the peak at xi = 0, which narrows to
        # width min(a, b) + 1 near a, b = -1
        params = JacobiParams(a, b)
        assert abs(panel_mass(params) - 1.0) <= 1e-13

    @pytest.mark.parametrize("a,b", [(1e5, 0.0), (0.0, 1e5), (1e5, 1e5), (1e5, 3.0), (1e6, 3.0), (1e6, 1e6), (0.0, 1e6)])
    def test_mass_check_at_large_pairs(self, a, b):
        # each ln Gamma of the weight is near 1e6 here, but ln g is formed without them
        assert abs(panel_mass(JacobiParams(a, b)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("a", [1e10, 1e12, 1e15])
    def test_unit_mass_at_huge_pairs(self, a):
        # the density's width grows as sqrt(a), past the fixed panels' reach (a 0.98 mass at 1e10, 0.0 at
        # 1e15), so the rule is scaled to it
        assert abs(trapezoid_mass(JacobiParams(a, a)) - 1.0) <= 1e-13

    @pytest.mark.parametrize("a", [200.0, 400.0])
    def test_large_pair_weight_finite_with_unit_mass(self, a):
        # C itself underflows (2.3e-315 at a = b = 200, 0.0 from about 300)
        params = JacobiParams(a, a)
        assert normalisation_constant(params) < -700.0
        xi = np.array([0.0, 1.0, -30.0, 200.0])
        assert np.all(np.isfinite(g_weight(params, xi))) and g_weight(params, 0.0).real > 0.0
        assert np.all(np.isfinite(measure_density(params, xi)))
        assert abs(panel_mass(params) - 1.0) <= 1e-10
        vals = fourier_transform(Expansion(BasisSpec(params), [1.0, 0.5, 0.25]), xi)
        assert np.all(np.isfinite(vals))

    def test_cache_keyed_on_params(self, monkeypatch):
        norm = mock.Mock(wraps=fourier_mod.normalisation_constant)
        monkeypatch.setattr(fourier_mod, "normalisation_constant", norm)
        spec = BasisSpec(JacobiParams(0.37, 1.91))  # a pair no other test uses
        for n in range(1, 21):
            vals = fourier_transform(Expansion(spec, np.ones(n)), [0.0, 1.5])
            assert np.all(np.isfinite(vals))
        # ln C is not on the transform's path
        assert norm.call_count == 0


def _tail_cut(s):
    return 45.0 + 12.0 * max(0.0, s)


class TestCarlitzPolynomials:
    def test_degree_zero_and_one(self):
        params = JacobiParams(0.5, 0.5)
        b0 = diff_coeffs(params, 1).b[0]
        assert carlitz_eval(params, 0, 1.7) == 1.0
        assert math.isclose(carlitz_eval(params, 1, 1.7), 1.7 / b0, rel_tol=1e-15)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_rejects_non_finite_xi(self, m, bad):
        # the error fourier_transform raises, for a scalar and inside an array
        params = JacobiParams(1.3, 0.2)
        with pytest.raises(ValueError) as want:
            fourier_transform(Expansion(BasisSpec(params), np.ones(m + 1)), bad)
        for xi in (bad, np.array([[0.5, bad], [2.0, -1.0]])):
            with pytest.raises(ValueError) as err:
                carlitz_eval(params, m, xi)
            assert str(err.value) == str(want.value) == f"xi must be finite (got {bad})"

    def test_orthonormality_quadrature(self):
        params = JacobiParams(0.5, 0.5)
        # the integrand takes the density of a whole panel in one array call;
        # the scalar path must give the same values bit for bit
        xi = np.linspace(-40.0, 40.0, 2001)
        assert np.array_equal(measure_density(params, xi), [measure_density(params, float(x)) for x in xi])
        cut = _tail_cut(1.0)
        for i in range(0, 11, 2):
            for j in range(i, 11, 3):

                def integrand(xi):
                    xi = np.atleast_1d(xi)
                    return carlitz_eval(params, i, xi) * carlitz_eval(params, j, xi) * measure_density(params, xi)

                val = gauss_panels(integrand, -cut, cut, 0.5, npts=20)
                want = 1.0 if i == j else 0.0
                assert abs(val - want) <= 1e-8


#: (a, b, degrees, xi): the p_m against their continuous Hahn closed form, at the huge pairs out to 4 sqrt(a)
HAHN_CASES = [*((a, b, (0, 1, 2, 5, 20, 60), np.array([-7.3, -1.0, 0.0, 0.4, 3.0, 11.0])) for a, b in
                [(1.3, 0.2), (0.0, 0.0), (-0.5, -0.5), (0.5, -0.5), (-0.9, 3.0), (80.0, 80.0), (2.0, 5.0)]),
              *((a, b, range(11), math.sqrt(max(a, b)) * np.array([0.0, 0.3, -1.0, 2.0, 4.0]))
                for a, b in [(1e6, 1e6), (1e12, 3.0), (1e3, -0.999)])]


class TestContinuousHahn:
    """The p_m are continuous Hahn polynomials (KLS section 9.4), summed without a recurrence (carlitz_hahn_mp)."""

    @pytest.mark.parametrize("a,b,degrees,xi", HAHN_CASES, ids=[f"{c[0]},{c[1]}" for c in HAHN_CASES])
    def test_carlitz_eval_is_continuous_hahn(self, a, b, degrees, xi):
        # measured: at most 3.5e-15 of max|p_m| for m <= 60, 8.8e-16 at the huge pairs for m <= 10
        bound = 1e-15 if max(a, b) >= 1e3 else 4e-15
        for m in degrees:
            want = carlitz_hahn_mp(a, b, m, xi)
            assert np.max(np.abs(carlitz_eval(JacobiParams(a, b), m, xi) - want)) <= bound * np.max(np.abs(want)), m

    @pytest.mark.parametrize("a,b", [(1.3, 0.2), (0.0, 0.0), (-0.5, -0.5), (-0.9, 3.0), (2.0, 5.0), (80.0, 80.0),
                                     (1e6, 1e6), (1e12, 3.0)])
    def test_transform_against_hahn_sum(self, a, b):
        # g sum_m i^m c_m p_m with ln g from mpmath.loggamma and no recurrence, xi across the weight's width:
        # measured at most 2.1e-15 of max|F|
        n = 13 if max(a, b) < 1e3 else 11
        c = np.random.default_rng(15).standard_normal(n) * 0.7 ** np.arange(n)
        xi = math.sqrt(max(1.0, min(a, b))) * np.array([0.0, 0.4, -1.0, 3.0, -7.3, 11.0])
        rows = np.array([carlitz_hahn_mp(a, b, m, xi) for m in range(n)])
        want = np.exp(_log_weight_mp(a, b, xi.tobytes())) * ((1j ** np.arange(n) * c) @ rows)
        got = fourier_transform(Expansion(BasisSpec(JacobiParams(a, b)), c), xi)
        assert np.max(np.abs(got - want)) <= 3e-15 * np.max(np.abs(want))


# Coefficients c_m = N(0, 1) / (1 + m) against the backward Clenshaw loop the
# transform replaced, at 997 points in [-30, 30] and out to the clamp at 1e300.
ORACLE_PAIRS = [(1.3, 0.2), (0.5, 0.5), (-0.9, 3.0), (-0.5, -0.5), (-0.999, -0.999), (200.0, 200.0)]
ORACLE_XI = np.concatenate([np.linspace(-30.0, 30.0, 997), [100.0, 200.0, 300.0, 1e3, 3e3, 1e6, 1e300, -1e300]])


class TestAgainstRowwiseLoops:
    @pytest.mark.parametrize(
        "a,b,n",
        [(a, b, n) for a, b in ORACLE_PAIRS for n in (1, 2, 64, 1024)] + [(1.3, 0.2, 4096), (-0.999, -0.999, 4096)],
    )
    def test_transform_matches_backward_loop(self, a, b, n):
        c = np.random.default_rng(n).standard_normal(n) / (1.0 + np.arange(n))
        e = Expansion(BasisSpec(JacobiParams(a, b)), c)
        got, want = fourier_transform(e, ORACLE_XI), fourier_backward(e, ORACLE_XI)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.max(np.abs(got - want)) <= 2e-14 * np.max(np.abs(want))
        big = np.abs(want) > 1e-290
        assert np.max(np.abs(got[big] - want[big]) / np.abs(want[big])) <= 1e-11

    @pytest.mark.parametrize("a,b", ORACLE_PAIRS)
    def test_carlitz_matches_forward_loop(self, a, b):
        params = JacobiParams(a, b)
        xi = ORACLE_XI[:997]
        for m in (0, 1, 5, 50, 300):
            want = carlitz_rowwise(params, m, xi)
            assert np.max(np.abs(carlitz_eval(params, m, xi) - want)) <= 1e-13 * np.max(np.abs(want))


class TestFourierTransform:
    def test_ground_state_profile(self):
        # F[phi_0] for the Legendre pair is proportional to sech(pi xi/2)
        spec = BasisSpec(JacobiParams(0.0, 0.0))
        e = Expansion(spec, [1.0])
        xi = np.array([0.0, 0.5, 1.0, 2.5])
        vals = fourier_transform(e, xi)
        ratio = vals.real / (1.0 / np.cosh(math.pi * xi / 2.0))
        assert np.max(np.abs(vals.imag)) <= 1e-14
        assert np.max(np.abs(ratio - ratio[0])) <= 1e-12
        for x in xi:
            oracle = direct_fourier(lambda y: synthesize(e, y), float(x))
            assert abs(complex(fourier_transform(e, float(x))) - oracle) <= 1e-8

    def test_even_real_expansion_is_real(self):
        spec = BasisSpec(JacobiParams(0.5, 0.5))
        rng = np.random.default_rng(10)
        coeffs = np.zeros(16)
        coeffs[0::2] = rng.standard_normal(8)
        e = Expansion(spec, coeffs)
        vals = fourier_transform(e, np.linspace(-4.0, 4.0, 9))
        assert np.max(np.abs(vals.imag)) <= 1e-12

    @pytest.mark.parametrize("a", [0.0, 0.5])
    def test_direct_quadrature_oracle(self, a):
        spec = BasisSpec(JacobiParams(a, a))
        rng = np.random.default_rng(int(10 * a) + 3)
        e = Expansion(spec, rng.standard_normal(16) * 0.7 ** np.arange(16))
        f = lambda x: synthesize(e, x)
        for xi in np.linspace(-8.0, 8.0, 9):
            got = complex(fourier_transform(e, float(xi)))
            want = direct_fourier(f, float(xi))
            assert abs(got - want) <= 1e-7

    def test_asymmetric_pair_oracle(self):
        spec = BasisSpec(JacobiParams(1.3, 0.2))
        rng = np.random.default_rng(19)
        e = Expansion(spec, rng.standard_normal(10) * 0.6 ** np.arange(10))
        f = lambda x: synthesize(e, x)
        for xi in (-3.3, 0.4, 2.0):
            got = complex(fourier_transform(e, xi))
            want = direct_fourier(f, xi)
            assert abs(got - want) <= 1e-7

    def test_plancherel(self):
        spec = BasisSpec(JacobiParams(0.5, 0.5))
        rng = np.random.default_rng(8)
        for _ in range(3):
            e = Expansion(spec, rng.standard_normal(16))
            def sq(xi):
                xi = np.atleast_1d(xi)
                return np.abs(fourier_transform(e, xi)) ** 2
            total = gauss_panels(sq, -60.0, 60.0, 0.5, npts=20)
            assert abs(total - float(np.sum(e.coeffs**2))) <= 1e-8

    def test_ramanujan_identity(self):
        # int |Gamma(1/2 + i xi)|^2 e^{i x xi} dxi = pi / cosh(x/2):
        # equivalently the transform of sech(x/2) follows the squared-Gamma
        # profile; both sides are evaluated by independent routes here
        def gamma_sq(xi):
            return math.pi / math.cosh(math.pi * xi)  # |Gamma(1/2 + i xi)|^2, by the reflection formula

        for x in (0.0, 0.8, 2.0):
            lhs = gauss_panels(
                lambda xi: np.array([gamma_sq(float(v)) for v in np.atleast_1d(xi)])
                * np.exp(1j * x * np.atleast_1d(xi)),
                -40.0,
                40.0,
                0.25,
                npts=16,
            )
            assert abs(complex(lhs).real - math.pi / math.cosh(x / 2.0)) <= 1e-8
            assert abs(complex(lhs).imag) <= 1e-10
        # forward route: F[sech(x/2)](xi) against the |Gamma(1/2 + i xi)|^2 profile
        f = lambda y: 1.0 / np.cosh(y / 2.0)
        for xi in (0.0, 0.5, 1.2):
            got = direct_fourier(f, xi, halfwidth=90.0)
            want = math.sqrt(2.0 / math.pi) * gamma_sq(xi)
            assert abs(got - want) <= 1e-8

    def test_large_xi_underflows_to_zero(self):
        # the rows of the p_m grow past the float range where g underflows
        # (at 2e4 and n = 4096 one row grows by up to e^11, and the kernel
        # cuts its blocks short); F[sech] ~ e^{-pi |xi|/2}, and the zero bound
        # answers |xi| >= 1e6 without a sweep.  Floating-point errors raise,
        # as in the CLI.
        xi = np.array([-1e3, 600.0, 1e3, 2e4, -2e4, 1e6, -1e6, 1e300, -1e300])
        for n in (512, 4096):
            e = analyze_full(BasisSpec(JacobiParams(-0.5, -0.5)), lambda x: 1.0 / np.cosh(x), n)
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                vals = fourier_transform(e, xi)
                assert fourier_transform(e, 1e300) == 0.0
            assert np.all(np.isfinite(vals))
            assert np.max(np.abs(vals)) < 1e-6
            assert np.all(vals[np.abs(xi) >= 1e6] == 0.0)

    def test_count_argument_removed(self):
        # the coupling count follows from the expansion length
        e = Expansion(BasisSpec(JacobiParams(0.5, 0.5)), [1.0, 0.5])
        with pytest.raises(TypeError):
            fourier_transform(e, [0.0], count=5)

    @pytest.mark.parametrize("a", [1e10, 1e12, 1e15])
    def test_huge_pairs_against_mpmath(self, a):
        # no term of ln g grows with a, and the p_m are polynomials in xi / sqrt(a): a 4-term expansion against
        # 60 digits, out to several widths sqrt(a) of the weight
        c = [0.9, 0.1, -0.3, 0.05]
        xi = np.concatenate(([1.0, 1e3, 1e6], math.sqrt(a) * np.array([0.0, 0.3, -1.0, 2.0, 4.0])))
        got = fourier_transform(Expansion(BasisSpec(JacobiParams(a, a)), c), xi)
        want = fourier_transform_mp(a, a, c, xi)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("a", [0.5, 2.0, -0.9])
    def test_half_mode_equals_full(self, a):
        # the half-mode functions are the full-mode ones of the (a, a) pair
        c = np.random.default_rng(17).standard_normal(40)
        xi = np.array([0.0, 0.3, -1.0, 10.0, 1e3])
        half = fourier_transform(Expansion(BasisSpec(JacobiParams(a, a), "half"), c), xi)
        full = fourier_transform(Expansion(BasisSpec(JacobiParams(a, a), "full"), c), xi)
        assert half.tobytes() == full.tobytes()


@pytest.mark.parametrize("call,start", [
    (lambda: carlitz_eval(JacobiParams(0.0, 0.0), -1, 0.5), "degree must be nonnegative (got -1)"),
], ids=["carlitz_eval-degree"])
def test_error_paths(call, start):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value).startswith(start)
