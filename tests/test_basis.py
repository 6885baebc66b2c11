"""Basis functions, differentiation couplings and Clenshaw evaluation."""

import functools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from tanhspec import (
    BasisSpec,
    Expansion,
    JacobiParams,
    clenshaw_eval,
    derivative_pointwise,
    diff_coeffs,
    gauss_jacobi,
    phi_full,
)
from oracles import (
    clenshaw_rowwise,
    fd_derivative,
    orthonormal_eval_batch,
    orthonormal_mp,
    phi_full_direct,
    phi_half_direct,
)

GRID_PAIRS = [(-0.5, -0.5), (0.5, 0.5), (-0.5, 0.5), (0.0, 0.0), (1.3, 0.2)]


def _full(a, b):
    return BasisSpec(JacobiParams(a, b), "full")


def _half(a):
    return BasisSpec(JacobiParams(a, a), "half")


# alpha = beta synthesis against 40 digits: each bound is about ten times the
# worst error of clenshaw_eval over EQUAL_PAIR_SIZES, EQUAL_PAIR_X and both modes
EQUAL_PAIR_BOUNDS = {-0.999: 1e-12, -0.9: 2e-12, 0.0: 2e-13, 2.0: 3e-13, 80.0: 2e-13}
EQUAL_PAIR_SIZES = (1, 2, 3, 64, 65, 2049)
EQUAL_PAIR_X = np.array([0.0, 1e-8, -1e-8, 0.7, -0.7, 5.0, -5.0, 30.0, -30.0, 1e300, -1e300])


@functools.lru_cache(maxsize=None)
def _equal_pair_mp(a):
    """Coefficients, and for each size n the 40-digit sum_m c_m phi_m(x) and sum_m |c_m phi_m(x)| at
    EQUAL_PAIR_X, with t = np.tanh(x), the library's rounding of t, and the weight from x itself."""
    c = np.random.default_rng(19).standard_normal(max(EQUAL_PAIR_SIZES))
    rows = orthonormal_mp(a, a, c.size, np.tanh(EQUAL_PAIR_X))
    want, size = {}, {}
    with mpmath.workdps(40):
        weight = [((1 - th) * (1 + th)) ** ((mpmath.mpf(a) + 1) / 2) for th in (mpmath.tanh(mpmath.mpf(float(x))) for x in EQUAL_PAIR_X)]
        for n in EQUAL_PAIR_SIZES:
            terms = [[(-1) ** m * mpmath.mpf(float(c[m])) * rows[m][k] for m in range(n)] for k in range(len(weight))]
            want[n] = np.array([float(w * mpmath.fsum(row)) for w, row in zip(weight, terms)])
            size[n] = np.array([float(w * mpmath.fsum(abs(v) for v in row)) for w, row in zip(weight, terms)])
    return c, want, size


class TestSpecValidation:
    def test_half_needs_equal_parameters(self):
        with pytest.raises(ValueError, match="half mode requires alpha = beta"):
            BasisSpec(JacobiParams(0.5, 0.0), "half")

    def test_mode_names(self):
        with pytest.raises(ValueError):
            BasisSpec(JacobiParams(0.0, 0.0), "diagonal")


class TestExpansion:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Expansion(_full(0.0, 0.0), [1.0, float("nan")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Expansion(_full(0.0, 0.0), [])

    def test_immutable(self):
        e = Expansion(_full(0.0, 0.0), [1.0, 2.0])
        with pytest.raises(ValueError):
            e.coeffs[0] = 3.0


class TestPhiFull:
    def test_chebyshev_t_origin(self):
        # phi_0 = pi^{-1/2} sech^{1/2} x  (mass of sech is pi)
        assert math.isclose(phi_full(_full(-0.5, -0.5), 0, 0.0), 1.0 / math.sqrt(math.pi), rel_tol=1e-13)

    @pytest.mark.parametrize("a", [-0.5, 0.0, 1.7])
    @pytest.mark.parametrize("m", [1, 3, 7])
    def test_odd_vanish_at_origin(self, a, m):
        assert abs(phi_full(_full(a, a), m, 0.0)) <= 1e-15

    def test_chebyshev_u_closed_form(self):
        # phi_0 for the (1/2, 1/2) pair is sqrt(2/pi) sech^{3/2} x
        want = math.sqrt(2.0 / math.pi) * math.cosh(1.0) ** -1.5
        assert math.isclose(phi_full(_full(0.5, 0.5), 0, 1.0), want, rel_tol=1e-13)

    def test_decay_and_large_argument(self):
        spec = _full(2.0, 0.3)
        vals = [abs(phi_full(spec, 3, x)) for x in (5.0, 15.0, 25.0, 200.0, 500.0)]
        assert all(np.isfinite(vals))
        assert all(vals[i + 1] < vals[i] or vals[i + 1] == 0.0 for i in range(len(vals) - 1))

    @pytest.mark.parametrize("a", [-0.5, 0.0, 1.7])
    def test_parity(self, a):
        spec = _full(a, a)
        xs = np.linspace(0.1, 5.0, 7)
        for m in range(9):
            left = phi_full(spec, m, -xs)
            right = (-1.0) ** m * phi_full(spec, m, xs)
            assert np.max(np.abs(left - right)) <= 1e-12


class TestSingleDegreeMemory:
    @pytest.mark.parametrize("spec", [_full(1.3, 0.2), _half(1.3)], ids=["full", "half"])
    def test_one_degree_keeps_two_rows(self, spec):
        # m = 2000 at 2000 points: a table of all degrees would be 30 MiB
        x = np.linspace(-8.0, 8.0, 2000)
        phi_full(spec, 2, x)
        tracemalloc.start()
        try:
            phi_full(spec, 2000, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestPhiHalf:
    def test_origin_matches_full(self):
        assert math.isclose(phi_full(_half(-0.5), 0, 0.0), 1.0 / math.sqrt(math.pi), rel_tol=1e-13)

    @pytest.mark.parametrize("a", [-0.5, 0.3, 1.7])
    def test_odd_vanishes_at_origin(self, a):
        assert phi_full(_half(a), 1, 0.0) == 0.0

    def test_matches_full_pointwise(self):
        spec_h = _half(0.0)
        spec_f = _full(0.0, 0.0)
        assert math.isclose(phi_half_direct(spec_h, 2, 0.7), phi_full(spec_f, 2, 0.7), rel_tol=1e-12)

    @pytest.mark.parametrize("a", [-0.5, 0.0, 0.5, 1.7])
    def test_identity_on_grid(self, a):
        spec_h = _half(a)
        spec_f = _full(a, a)
        xs = np.linspace(-6.0, 6.0, 61)
        worst = 0.0
        for m in range(41):
            diff = np.max(np.abs(phi_half_direct(spec_h, m, xs) - phi_full(spec_f, m, xs)))
            worst = max(worst, diff)
        assert worst <= 1e-12

    @pytest.mark.parametrize("a", [0.5, 1.3])
    def test_top_of_the_float_range(self, a):
        # sech x is exactly 0.0 there; the CLI's floating-point errors raise
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for m in range(4):
                for x in (9e307, -9e307, 1.797e308, -1.797e308):
                    assert phi_full(_half(a), m, x) == 0.0, (m, x)


class TestDiffCoeffs:
    def test_chebyshev_u_affine(self):
        b = diff_coeffs(JacobiParams(0.5, 0.5), 101).b
        m = np.arange(101)
        assert np.max(np.abs(b - 0.5 * (m + 1.5))) <= 1e-14 * np.max(b)
        assert math.isclose(b[0], 0.75, rel_tol=1e-15)

    def test_chebyshev_t_affine_above_zero(self):
        b = diff_coeffs(JacobiParams(-0.5, -0.5), 101).b
        m = np.arange(101)
        assert np.max(np.abs(b[1:] - 0.5 * (m[1:] + 0.5))) <= 1e-14 * np.max(b)

    def test_chebyshev_t_zeroth_limit(self):
        # the affine closed form (m+1/2)/2 would give 1/4 at m = 0, but the
        # removable-limit value sqrt(2)/4 is what direct projection yields
        b0 = diff_coeffs(JacobiParams(-0.5, -0.5), 1).b[0]
        assert math.isclose(b0, math.sqrt(2.0) / 4.0, rel_tol=1e-15)
        spec = _full(-0.5, -0.5)
        rule = gauss_jacobi(JacobiParams(-0.5, -0.5), 200)
        x = np.arctanh(rule.nodes)
        dphi0 = np.array([fd_derivative(lambda y: phi_full(spec, 0, y), xi, 1e-5) for xi in x])
        phi1 = phi_full(spec, 1, x)
        # int phi_0' phi_1 dx pulled back to the weight measure
        w = rule.weights / ((1.0 - rule.nodes) ** 0.5 * (1.0 + rule.nodes) ** 0.5)
        projection = float(np.sum(w * dphi0 * phi1))
        assert math.isclose(projection, b0, rel_tol=1e-7)

    @pytest.mark.parametrize("a,b", GRID_PAIRS + [(-0.9, -0.9), (7.3, 0.0)])
    def test_positivity(self, a, b):
        vals = diff_coeffs(JacobiParams(a, b), 64).b
        assert np.all(vals > 0.0)


class TestDerivativePointwise:
    def test_odd_slot_vanishes(self):
        assert abs(derivative_pointwise(_full(-0.5, -0.5), 0, 0.0)) <= 1e-15

    def test_u_pair_scaling(self):
        spec = _full(0.5, 0.5)
        want = 0.75 * phi_full_direct(spec, 1, 0.5)
        assert math.isclose(derivative_pointwise(spec, 0, 0.5), want, rel_tol=1e-14)

    @pytest.mark.parametrize("a,b", [(-0.5, -0.5), (0.5, 0.5), (1.3, 0.2)])
    def test_finite_difference_oracle(self, a, b):
        spec = _full(a, b)
        rng = np.random.default_rng(5)
        xs = rng.uniform(-5.0, 5.0, 50)
        for m in range(0, 21, 4):
            fd = np.array([fd_derivative(lambda y: phi_full_direct(spec, m, y), x, 1e-5) for x in xs])
            exact = derivative_pointwise(spec, m, xs)
            assert np.max(np.abs(fd - exact)) <= 1e-7

    def test_half_mode(self):
        spec = _half(0.3)
        fd = fd_derivative(lambda y: phi_half_direct(spec, 4, y), 0.8, 1e-5)
        assert math.isclose(derivative_pointwise(spec, 4, 0.8), fd, rel_tol=1e-7)


class TestOrthonormality:
    @pytest.mark.parametrize("a,b", GRID_PAIRS)
    def test_gram_identity(self, a, b):
        # change of variables back to the weight measure, 256-point rule
        p = JacobiParams(a, b)
        rule = gauss_jacobi(p, 256)
        Q = orthonormal_eval_batch(p, 31, rule.nodes)
        signs = (-1.0) ** np.arange(32)
        phi_rows = Q * signs[:, None]
        gram = np.einsum("k,ik,jk->ij", rule.weights, phi_rows, phi_rows)
        assert np.max(np.abs(gram - np.eye(32))) <= 1e-10


class TestClenshaw:
    def test_delta_expansions(self):
        spec = _full(-0.5, -0.5)
        e0 = Expansion(spec, [1.0])
        assert math.isclose(clenshaw_eval(e0, 0.9), phi_full_direct(spec, 0, 0.9), rel_tol=1e-13)
        e5 = Expansion(spec, [0.0] * 5 + [1.0])
        assert math.isclose(clenshaw_eval(e5, -0.4), phi_full_direct(spec, 5, -0.4), rel_tol=1e-13)

    @pytest.mark.parametrize("a,b", GRID_PAIRS)
    def test_naive_sum_oracle(self, a, b):
        spec = _full(a, b)
        rng = np.random.default_rng(17)
        coeffs = rng.standard_normal(32)
        e = Expansion(spec, coeffs)
        x = -1.3
        naive = sum(coeffs[m] * phi_full_direct(spec, m, x) for m in range(32))
        assert math.isclose(clenshaw_eval(e, x), naive, rel_tol=1e-12, abs_tol=1e-13)

    def test_long_expansion_against_naive(self):
        spec = _full(0.5, 0.5)
        rng = np.random.default_rng(23)
        coeffs = rng.standard_normal(512) * 0.97 ** np.arange(512)
        e = Expansion(spec, coeffs)
        for x in (-2.2, 0.1, 3.0):
            naive = sum(coeffs[m] * phi_full_direct(spec, m, x) for m in range(512))
            assert math.isclose(clenshaw_eval(e, x), naive, rel_tol=1e-12, abs_tol=1e-12)

    @pytest.mark.parametrize("a,b", [(1.3, 0.2), (-0.9, -0.9), (2.0, 5.0), (80.0, 80.0), (-0.999, 3.0)])
    def test_bitwise_equal_to_rowwise_loop(self, a, b):
        spec = _full(a, b)
        rng = np.random.default_rng(31)
        x = np.linspace(-30.0, 30.0, 300)
        for n in (1, 2, 3, 63, 64, 65, 2049):  # 64: the row block of the quadrature recurrences at 300 points
            e = Expansion(spec, rng.standard_normal(n))
            assert clenshaw_eval(e, x).tobytes() == clenshaw_rowwise(e, x).tobytes()
            for xs in (-30.0, -0.7, 0.0, 4.2, 30.0):
                assert clenshaw_eval(e, xs) == clenshaw_rowwise(e, xs)

    @pytest.mark.parametrize("mode", ["full", "half"])
    @pytest.mark.parametrize("a", list(EQUAL_PAIR_BOUNDS))
    def test_equal_pair_against_mpmath(self, a, mode):
        # error relative to sum_m |c_m phi_m(x)|, exactly 0 where the weight is.
        # The half-range sum (c_2k on (a, -1/2), c_2k+1 on (a, 1/2), both in
        # u = 1 - 2 sech^2 x, as two groups of one sweep) fails every bound: its
        # rows lose accuracy next to u = -1 (x = 0) and u = 1 (|x| = 30), and its
        # worst errors are 7.1e-11, 5.0e-12, 3.4e-12, 4.9e-12 and 4.5e-12
        c_all, want, size = _equal_pair_mp(a)
        for n in EQUAL_PAIR_SIZES:
            got = clenshaw_eval(Expansion(BasisSpec(JacobiParams(a, a), mode), c_all[:n]), EQUAL_PAIR_X)
            zero = size[n] == 0.0
            assert np.all(got[zero] == 0.0), n
            assert np.max(np.abs(got - want[n])[~zero] / size[n][~zero]) <= EQUAL_PAIR_BOUNDS[a], n

    def test_half_mode_uses_identical_functions(self):
        spec_h = _half(0.5)
        rng = np.random.default_rng(29)
        coeffs = rng.standard_normal(12)
        e = Expansion(spec_h, coeffs)
        naive = sum(coeffs[m] * phi_half_direct(spec_h, m, 0.37) for m in range(12))
        assert math.isclose(clenshaw_eval(e, 0.37), naive, rel_tol=1e-12)


@pytest.mark.parametrize("call", [
    lambda: phi_full(BasisSpec(JacobiParams(0.0, 0.0)), -1, 0.0),
    lambda: derivative_pointwise(BasisSpec(JacobiParams(0.0, 0.0)), -1, 0.0),
], ids=["phi_full", "derivative_pointwise"])
def test_error_paths(call):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value).startswith("degree must be nonnegative (got -1)")
