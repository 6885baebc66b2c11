"""Polynomial evaluation and Gauss-Jacobi rules against closed forms."""

import math

import mpmath
import numpy as np
import pytest

from tanhspec import (
    JacobiParams,
    chebyshev_eval,
    gauss_jacobi,
    jacobi_eval,
    jacobi_eval_batch,
    jacobi_norm,
    norm_ratio,
    recurrence_coefficients,
)
from tanhspec.jacobi import jacobi_matrix, orthonormal_eval_batch, orthonormal_rows

from oracles import jacobi_explicit_sum

GRID_PAIRS = [(-0.9, -0.9), (-0.5, -0.5), (0.0, 0.0), (0.5, 0.5), (2.0, 0.3), (7.3, -0.5), (1.3, 0.2), (-0.5, 0.5)]


class TestRecurrence:
    @pytest.mark.parametrize("a,b", GRID_PAIRS)
    def test_coefficient_signs(self, a, b):
        rec = recurrence_coefficients(JacobiParams(a, b), 40)
        assert np.all(rec.C > 0.0)
        assert np.all(rec.A[1:] >= 0.0)

    def test_m0_closed_forms(self):
        rec = recurrence_coefficients(JacobiParams(0.3, 1.7), 1)
        assert math.isclose(rec.B[0], (1.7 - 0.3) / 4.0, rel_tol=1e-15)
        assert math.isclose(rec.C[0], 2.0 / 4.0, rel_tol=1e-15)


class TestOrthonormalRecurrence:
    @pytest.mark.parametrize("a,b", GRID_PAIRS + [(-0.99, 0.3), (80.0, 80.0)])
    def test_off_diagonal_against_norm_ratio(self, a, b):
        # closed form 2 b_m / (a+b+2m+2) against C_m sqrt(g_{m+1}/g_m)
        p = JacobiParams(a, b)
        B, off = jacobi_matrix(p, 3000)
        rec = recurrence_coefficients(p, 3000)
        want = np.array([rec.C[m] * norm_ratio(p, m, +1) for m in range(3000)])
        assert np.array_equal(B, rec.B)
        assert np.max(np.abs(off / want - 1.0)) <= 2e-15

    @pytest.mark.parametrize("a,b", GRID_PAIRS)
    def test_rows_match_batch(self, a, b):
        p = JacobiParams(a, b)
        t = np.linspace(-0.999, 0.999, 41)
        Q = orthonormal_eval_batch(p, 39, t)
        rows = np.array(list(orthonormal_rows(p, 40, t)))
        assert rows.shape == Q.shape
        assert np.max(np.abs(rows - Q)) <= 1e-12 * np.max(np.abs(Q))


class TestJacobiEval:
    def test_degree_zero(self):
        for a, b in GRID_PAIRS:
            assert jacobi_eval(JacobiParams(a, b), 0, 0.37) == 1.0

    def test_legendre_at_one(self):
        assert math.isclose(jacobi_eval(JacobiParams(0.0, 0.0), 2, 1.0), 1.0, rel_tol=1e-14)

    def test_explicit_sum_oracle(self):
        # frozen from the finite-sum formula: P_5^{(0.3,1.7)}(0.4)
        oracle = jacobi_explicit_sum(0.3, 1.7, 5, 0.4)
        assert math.isclose(oracle, 0.51061775, rel_tol=1e-12)
        assert math.isclose(jacobi_eval(JacobiParams(0.3, 1.7), 5, 0.4), oracle, rel_tol=1e-12)

    def test_batch_matches_pointwise(self):
        p = JacobiParams(1.3, 0.2)
        pts = np.linspace(-1.0, 1.0, 17)
        table = jacobi_eval_batch(p, 12, pts)
        assert table.shape == (13, 17)
        for m in (0, 1, 5, 12):
            for j in (0, 4, 16):
                assert math.isclose(table[m, j], jacobi_eval(p, m, pts[j]), rel_tol=1e-13, abs_tol=1e-14)

    @pytest.mark.parametrize("a", [-0.5, 0.0, 1.7])
    def test_symmetric_parity(self, a):
        p = JacobiParams(a, a)
        pts = np.linspace(0.0, 1.0, 9)
        vals = jacobi_eval_batch(p, 15, pts)
        mirror = jacobi_eval_batch(p, 15, -pts)
        for m in range(16):
            assert np.allclose(mirror[m], (-1.0) ** m * vals[m], rtol=1e-12, atol=1e-12)


class TestChebyshevEval:
    def test_trivia(self):
        assert math.isclose(chebyshev_eval("T", 2, math.pi / 3.0), -0.5, rel_tol=1e-14)
        assert chebyshev_eval("U", 1, 0.0) == 2.0
        assert chebyshev_eval("W", 0, math.pi / 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_endpoint_limits(self):
        assert chebyshev_eval("U", 4, math.pi) == 5.0
        assert chebyshev_eval("V", 3, 0.0) == 7.0
        assert chebyshev_eval("W", 3, math.pi) == -7.0

    def test_jacobi_consistency(self):
        # each kind is the Jacobi polynomial of its half-integer pair,
        # normalised to its value at t = 1
        pairs = {"T": (-0.5, -0.5), "U": (0.5, 0.5), "V": (0.5, -0.5), "W": (-0.5, 0.5)}
        at_one = {"T": lambda m: 1.0, "U": lambda m: m + 1.0, "V": lambda m: 2.0 * m + 1.0, "W": lambda m: 1.0}
        thetas = np.linspace(0.05, math.pi - 0.05, 11)
        for kind, (a, b) in pairs.items():
            p = JacobiParams(a, b)
            for m in (0, 1, 2, 5, 11):
                p_one = jacobi_eval(p, m, 1.0)
                for theta in thetas:
                    lhs = chebyshev_eval(kind, m, float(theta)) / at_one[kind](m)
                    rhs = jacobi_eval(p, m, math.cos(theta)) / p_one
                    assert math.isclose(lhs, rhs, rel_tol=1e-11, abs_tol=1e-11)


class TestGaussJacobi:
    def test_chebyshev_rule_closed_form(self):
        rule = gauss_jacobi(JacobiParams(-0.5, -0.5), 4)
        want = np.sort(np.cos((2.0 * np.arange(4) + 1.0) * math.pi / 8.0))
        assert np.allclose(rule.nodes, want, atol=1e-14)
        assert np.allclose(rule.weights, math.pi / 4.0, atol=1e-14)

    def test_legendre_two_point(self):
        rule = gauss_jacobi(JacobiParams(0.0, 0.0), 2)
        assert np.allclose(rule.nodes, [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], atol=1e-15)
        assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-14)

    def test_moments_alpha1_beta0(self):
        # int t^k (1-t) dt on (-1,1): 2/(k+1) for even k, -2/(k+2) for odd k
        rule = gauss_jacobi(JacobiParams(1.0, 0.0), 8)
        for k in range(16):
            want = 2.0 / (k + 1) if k % 2 == 0 else -2.0 / (k + 2)
            got = float(np.sum(rule.weights * rule.nodes**k))
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-13)

    @pytest.mark.parametrize("a,b", GRID_PAIRS)
    def test_orthonormality_oracle(self, a, b):
        p = JacobiParams(a, b)
        rule = gauss_jacobi(p, 64)
        Q = orthonormal_eval_batch(p, 31, rule.nodes)
        gram = np.einsum("k,ik,jk->ij", rule.weights, Q, Q)
        assert np.max(np.abs(gram - np.eye(32))) <= 1e-10

    @pytest.mark.parametrize("a,b", GRID_PAIRS)
    def test_rule_structure(self, a, b):
        p = JacobiParams(a, b)
        for n in (1, 2, 7, 24):
            rule = gauss_jacobi(p, n)
            assert np.all(np.diff(rule.nodes) > 0.0)
            assert np.all(rule.nodes > -1.0) and np.all(rule.nodes < 1.0)
            assert np.all(rule.weights > 0.0)
            assert math.isclose(float(rule.weights.sum()), jacobi_norm(p, 0), rel_tol=1e-12)

    def test_interlacing(self):
        p = JacobiParams(1.3, 0.2)
        for n in (3, 9, 20):
            small = gauss_jacobi(p, n).nodes
            big = gauss_jacobi(p, n + 1).nodes
            # strict interlacing: each small node sits between consecutive big ones
            for k in range(n):
                assert big[k] < small[k] < big[k + 1]

    @pytest.mark.parametrize("a,b", [(-0.99, 0.3), (-0.99, -0.99), (80.0, 80.0), (1.3, 0.2), (5.0, 3.0)])
    def test_moments_against_mpmath(self, a, b):
        # mu_j = int t^j (1-t)^a (1+t)^b dt, expanding t^j = ((1+t) - 1)^j;
        # the alternating sum cancels, hence 100 digits
        n = 40
        rule = gauss_jacobi(JacobiParams(a, b), n)
        with mpmath.workdps(100):
            ma, mb = mpmath.mpf(a), mpmath.mpf(b)
            # int (1-t)^a (1+t)^{b+i} dt = 2^{a+b+1+i} B(a+1, b+1+i)
            shifted = [mpmath.mpf(2) ** (ma + mb + 1 + i) * mpmath.beta(ma + 1, mb + 1 + i) for i in range(2 * n)]
            mu = [
                float(mpmath.fsum(mpmath.binomial(j, i) * (-1) ** (j - i) * shifted[i] for i in range(j + 1)))
                for j in range(2 * n)
            ]
        for j in range(2 * n):
            got = float(np.sum(rule.weights * rule.nodes**j))
            assert abs(got - mu[j]) <= 1e-12 * mu[0], (j, got, mu[j])
