"""Coefficient-space operators: differentiation, multiplication, banded solve."""

import math

import numpy as np
import pytest

from tanhspec import (
    BasisSpec,
    Expansion,
    JacobiParams,
    analyze_full,
    assemble_first_order,
    dense_diff,
    diff_apply,
    diff_coeffs,
    diff_squared_apply,
    mult_op,
    solve_first_order,
    synthesize,
)
from tanhspec.operators import BandedMatrix, MultOp, banded_qr_lstsq

from oracles import (
    band_get,
    fd_derivative,
    fd_second_derivative,
    mult_op_dense,
    orthonormal_eval_batch,
    toeplitz_hankel_parts,
)

T_PAIR = JacobiParams(-0.5, -0.5)
T_SPEC = BasisSpec(T_PAIR, "full")
HALF_INTEGER_PAIRS = [(-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5), (0.5, 0.5)]
BITWISE_PAIRS = [(-0.5, -0.5), (0.5, 0.5), (1.3, 0.2)]


def _over_pairs(pairs, cases):
    """pytest params (JacobiParams, *case) for every pair and case tuple; the
    T pair keeps the bare case id, the other pairs put "alpha-beta" in front."""
    out = []
    for a, b in pairs:
        head = () if (a, b) == (-0.5, -0.5) else (a, b)
        out += [pytest.param(JacobiParams(a, b), *case, id="-".join(map(str, head + case))) for case in cases]
    return out


def _tilde_t_series(a):
    # a(x) = sum a_k T~_k(tanh x), T~_0 = 1/sqrt2
    def f(x):
        t = np.tanh(np.asarray(x, dtype=float))
        theta = np.arccos(np.clip(t, -1.0, 1.0))
        total = a[0] / math.sqrt(2.0) * np.ones_like(t)
        for k in range(1, len(a)):
            total = total + a[k] * np.cos(k * theta)
        return total

    return f


class TestDiffApply:
    def test_zero(self):
        d = diff_coeffs(T_PAIR, 8)
        assert np.allclose(diff_apply(d, np.zeros(8)), 0.0)

    def test_basis_vector_u_pair(self):
        # derivative action: phi_0' = b_0 phi_1, so e_0 maps to +b_0 e_1
        # with b_0 = 3/4 for the (1/2, 1/2) pair
        d = diff_coeffs(JacobiParams(0.5, 0.5), 8)
        out = diff_apply(d, [1.0] + [0.0] * 7)
        want = np.zeros(8)
        want[1] = 0.75
        assert np.allclose(out, want, atol=1e-15)

    def test_pointwise_derivative_oracle(self):
        f = lambda x: np.tanh(x) / np.cosh(x)
        n = 128
        e = analyze_full(T_SPEC, f, n)
        d = diff_coeffs(T_PAIR, n + 1)
        padded = np.concatenate([e.coeffs, [0.0]])
        de = Expansion(T_SPEC, diff_apply(d, padded))
        for x in (-2.5, -0.3, 0.0, 1.1, 3.0):
            fd = fd_derivative(lambda y: float(synthesize(e, y)[0]), x, 1e-4)
            assert abs(float(synthesize(de, x)[0]) - fd) <= 1e-6


class TestDiffSquared:
    def test_zero(self):
        d = diff_coeffs(T_PAIR, 12)
        assert np.allclose(diff_squared_apply(d, np.zeros(10)), 0.0)

    def test_negative_semidefinite(self):
        d = diff_coeffs(T_PAIR, 70)
        rng = np.random.default_rng(2)
        for _ in range(100):
            c = rng.standard_normal(64)
            quad_form = float(c @ diff_squared_apply(d, c))
            assert quad_form <= 1e-12 * float(c @ c)

    def test_second_derivative_oracle(self):
        spec = T_SPEC
        f = lambda x: np.exp(-(x**2) / 2.0) * np.cosh(x) ** -0.5
        n = 192
        e = analyze_full(spec, f, n)
        d = diff_coeffs(T_PAIR, n + 4)
        # apply on a 2-padded window so the synthesized result keeps the
        # operator's full support, then difference the synthesis itself
        dd = diff_squared_apply(d, np.concatenate([e.coeffs, [0.0, 0.0]]))
        dde = Expansion(spec, dd)
        for x in (-1.7, 0.4, 2.0):
            fd = fd_second_derivative(lambda y: float(synthesize(e, y)[0]), x, 1e-4)
            assert abs(float(synthesize(dde, x)[0]) - fd) <= 1e-5


class TestDenseDiff:
    def test_skew_symmetry_bitwise(self):
        d = diff_coeffs(JacobiParams(1.3, 0.2), 64)
        D = dense_diff(d, 64)
        assert np.all(D + D.T == 0.0)

    @pytest.mark.parametrize("a,b", [(-0.5, -0.5), (0.5, 0.5), (0.0, 0.0), (1.3, 0.2), (7.3, -0.9)])
    def test_irreducible(self, a, b):
        d = diff_coeffs(JacobiParams(a, b), 64)
        assert np.all(d.b > 0.0)


class TestMultOp:
    def test_constant_coefficient(self):
        # a = (1, 0, ...): multiplication by the constant T~_0 = 1/sqrt2,
        # hence the operator is (a_0/sqrt2) I
        A = mult_op([1.0], 0, 6).dense()
        assert np.allclose(A, np.eye(6) / math.sqrt(2.0), atol=1e-15)

    def test_tanh_gram_oracle(self):
        # entries of multiplication by tanh x against the weighted integrals
        from tanhspec import gauss_jacobi

        A = mult_op([0.0, 1.0], 1, 12).dense()
        rule = gauss_jacobi(T_PAIR, 128)
        Q = orthonormal_eval_batch(T_PAIR, 11, rule.nodes)
        signs = (-1.0) ** np.arange(12)
        phi_rows = Q * signs[:, None]
        gram = np.einsum("k,ik,jk->ij", rule.weights * rule.nodes, phi_rows, phi_rows)
        assert np.max(np.abs(A - gram)) <= 1e-10

    def test_pointwise_multiplication_oracle(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal(5)
        c = rng.standard_normal(32)
        mo = mult_op(a, 4, 32)
        e = Expansion(T_SPEC, c)
        afun = _tilde_t_series(a)
        product = lambda x: afun(x) * synthesize(e, x)
        # oversampled oracle: the product is band-limited to degree 36
        want = analyze_full(T_SPEC, product, 64).coeffs[:32]
        assert np.max(np.abs(mo.apply(c) - want)) <= 1e-9

    def test_symmetry_and_bandwidth(self):
        rng = np.random.default_rng(9)
        mo = mult_op(rng.standard_normal(4), 3, 16)
        A = mo.dense()
        assert np.allclose(A, A.T, atol=0.0)
        i, j = np.nonzero(A)
        assert np.max(np.abs(i - j)) <= 3

    @pytest.mark.parametrize("M", range(9))
    @pytest.mark.parametrize("a,b", HALF_INTEGER_PAIRS)
    def test_toeplitz_hankel_every_half_integer_pair(self, a, b, M):
        # the four closed forms differ only in the Hankel shift and sign;
        # row and column 0 are special on the T pair alone
        params = JacobiParams(a, b)
        coeffs = np.random.default_rng(60 + M).standard_normal(M + 1)
        t, h = toeplitz_hankel_parts(coeffs, 20, params)
        i, j = np.ogrid[:20, :20]
        want = np.pad(t, (0, 20))[np.abs(i - j)] + h[i + j]
        A = mult_op(coeffs, M, 20).dense(params=params)
        lo = 1 if (a, b) == (-0.5, -0.5) else 0
        assert np.max(np.abs(A[lo:, lo:] - want[lo:, lo:])) <= 1e-14

    @pytest.mark.parametrize("a,b", [(1.3, 0.2), (2.0, 5.0)])
    def test_gram_oracle_generic_pair(self, a, b):
        # entries against the weighted integrals int a phi_i phi_j dx, where
        # the operator is banded but not Toeplitz-plus-Hankel
        from tanhspec import gauss_jacobi

        params = JacobiParams(a, b)
        coeffs = np.random.default_rng(7).standard_normal(5)
        A = mult_op(coeffs, 4, 12).dense(params=params)
        rule = gauss_jacobi(params, 128)
        Q = orthonormal_eval_batch(params, 11, rule.nodes)
        signs = (-1.0) ** np.arange(12)
        phi_rows = Q * signs[:, None]
        theta = np.arccos(rule.nodes)
        a_t = coeffs[0] / math.sqrt(2.0) + np.cos(np.outer(theta, np.arange(1, 5))) @ coeffs[1:]
        gram = np.einsum("k,ik,jk->ij", rule.weights * a_t, phi_rows, phi_rows)
        assert np.max(np.abs(A - gram)) <= 1e-10

    def test_toeplitz_hankel_recovery(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal(5)
        mo = mult_op(a, 4, 20)
        t, h = toeplitz_hankel_parts(a, 20)
        A = mo.dense()
        for i in range(1, 20):
            for j in range(1, 20):
                sep = abs(i - j)
                tv = t[sep] if sep < t.size else 0.0
                hv = h[i + j] if i + j < h.size else 0.0
                assert math.isclose(A[i, j], tv + hv, rel_tol=0.0, abs_tol=1e-15)
        # documented row-0 forms carry the T~_0 normalisation
        assert math.isclose(A[0, 0], a[0] / math.sqrt(2.0), abs_tol=1e-15)
        for k in range(1, 5):
            assert math.isclose(A[0, k], (-1.0) ** k * a[k] / math.sqrt(2.0), abs_tol=1e-15)

    def test_bandwidth_too_large(self):
        with pytest.raises(ValueError):
            mult_op(np.ones(8), 8, 8)

    def test_commutativity_and_product_oracle(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal(5)
        b = rng.standard_normal(5)
        n = 64
        # geometric decay keeps the truncated-window tails below tolerance
        c = rng.standard_normal(n) * 0.6 ** np.arange(n)
        A = mult_op(a, 4, n)
        B = mult_op(b, 4, n)
        ab_c = A.apply(B.apply(c))
        ba_c = B.apply(A.apply(c))
        assert np.max(np.abs(ab_c - ba_c)) <= 1e-8
        afun, bfun = _tilde_t_series(a), _tilde_t_series(b)
        e = Expansion(T_SPEC, c)
        product = lambda x: afun(x) * bfun(x) * synthesize(e, x)
        want = analyze_full(T_SPEC, product, 2 * n).coeffs[:n]
        assert np.max(np.abs(ab_c - want)) <= 1e-8


    @pytest.mark.parametrize(
        "params,rows,cols,M",
        _over_pairs(BITWISE_PAIRS, [(r, c, M) for r, c in [(12, 12), (7, 15), (20, 5), (1, 4), (3, 1)]
                                    for M in [0, 1, 3, 8]]),
    )
    def test_dense_matches_entry_oracle_bitwise(self, params, rows, cols, M):
        a = np.random.default_rng(M).standard_normal(M + 1)
        mo = mult_op(a, M, 12)
        assert np.array_equal(mo.dense(rows, cols, params=params), mult_op_dense(a, rows, cols, params))
        assert np.array_equal(mo.dense(params=params), mult_op_dense(a, 12, 12, params))

    @pytest.mark.parametrize("M", [0, 1, 3, 8])
    @pytest.mark.parametrize("n", [1, 5, 24, 40])
    def test_apply_matches_entry_oracle(self, M, n):
        # the window length n need not equal the operator size
        rng = np.random.default_rng(100 + M)
        a = rng.standard_normal(M + 1)
        c = rng.standard_normal(n)
        want = mult_op_dense(a, n, n) @ c
        got = mult_op(a, M, 24).apply(c)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestExactlySolvable:
    # D and a(J) composed into Schrodinger operators -d^2/dx^2 + V with a known spectrum, V quadratic in t = tanh x

    @pytest.mark.parametrize("a,b", HALF_INTEGER_PAIRS + [(1.3, 0.2), (0.0, 0.0), (80.0, 80.0), (0.0, 1500.0),
                                                          (-0.999, 3.0)])
    @pytest.mark.parametrize("n", [3, 8, 64])
    def test_rosen_morse_ground_state(self, a, b, n):
        # phi_0 is a multiple of e^{kappa x} sech^lam x, kappa = (b - a)/2, lam = (a + b + 2)/2: the ground state of
        # V = lam(lam+1)(t^2 - 1) - 2 kappa lam t at E = -(kappa^2 + lam^2), so (-D^2 + A) e_0 = E e_0 exactly; the
        # residual over |E| is at most 5.6e-16 (at (-1/2, -1/2)), 0 at (80, 80)
        p = JacobiParams(a, b)
        kappa, lam = 0.5 * (b - a), 0.5 * (a + b + 2.0)
        E = -(kappa**2 + lam**2)
        e0 = np.eye(n)[0]
        coeffs = [-lam * (lam + 1.0) / math.sqrt(2.0), -2.0 * kappa * lam, 0.5 * lam * (lam + 1.0)]
        residual = mult_op(coeffs, 2, n).apply(e0, params=p) - diff_squared_apply(diff_coeffs(p, n + 2), e0) - E * e0
        assert np.max(np.abs(residual)) <= 5e-15 * abs(E)

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
    def test_poschl_teller_exact_eigenvalues(self, n):
        # V = -nu(nu+1) sech^2 x has E_j = -(nu - j)^2; at a = b = 1.3, nu = 4.3, psi_j / w is a polynomial for j = 0,
        # 2 (nu - j - (a + 1) = 2 - j, even and >= 0), so every truncation holds E_0 and E_2 exactly.  The
        # eigensolver resolves them to eps |H|: measured at most 0.89 eps |H| (1.3e-13 relative at n = 128)
        nu, p = 4.3, JacobiParams(1.3, 1.3)
        d = diff_coeffs(p, n + 2)  # the n x n window of the infinite -D^2 + A, D^2 by the padded diff_squared_apply
        A = mult_op([-nu * (nu + 1.0) / math.sqrt(2.0), 0.0, 0.5 * nu * (nu + 1.0)], 2, n).dense(params=p)
        H = A - np.column_stack([diff_squared_apply(d, col) for col in np.eye(n)])
        assert np.array_equal(H, H.T)
        eig = np.linalg.eigvalsh(H)
        for E in (-(nu**2), -((nu - 2.0) ** 2)):
            assert np.min(np.abs(eig - E)) <= 8.0 * np.finfo(float).eps * np.linalg.norm(H, 2), E


class TestBandedMatrix:
    @pytest.mark.parametrize("rows,cols,lb,ub", [(9, 7, 2, 1), (5, 8, 1, 3), (6, 6, 0, 0), (4, 4, 5, 5)])
    def test_to_dense_and_matvec_agree_with_get(self, rows, cols, lb, ub):
        rng = np.random.default_rng(rows * cols + lb)
        # a band lb below and ub above the diagonal, stored at the larger width:
        # fill every slot of its diagonals, including those that fall outside
        # the matrix, which to_dense and matvec must ignore
        bw = max(lb, ub)
        mat = BandedMatrix.zeros(rows, cols, bw)
        mat.data[bw - ub : bw + lb + 1] = rng.standard_normal((lb + ub + 1, cols))
        dense = mat.to_dense()
        v = rng.standard_normal(cols)
        got = mat.matvec(v)
        for i in range(rows):
            for j in range(cols):
                assert dense[i, j] == band_get(mat, i, j)
            want = math.fsum(band_get(mat, i, j) * v[j] for j in range(cols))
            assert abs(got[i] - want) <= 1e-14 * max(1.0, np.abs(dense[i]) @ np.abs(v))


class TestAssemble:
    @pytest.mark.parametrize("params,M", _over_pairs(BITWISE_PAIRS, [(0,), (1,), (3,), (8,)]))
    def test_matches_entry_oracle_bitwise(self, params, M):
        # the operator is taken in the basis of the DiffOp
        n = 20
        a = np.random.default_rng(50 + M).standard_normal(M + 1)
        bw = max(1, M)
        d = diff_coeffs(params, n + bw)
        want = mult_op_dense(a, n + bw, n, params)
        j = np.arange(n)
        want[j + 1, j] += d.b[:n]
        want[j[1:] - 1, j[1:]] -= d.b[: n - 1]
        L = assemble_first_order(d, mult_op(a, M, n), n)
        assert L.bw == bw
        assert np.array_equal(L.to_dense(), want)

    def test_pure_differentiation_band(self):
        d = diff_coeffs(T_PAIR, 10)
        zero_mult = mult_op([0.0], 0, 8)
        L = assemble_first_order(d, zero_mult, 8)
        dense = L.to_dense()
        assert L.rows == 9 and L.cols == 8
        want = np.zeros((9, 8))
        for j in range(8):
            want[j + 1, j] = d.b[j]
            if j >= 1:
                want[j - 1, j] = -d.b[j - 1]
        assert np.allclose(dense, want, atol=0.0)

    def test_bandwidth(self):
        d = diff_coeffs(T_PAIR, 40)
        mo = mult_op(np.ones(5), 4, 32)
        L = assemble_first_order(d, mo, 32)
        assert L.bw == 4
        dense = L.to_dense()
        i, j = np.nonzero(dense)
        assert np.max(np.abs(i - j)) <= 4

    def test_adjoint_symmetry(self):
        rng = np.random.default_rng(6)
        d = diff_coeffs(T_PAIR, 40)
        mo = mult_op(rng.standard_normal(4), 3, 32)
        L = assemble_first_order(d, mo, 32).to_dense()[:32, :32]
        A = mo.dense(32, 32)
        assert np.max(np.abs(L + L.T - 2.0 * A)) <= 1e-14


class TestBandedQR:
    @pytest.mark.parametrize(
        "seed,rows,cols,lb,ub",
        [
            pytest.param(0, 40, 36, 3, 2, id="0"),
            pytest.param(1, 40, 36, 3, 2, id="1"),
            pytest.param(2, 40, 36, 3, 2, id="2"),
            pytest.param(3, 30, 30, 0, 3, id="lb0"),
            pytest.param(4, 33, 30, 3, 0, id="ub0"),
            pytest.param(5, 25, 25, 2, 2, id="square"),
            pytest.param(6, 60, 50, 9, 7, id="wide-band"),
            # rows < cols + lb: the last reflectors are cut off by the bottom
            pytest.param(7, 32, 30, 5, 1, id="truncated-reflector"),
            # the QR works on panels of _PANEL = 32 columns: several full
            # panels and a ragged last one, with and without rows below
            pytest.param(8, 130, 100, 4, 3, id="ragged-panels"),
            pytest.param(9, 100, 100, 0, 3, id="lb0-panels"),
            pytest.param(10, 72, 70, 5, 1, id="truncated-reflector-panels"),
        ],
    )
    def test_against_dense_lstsq(self, seed, rows, cols, lb, ub):
        rng = np.random.default_rng(seed)
        # lb below and ub above the diagonal, stored at the larger width
        bw = max(lb, ub)
        mat = BandedMatrix.zeros(rows, cols, bw)
        for j in range(cols):
            for i in range(max(0, j - ub), min(rows, j + lb + 1)):
                mat.data[i - j + bw, j] = rng.standard_normal() + (2.0 if i == j else 0.0)
        rhs = rng.standard_normal(rows)
        x = banded_qr_lstsq(mat, rhs)
        want, *_ = np.linalg.lstsq(mat.to_dense(), rhs, rcond=None)
        assert np.max(np.abs(x - want)) <= 1e-10

    @pytest.mark.parametrize(
        "rows,cols,zero",
        [pytest.param(5, 4, 2, id="first-panel"), pytest.param(80, 75, 50, id="later-panel")],
    )
    def test_rank_deficiency_detected(self, rows, cols, zero):
        mat = BandedMatrix.zeros(rows, cols, 1)
        for j in range(cols):
            if j != zero:
                mat.data[1, j] = 1.0
        with pytest.raises(np.linalg.LinAlgError, match=rf"rank-deficient system: \|R\[{zero},{zero}\]\|"):
            banded_qr_lstsq(mat, np.ones(rows))

    @staticmethod
    def _assembled(params, n, m=8):
        rng = np.random.default_rng(12)
        a = np.concatenate([[3.0], rng.standard_normal(m) * 0.5 ** np.arange(1, m + 1)])
        mat = assemble_first_order(diff_coeffs(params, n + m), mult_op(a, m, n), n)
        return mat, rng.standard_normal(mat.rows) / (1.0 + np.arange(mat.rows))

    @pytest.mark.parametrize("params", [T_PAIR, JacobiParams(1.3, 0.2)], ids=["T", "1.3-0.2"])
    def test_assembled_system_at_scale(self, params):
        # n = 1024 against dense lstsq (1.4e-15 measured); n = 4096 by the normal equations,
        # |L^T r| <= C |L|_F |r| (C = 3.5e-15 measured), L^T r formed one stored diagonal at a time
        mat, rhs = self._assembled(params, 1024)
        want, *_ = np.linalg.lstsq(mat.to_dense(), rhs, rcond=None)
        assert np.max(np.abs(banded_qr_lstsq(mat, rhs) - want)) <= 1.5e-14
        mat, rhs = self._assembled(params, 4096)
        r = mat.matvec(banded_qr_lstsq(mat, rhs)) - rhs
        lt_r, fro2 = np.zeros(mat.cols), 0.0
        for k in range(-mat.bw, mat.bw + 1):
            lo, hi = max(0, -k), min(mat.cols, mat.rows - k)
            diag = mat.data[k + mat.bw, lo:hi]
            lt_r[lo:hi] += diag * r[lo + k : hi + k]
            fro2 += diag @ diag
        assert np.linalg.norm(lt_r) <= 4e-14 * math.sqrt(fro2) * np.linalg.norm(r)


class TestSolveFirstOrder:
    def test_zero_coefficient_rejected(self):
        d = diff_coeffs(T_PAIR, 20)
        mo = mult_op([0.0], 0, 16)
        rhs = Expansion(T_SPEC, np.zeros(16))
        with pytest.raises(ValueError, match="singular operator"):
            solve_first_order(d, mo, rhs, 16)

    def test_basis_mismatch_rejected(self):
        d = diff_coeffs(JacobiParams(0.5, 0.5), 20)
        rhs = Expansion(T_SPEC, np.ones(16))
        with pytest.raises(ValueError, match="DiffOp is for"):
            solve_first_order(d, mult_op([1.0], 0, 16), rhs, 16)

    def test_half_mode_rhs_equals_full(self):
        # a half-mode right-hand side names the same function as the full-mode
        # one: the same solution bits and residual, in the spec it came in
        d = diff_coeffs(T_PAIR, 20)
        mo = mult_op([1.0, 0.3], 1, 16)
        c = 0.5 ** np.arange(16)
        half = solve_first_order(d, mo, Expansion(BasisSpec(T_PAIR, "half"), c), 16)
        full = solve_first_order(d, mo, Expansion(T_SPEC, c), 16)
        assert half.expansion.coeffs.tobytes() == full.expansion.coeffs.tobytes()
        assert half.residual == full.residual
        assert half.expansion.spec.mode == "half"

    def test_manufactured_solution(self):
        # u = sech^{1/2} x tanh x, a = 1, f = u' + u; u is exactly
        # -sqrt(pi/2) phi_1 so the recovered coefficients are known
        n = 128
        uexact = lambda x: np.cosh(x) ** -0.5 * np.tanh(x)
        fexact = lambda x: np.cosh(x) ** -0.5 * (
            np.cosh(x) ** -2.0 - 0.5 * np.tanh(x) ** 2 + np.tanh(x)
        )
        d = diff_coeffs(T_PAIR, n + 1)
        mo = mult_op([math.sqrt(2.0)], 0, n)
        rhs = analyze_full(T_SPEC, fexact, n)
        result = solve_first_order(d, mo, rhs, n)
        want = analyze_full(T_SPEC, uexact, n).coeffs
        assert np.max(np.abs(result.expansion.coeffs - want)) <= 1e-9
        assert result.residual <= 1e-9
        assert math.isclose(result.expansion.coeffs[1], -math.sqrt(math.pi / 2.0), rel_tol=1e-12)

    def test_variable_coefficient_roundtrip(self):
        # manufactured with a genuinely banded a(x): pick u band-limited,
        # compute f = u' + a u pointwise, solve and compare
        rng = np.random.default_rng(33)
        n = 96
        a = np.array([1.5, 0.4, -0.2, 0.1])
        cu = rng.standard_normal(12) * 0.5 ** np.arange(12)
        u = Expansion(T_SPEC, cu)
        afun = _tilde_t_series(a)
        d = diff_coeffs(T_PAIR, n + 3)
        du = Expansion(T_SPEC, diff_apply(d, np.concatenate([cu, [0.0]])))
        f = lambda x: synthesize(du, x) + afun(x) * synthesize(u, x)
        rhs = analyze_full(T_SPEC, f, n)
        mo = mult_op(a, 3, n)
        result = solve_first_order(d, mo, rhs, n)
        assert np.max(np.abs(result.expansion.coeffs[:12] - cu)) <= 1e-9
        assert result.residual <= 1e-9

    def test_multi_panel_solve_matches_dense_lstsq(self):
        # N = 300 spans ten QR panels of the banded solve
        rng = np.random.default_rng(34)
        n, m = 300, 8
        a = np.concatenate([[3.0], rng.standard_normal(m) * 0.5 ** np.arange(1, m + 1)])
        d = diff_coeffs(T_PAIR, n + m)
        mo = mult_op(a, m, n)
        rhs = Expansion(T_SPEC, rng.standard_normal(n) / (1.0 + np.arange(n)))
        result = solve_first_order(d, mo, rhs, n)
        mat = assemble_first_order(d, mo, n)
        b = np.concatenate([rhs.coeffs, np.zeros(m)])
        want, *_ = np.linalg.lstsq(mat.to_dense(), b, rcond=None)
        assert np.max(np.abs(result.expansion.coeffs - want)) <= 1e-10
        assert math.isclose(result.residual, np.linalg.norm(mat.to_dense() @ want - b), rel_tol=1e-10)


#: (id, call, start of its ValueError message) for each input check of the module
ERROR_PATHS = [
    ("diff_apply-short", lambda: diff_apply(diff_coeffs(T_PAIR, 2), np.ones(3)),
     "DiffOp holds 2 couplings, need at least 3"),
    ("diff_apply-2d", lambda: diff_apply(diff_coeffs(T_PAIR, 4), np.ones((2, 2))),
     "coefficients must form a 1-d sequence (got shape (2, 2))"),
    ("diff_squared_apply-2d", lambda: diff_squared_apply(diff_coeffs(T_PAIR, 4), np.ones((2, 2))),
     "coefficients must form a 1-d sequence (got shape (2, 2))"),
    ("dense_diff-short", lambda: dense_diff(diff_coeffs(T_PAIR, 2), 4),
     "DiffOp holds 2 couplings, need at least 3"),
    ("dense_diff-negative", lambda: dense_diff(diff_coeffs(T_PAIR, 2), -1), "window size must be nonnegative (got -1)"),
    ("MultOp-empty", lambda: MultOp([], 4), "coefficient sequence must be nonempty and 1-d"),
    ("MultOp-2d", lambda: MultOp(np.ones((2, 2)), 4), "coefficient sequence must be nonempty and 1-d"),
    ("MultOp-nonfinite", lambda: MultOp([1.0, math.inf], 4), "coefficients must be finite"),
    ("MultOp-size", lambda: MultOp([1.0], 0), "size must be positive (got 0)"),
    ("MultOp.apply-2d", lambda: mult_op([1.0, 0.5], 1, 4).apply(np.ones((2, 2))),
     "coefficients must form a 1-d sequence (got shape (2, 2))"),
    ("mult_op-negative-bandwidth", lambda: mult_op([1.0], -1, 4), "bandwidth must be nonnegative (got -1)"),
    ("mult_op-past-bandwidth", lambda: mult_op([1.0, 0.0, 0.5], 1, 4),
     "nonzero coefficients beyond the declared bandwidth"),
    ("zeros-rows", lambda: BandedMatrix.zeros(0, 3, 1), "matrix dimensions must be positive"),
    ("matvec-length", lambda: BandedMatrix.zeros(3, 3, 1).matvec(np.ones(2)),
     "vector length 2 does not match 3 columns"),
    ("assemble-n", lambda: assemble_first_order(diff_coeffs(T_PAIR, 8), mult_op([1.0], 0, 8), 0),
     "truncation size must be positive (got 0)"),
    ("assemble-short", lambda: assemble_first_order(diff_coeffs(T_PAIR, 4), mult_op([1.0, 0.5], 1, 8), 4),
     "DiffOp holds 4 couplings, need at least 5"),
    ("qr-wide", lambda: banded_qr_lstsq(BandedMatrix.zeros(2, 3, 1), np.ones(2)),
     "system must have at least as many rows as columns"),
    ("qr-rhs-length", lambda: banded_qr_lstsq(BandedMatrix.zeros(3, 2, 1), np.ones(2)),
     "rhs length 2 does not match 3 rows"),
]


@pytest.mark.parametrize("call,start", [p[1:] for p in ERROR_PATHS], ids=[p[0] for p in ERROR_PATHS])
def test_error_paths(call, start):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError and str(err.value).startswith(start)


def test_empty_input_and_zero_tail():
    # an empty window maps to an empty one; zero coefficients past the bandwidth are dropped
    d = diff_coeffs(T_PAIR, 4)
    assert diff_apply(d, []).shape == (0,) and diff_squared_apply(d, []).shape == (0,)
    assert MultOp([1.0, 0.5], 4).apply([]).shape == (0,)
    op = mult_op([1.0, 0.5, 0.0, 0.0], 1, 8)
    assert op.bandwidth == 1 and op.a_coeffs.tolist() == [1.0, 0.5]
