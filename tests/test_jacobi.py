"""Polynomial evaluation and Gauss-Jacobi rules against closed forms."""

import functools
import math
import sys
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from tanhspec import (
    BasisSpec,
    Expansion,
    JacobiParams,
    analyze_full,
    clenshaw_eval,
    diff_apply,
    diff_coeffs,
    gauss_jacobi,
    phi_full,
    synthesize,
)
from tanhspec import jacobi as jacobi_mod
from tanhspec import transforms as transforms_mod
from tanhspec.jacobi import forward_sum, orthonormal_blocks, project, recurrence
from tanhspec.special import log_jacobi_norm

from oracles import (
    chebyshev_eval,
    couplings_closed_form,
    gauss_jacobi_mp,
    gauss_weights_rowwise,
    golub_welsch,
    jacobi_eval,
    jacobi_eval_batch,
    jacobi_explicit_sum,
    jacobi_norm,
    norm_ratio,
    one_basin,
    orthonormal_eval_batch,
    orthonormal_mp,
    orthonormal_rows,
    phi_full_direct,
    recurrence_coefficients,
    sweep_rowwise,
)

#: A recurrence with B = 0, so that its growth bound is 0 at t = 0, where _blocking gives the byte budget's rows.
_FLAT = jacobi_mod._table(np.zeros(2), np.ones(2))


def _blocks(p, count, t):
    """The kernel's blocks of q_0..q_{count-1} for the Jacobi pair p, started at q_0 = g_0^{-1/2}."""
    return orthonormal_blocks(recurrence(p, "jacobi", count), t, -0.5 * log_jacobi_norm(p))


#: The domain map of the Gauss-Jacobi rules: (a, b, sizes), every pair of the values at small n, and four pairs
#: with a parameter of 20 or more at n = 2048.
DOMAIN = (-0.99, 0.0, 2.0, 20.0, 80.0, 1e3)
DOMAIN_MAP = [(a, b, (1, 2, 16, 256)) for a in DOMAIN for b in DOMAIN] + [
    (a, b, (2048,)) for a, b in ((20.0, 5.0), (80.0, 80.0), (100.0, 0.0), (1000.0, 1000.0))
]
GRID_PAIRS = [(-0.9, -0.9), (-0.5, -0.5), (0.0, 0.0), (0.5, 0.5), (2.0, 0.3), (7.3, -0.5), (1.3, 0.2), (-0.5, 0.5)]
#: (a, b, n): regression inputs, rules with a parameter of 15 or more that a Newton start has got wrong (two nodes
#: finished on one root, or at (80, 80) no convergence)
NEWTON_REGRESSIONS = [(20.0, -0.5, 2), (15.0, 5.0, 31), (0.5, 15.0, 64), (-0.9, 15.0, 255), (15.0, 15.0, 512),
                      (15.0, 15.0, 2048), (80.0, 80.0, 64)]
#: The one regression cell whose Golub-Welsch weights miss 8 n^2 eps: its node next to t = 1 is 3.9e-15 off, so its
#: weight 1.3e-10; there the weights are held to the 40-digit rule
GOLUB_WELSCH_WEIGHTS_MISS = (-0.9, 15.0, 255)


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
        B, off = recurrence(p, "jacobi", 3000)[:2]
        rec = recurrence_coefficients(p, 3000)
        want = np.array([rec.C[m] * norm_ratio(p, m, +1) for m in range(3000)])
        assert np.array_equal(B, rec.B)
        assert np.max(np.abs(off / want - 1.0)) <= 2e-15

    @pytest.mark.parametrize("a,b", GRID_PAIRS)
    def test_rows_match_batch(self, a, b):
        # counts on both sides of the block boundaries K, 2K at 41 points
        p = JacobiParams(a, b)
        t = np.linspace(-0.999, 0.999, 41)
        k = jacobi_mod._blocking(_FLAT, np.zeros(t.size))[0]
        for count in (1, 2, k - 1, k, k + 1, 2 * k, 2 * k + 1):
            Q = orthonormal_eval_batch(p, count - 1, t)
            blocks = [s[:, None] * P * np.exp(ls) for s, P, ls in _blocks(p, count, t)]  # P: one reused buffer
            assert [len(blk) for blk in blocks[:-1]] == [k] * (len(blocks) - 1)
            rows = np.concatenate(blocks)
            assert rows.shape == Q.shape
            assert np.max(np.abs(rows - Q)) <= 1e-12 * np.max(np.abs(Q))

    def test_block_rows_fit_the_budget(self):
        for size, k in ((1, 64), (300, 64), (2048, 15), (4096, 8), (10**6, 8)):
            assert jacobi_mod._blocking(_FLAT, np.zeros(size))[0] == k

    def test_fill_is_the_factor_to_rounding(self):
        # the block product writes fl(fl(g t) - g B), or its fused form: within
        # 2 eps g (|t| + |B|) of g_m (t - B_m) in exact arithmetic, over the
        # kernel's blocks, among them two-row first (count 2) and one-row last
        # (count K + 1) blocks, partial last blocks and one point (run as two
        # equal columns, as the kernel runs it), on two pairs; with B = 0 it is
        # fl(g t) exactly; row 0 is the zero factor
        eps = np.finfo(float).eps
        rng = np.random.default_rng(3)
        for p in (JacobiParams(1.3, 0.2), JacobiParams(-0.999, 3.0)):
            for P in (1, 7, 5):
                t = rng.uniform(-1.0, 1.0, P)
                for zero_b in (False, True):
                    B, e = recurrence(p, "jacobi", 200)[:2]
                    table = jacobi_mod._table(np.zeros_like(B) if zero_b else B, e)
                    u = np.repeat(t, 2) if P == 1 else t
                    B, C, F = table.B, table.C, np.array([u, np.ones(u.size)])
                    g = C[1:, 0]
                    k = jacobi_mod._blocking(table, t)[0]
                    for count in (2, 3, k, k + 1, k + 5, 2 * k + 3):
                        for lo in range(0, count, k):
                            out = np.full((min(k, count - lo), u.size), np.nan)
                            jacobi_mod._fill(C, F, lo, out)
                            assert lo or not np.any(out[0]), (p, P, count)
                            for i in range(1 if lo == 0 else 0, len(out)):
                                m = lo + i - 1  # row lo + i carries the factor of degree lo + i - 1
                                if zero_b:
                                    assert np.array_equal(out[i, :P], g[m] * t), (p, P, count, m)
                                    continue
                                for j in range(P):
                                    exact = Fraction(g[m]) * (Fraction(t[j]) - Fraction(B[m]))
                                    err = abs(Fraction(out[i, j]) - exact)
                                    assert err <= 2.0 * eps * g[m] * (abs(t[j]) + abs(B[m])), (p, P, count, m)

    def test_fill_does_not_depend_on_the_shape(self):
        # BLAS rounds a product with one row by another path; the fill runs
        # such a block doubled, so a factor has the same bits in every block
        C = recurrence(JacobiParams(-0.999, 3.0), "jacobi", 40).C
        t = np.random.default_rng(5).uniform(-1.0, 1.0, 9)
        F = np.array([t, np.ones(9)])
        whole = np.empty((39, 9))
        jacobi_mod._fill(C, F, 1, whole)
        for lo in range(1, 40):
            one_row = np.empty((1, 9))
            jacobi_mod._fill(C, F, lo, one_row)
            assert np.array_equal(one_row[0], whole[lo - 1])

    def test_one_point_is_the_first_column_of_two(self):
        # the kernel runs one point as two equal columns and yields the first
        # as a contiguous block: its rows and log scales are those of the
        # point's column in a call on the point and its negative, on both
        # families, at points whose rows rescale (xi ~ 1e30) and points whose
        # rows do not; on the Jacobi side also those of its column of nine
        for family, t in (("jacobi", np.random.default_rng(5).uniform(-1.0, 1.0, 9)),
                          ("carlitz", np.array([1e30, -3e29, 2.5, 0.0, 40.0, -1e3]))):
            table = recurrence(JacobiParams(-0.999, 3.0), family, 400)
            many = np.concatenate([P.copy() for _, P, _ in orthonormal_blocks(table, t, 0.0)])
            last = []
            for j, tj in enumerate(t):
                one = [(s, P.copy(), ls) for s, P, ls in orthonormal_blocks(table, t[j : j + 1], np.zeros(1))]
                two = [(s, P.copy(), ls) for s, P, ls in orthonormal_blocks(table, np.array([tj, -tj]), np.zeros(2))]
                assert len(one) == len(two), (family, j)
                for (s1, P1, ls1), (s2, P2, ls2) in zip(one, two):
                    assert P1.shape == (len(s1), 1) and P1.flags.c_contiguous, (family, j)
                    assert np.array_equal(s1, s2) and np.array_equal(P1[:, 0], P2[:, 0]), (family, j)
                    assert ls1.shape == (1,) and ls1[0] == ls2[0], (family, j)
                if family == "jacobi":
                    assert np.array_equal(np.concatenate([P for _, P, _ in one])[:, 0], many[:, j]), j
                last.append(one[-1][2][0])
            assert family == "jacobi" or max(last) > 1e4  # q_399(1e30) is about e^26000

    @pytest.mark.parametrize("size", [1, 2, 300])
    def test_short_calls_match_rowwise(self, size):
        # every call starts from the carries (p_{-2}, p_{-1}) = (-1, 0), whose
        # first step gives p_0 = 1: calls of 1, 2, 3 and K - 1 rows (one block)
        # give the rows of the row-at-a-time recurrence bit for bit, on two
        # Jacobi pairs and on the Fourier side (B = 0, e = b_m); one row or one
        # point runs _fill's doubled path with the zero factor of row 0
        t = np.cos(np.linspace(0.1, 3.0, size))
        xi = np.linspace(-40.0, 40.0, size)
        for p in (JacobiParams(1.3, 0.2), JacobiParams(-0.999, 3.0)):
            for fourier in (False, True):
                points, log_start = (xi, 0.0) if fourier else (t, -0.5 * log_jacobi_norm(p))
                family = "carlitz" if fourier else "jacobi"
                k = jacobi_mod._blocking(recurrence(p, family, 64), points)[0]
                for count in (1, 2, 3, k - 1):
                    table = recurrence(p, family, count)
                    got = [(s_m, row.copy(), ls) for s, P, ls in orthonormal_blocks(table, points, log_start)
                           for s_m, row in zip(s, P)]
                    want = list(orthonormal_rows(table.B, table.e, count, points, log_start))
                    assert len(got) == len(want) == count, (p, fourier, count)
                    for (s_got, p_got, ls_got), (s_want, p_want, ls_want) in zip(got, want):
                        assert s_got == s_want and np.array_equal(ls_got, ls_want), (p, fourier, count)
                        assert np.array_equal(p_got, p_want), (p, fourier, count)
                    assert np.all(got[0][1] == 1.0)

    def test_project_is_the_transpose_of_forward_sum(self):
        # c . project(W) = W . forward_sum(c), relative to the size of the terms
        # of W . forward_sum(c): two Jacobi pairs, and the Fourier-side
        # recurrence at |xi| ~ 1e30, whose rows rescale, each point started at
        # about minus the log of its last row
        rng = np.random.default_rng(13)
        cases = []
        for p, t in ((JacobiParams(1.3, -0.5), np.linspace(-0.999, 0.999, 41)),
                     (JacobiParams(-0.999, 3.0), np.cos(np.linspace(0.01, 3.13, 41)))):
            cases.append((recurrence(p, "jacobi", 150), t, -0.5 * log_jacobi_norm(p)))
        carlitz = recurrence(JacobiParams(1.3, 0.2), "carlitz", 200)
        xi = np.array([1e30, -3e29, 2.5])
        log_xi = -np.sum(np.log1p(np.abs(xi)[:, None] / carlitz.e[:-1]), axis=1)
        rescaled = [ls is not log_xi for _, _, ls in orthonormal_blocks(carlitz, xi, log_xi)]
        assert any(rescaled)
        cases.append((carlitz, xi, log_xi))
        for table, points, log_start in cases:
            W = rng.standard_normal((3, points.size))
            c = rng.standard_normal((3, table.s.size))
            terms = W * forward_sum(table, c, points, log_start)
            lhs = np.sum(c * project(table, W, points, log_start), axis=-1)
            size = np.sum(np.abs(terms), axis=-1)
            assert np.all(np.isfinite(size)) and np.all(size > 0.0)
            assert np.max(np.abs(lhs - np.sum(terms, axis=-1)) / size) <= 1e-13

    def test_rows_past_the_float_range(self):
        # the Fourier-side recurrence (B = 0, e = b_m) at |xi| ~ 1e30 grows by
        # about e^69 a row: the blocks must be cut short and the rows carried
        # in the log scale.  Against the recurrence in 30-digit arithmetic.
        count, xi = 200, np.array([1e30, -3e29, 2.5])
        b = couplings_closed_form(JacobiParams(1.3, 0.2), count)
        with np.errstate(over="raise", invalid="raise"):
            got = [(s[:, None] * P, ls) for s, P, ls in
                   orthonormal_blocks(recurrence(JacobiParams(1.3, 0.2), "carlitz", count), xi, 0.0)]
        with mpmath.workdps(30):
            prev, q = [mpmath.mpf(0)] * xi.size, [mpmath.mpf(1)] * xi.size
            want = [q]
            for m in range(count - 1):
                back = mpmath.mpf(b[m - 1]) if m else 0
                prev, q = q, [(mpmath.mpf(x) * qk - back * pk) / mpmath.mpf(b[m]) for x, qk, pk in zip(xi, q, prev)]
                want.append(q)
            logs = np.array([[float(mpmath.log(abs(v))) for v in row] for row in want])
            signs = np.array([[float(mpmath.sign(v)) for v in row] for row in want])
        rows = np.concatenate([r for r, _ in got])
        scales = np.concatenate([np.broadcast_to(ls, r.shape) for r, ls in got])
        assert logs[-1, 0] > 1e4  # q_199(1e30) is about e^13000
        assert np.max(np.abs(rows * np.exp(scales - logs) - signs)) <= 1e-10


class TestRecurrenceTable:
    def test_built_once_per_pair_and_family(self, monkeypatch):
        # analyze_full at n = 64 sweeps its rule on 65 rows and reads b_63 from them; its projection and
        # synthesis read 64 rows, the derivative 65 couplings and 65 rows: one 65-row Jacobi build, no Carlitz
        # build, and every later call, a repeat of the whole included, reads that table
        builds, table = [], jacobi_mod._table
        monkeypatch.setattr(jacobi_mod, "_table", lambda B, e: builds.append(len(B)) or table(B, e))
        monkeypatch.setattr(jacobi_mod, "_TABLES", {})
        transforms_mod._rule_nodes.cache_clear()
        spec, x = BasisSpec(JacobiParams(1.3, 0.2)), np.linspace(-6.0, 6.0, 300)

        def run():
            e = analyze_full(spec, lambda x: np.exp(-x * x), 64)
            values = synthesize(e, x)
            de = Expansion(spec, diff_apply(diff_coeffs(spec.params, 65), np.append(e.coeffs, 0.0)))
            return e.coeffs, values, synthesize(de, x)

        first = run()
        assert builds == [65] and list(jacobi_mod._TABLES) == [(spec.params, "jacobi")]
        second = run()
        assert builds == [65] and list(jacobi_mod._TABLES) == [(spec.params, "jacobi")]
        assert all(np.array_equal(a, b) for a, b in zip(first, second))

    @pytest.mark.parametrize("family", ["jacobi", "carlitz"])
    @pytest.mark.parametrize("a,b", [(1.3, 0.2), (80.0, 80.0), (-0.999, 3.0), (0.0, 1500.0)])
    def test_prefix_is_a_fresh_build(self, monkeypatch, family, a, b):
        # after a K-row build, n in {1, 2, K - 1, K} rows are views of its first n rows and K + 1 rebuilds it once;
        # each is the table a fresh build of n rows gives, bit for bit, and so are the kernel's
        # blocks on it at points whose rows rescale (t next to +-1 at (80, 80), xi = 1e30); its couplings b,
        # and diff_coeffs(p, n).b, are read-only and bitwise the closed form
        p, K = JacobiParams(a, b), 300
        builds, build = [], jacobi_mod._table
        monkeypatch.setattr(jacobi_mod, "_table", lambda B, e: builds.append(len(B)) or build(B, e))
        monkeypatch.setattr(jacobi_mod, "_TABLES", {})
        points = np.array([-1.0 + 2.0**-40, 1.0 - 2.0**-40, 0.3] if family == "jacobi" else [1e30, -2.5, 40.0])
        recurrence(p, family, K)
        rescaled = False
        for n in (1, 2, K - 1, K, K + 1):
            del builds[:]
            got = recurrence(p, family, n)
            assert builds == ([n] if n > K else []), n
            for b_m in (got.b, diff_coeffs(p, n).b) if family == "jacobi" else (got.b, got.e):
                assert not b_m.flags.writeable and b_m.tobytes() == couplings_closed_form(p, n).tobytes(), n
            cache = jacobi_mod._TABLES
            monkeypatch.setattr(jacobi_mod, "_TABLES", {})
            fresh = recurrence(p, family, n)
            monkeypatch.setattr(jacobi_mod, "_TABLES", cache)
            for x, y in zip(got, fresh):
                assert np.shape(x) == np.shape(y) and np.asarray(x).tobytes() == np.asarray(y).tobytes(), n
            assert not any(arr.flags.writeable for arr in got), n
            blocks = [[(s.copy(), P.copy(), ls) for s, P, ls in orthonormal_blocks(table, points, 0.0)]
                      for table in (got, fresh)]
            assert len(blocks[0]) == len(blocks[1]), n
            for (s1, P1, ls1), (s2, P2, ls2) in zip(*blocks):
                assert s1.tobytes() == s2.tobytes() and P1.tobytes() == P2.tobytes(), n
                assert np.asarray(ls1).tobytes() == np.asarray(ls2).tobytes(), n
                rescaled |= bool(np.any(np.asarray(ls1) != 0.0))
        assert rescaled or family == "jacobi" and (a, b) != (80.0, 80.0)

    @pytest.mark.parametrize("family", ["jacobi", "carlitz"])
    @pytest.mark.parametrize("a,b", [(1.3, 0.2), (-0.9, -0.9), (0.0, 0.0), (0.0, 1500.0)])
    def test_prefix_reads_are_views_with_their_own_growth_bound(self, monkeypatch, family, a, b):
        # a prefix read holds views of the pair's table, and _blocking takes the growth bound from the rows it is
        # given: on a prefix the same (K, every) as on a fresh _table of those rows
        p = JacobiParams(a, b)
        monkeypatch.setattr(jacobi_mod, "_TABLES", {})
        table = recurrence(p, family, 300)
        for n in (1, 2, 8, 299):
            got = recurrence(p, family, n)
            assert all(np.shares_memory(x, y) for x, y in zip(got, table)), n
            fresh = jacobi_mod._table(table.B[:n], table.e[:n])
            for t in ([0.3], [-1.0 + 2.0**-40, 1.0], [-2.5, 40.0, 1e30]):
                assert jacobi_mod._blocking(got, np.array(t)) == jacobi_mod._blocking(fresh, np.array(t)), (n, t)

    def test_prefix_growth_bound_below_the_tables(self):
        # at (-0.9, -0.9) the first two rows' max g_m, 1.1, lies below the 300-row table's, 8.8 (at m = 2): the
        # prefix checks its carries every 5 blocks of 64 rows at t = 1, the table every block
        p, t = JacobiParams(-0.9, -0.9), np.array([1.0])
        table, prefix = recurrence(p, "jacobi", 300), recurrence(p, "jacobi", 2)
        assert prefix.C[1:, 0].max() < table.C[1:, 0].max()
        assert jacobi_mod._blocking(prefix, t) == (64, 5) and jacobi_mod._blocking(table, t) == (64, 1)

    def test_cached_arrays_are_read_only(self):
        for family in ("jacobi", "carlitz"):
            table = recurrence(JacobiParams(1.3, 0.2), family, 64)
            for arr in (table.B, table.e, table.s, table.C, table.b):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1.0


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

    @pytest.mark.parametrize("a,b", [(1.3, 0.2), (-0.9, -0.9), (80.0, 80.0)])
    def test_array_equals_batch_row_bitwise(self, a, b):
        p = JacobiParams(a, b)
        pts = np.linspace(-1.0, 1.0, 33)
        table = jacobi_eval_batch(p, 300, pts)
        for m in (0, 1, 2, 17, 300):
            assert jacobi_eval(p, m, pts).tobytes() == table[m].tobytes()
            assert jacobi_eval(p, m, float(pts[5])) == table[m, 5]

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


def _assert_angles_give_nodes(rule):
    """A rule's angles strictly decrease inside (0, pi), and their cosines are its nodes bitwise."""
    assert np.cos(rule.angles).tobytes() == rule.nodes.tobytes()
    assert np.all(np.diff(rule.angles) < 0.0) and 0.0 < rule.angles[-1] and rule.angles[0] < math.pi


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
            _assert_angles_give_nodes(rule)
            assert np.all(rule.weights > 0.0)
            assert math.isclose(float(rule.weights.sum()), jacobi_norm(p, 0), rel_tol=1e-12)

    @pytest.mark.parametrize("a", [-0.9, 0.0, 2.0, 80.0, 1000.0])
    def test_symmetric_rule_is_mirrored(self, a):
        # at a = b the sweeps find the angles up to pi/2 and mirror them to
        # pi - theta, with the same log weights, bit for bit
        for n in (1, 2, 7, 64, 2048):
            rule = gauss_jacobi(JacobiParams(a, a), n)
            assert rule.log_weights.tobytes() == rule.log_weights[::-1].tobytes(), n
            assert np.array_equal(rule.angles[: n // 2], math.pi - rule.angles[::-1][: n // 2]), n

    def test_interlacing(self):
        p = JacobiParams(1.3, 0.2)
        for n in (3, 9, 20):
            small = gauss_jacobi(p, n).nodes
            big = gauss_jacobi(p, n + 1).nodes
            # strict interlacing: each small node sits between consecutive big ones
            for k in range(n):
                assert big[k] < small[k] < big[k + 1]

    @pytest.mark.parametrize("a,b", [(1.3, 0.2), (-0.9, -0.9), (2.0, 5.0), (80.0, 80.0), (-0.999, 3.0)])
    def test_weights_match_rowwise_sum(self, a, b):
        # the blocked sum of q^2 reorders the additions, so a tolerance
        # fixed in advance rather than bitwise equality
        p = JacobiParams(a, b)
        for n in (1, 7, 64, 65, 300, 2048):
            rule = gauss_jacobi(p, n)
            want = gauss_weights_rowwise(p, rule.nodes)[0]
            assert np.max(np.abs(rule.weights - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("a,b", [(1.3, 0.2), (80.0, 80.0)])
    def test_sweep_matches_rowwise(self, a, b):
        # q_{n-1}, q_n exactly (the sum that picks them out adds a -0 to +0,
        # as at the odd q_n(0) of a symmetric pair) and the log weights, whose
        # difference is the weights' relative error, to the reordering of the
        # blocked sum, for every n whose row q_n lands in the
        # first, second-to-last or last slot of one of the first three blocks;
        # at (80, 80) the points next to t = +-1 rescale their rows
        p = JacobiParams(a, b)
        t = np.array([-0.9999, -0.999, -0.5, 0.0, 0.3, 0.999, 0.9999])
        checked = set()
        for n in range(1, 200):
            k = jacobi_mod._blocking(recurrence(p, "jacobi", n + 1), t)[0]
            if n % k not in (0, k - 2, k - 1) or n >= 3 * k:
                continue
            checked.add(n % k)
            q_prev, q_n, w = jacobi_mod._sweep(p, n, t)
            want = sweep_rowwise(p, n, t)
            assert np.array_equal(q_prev, want[0]) and np.array_equal(q_n, want[1]), n
            assert np.max(np.abs(w - want[2])) <= 1e-14, n
        assert len(checked) == 3

    def test_cold_rule_memory(self):
        # n = 4096: the block buffer is 9 x 32 KiB; an n x n table would be 128 MiB
        p = JacobiParams(1.3, 0.2)
        gauss_jacobi(p, 8)  # first-call set-up outside the measurement
        tracemalloc.start()
        try:
            gauss_jacobi(p, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("a,b,sizes", [(a, b, (1, 2, 7, 64, 300, 2048)) for a, b in GRID_PAIRS] + [
        (a, b, (n,)) for a, b, n in NEWTON_REGRESSIONS
    ], ids=[f"{a}-{b}" for a, b in GRID_PAIRS] + [f"{a}-{b}-n{n}" for a, b, n in NEWTON_REGRESSIONS])
    def test_newton_matches_golub_welsch(self, a, b, sizes):
        # bounds about ten times the worst error over GRID_PAIRS: 2.9e-15 on
        # the nodes, 0.81 n^2 eps on the weights, which are evaluated at the
        # rule's own nodes and so move with them by about n^2 times as much
        p = JacobiParams(a, b)
        for n in sizes:
            rule, want = gauss_jacobi(p, n), golub_welsch(p, n)
            assert np.max(np.abs(rule.nodes - want.nodes)) <= 3e-14, n
            weights = want.weights
            if (a, b, n) == GOLUB_WELSCH_WEIGHTS_MISS:
                weights = np.array([float(w) for w in gauss_jacobi_mp(a, b, rule.nodes)[1]])
            assert np.max(np.abs(rule.weights / weights - 1.0)) <= 8.0 * n * n * np.finfo(float).eps, n

    @pytest.mark.parametrize("a,b", [(1.3, 0.2), (0.0, 0.0)])
    def test_two_sweeps(self, a, b, monkeypatch):
        # the Q-corrected step finishes every node in the second sweep here; at
        # a = b the sweeps run on the (n + 1) // 2 angles up to pi/2
        sizes = []

        def counted(params, n, t, *count):
            sizes.append(t.size)
            return sweep(params, n, t, *count)

        sweep = jacobi_mod._sweep
        monkeypatch.setattr(jacobi_mod, "_sweep", counted)
        for n in (64, 300, 2048):
            sizes.clear()
            gauss_jacobi(JacobiParams(a, b), n)
            assert len(sizes) == 2 and sizes[0] == (n if a != b else (n + 1) // 2), (n, sizes)

    @pytest.mark.parametrize("a,b", [
        (80.0, 80.0), (1000.0, 1000.0), (0.0, 1500.0), (7.0, 1e6), (1e6, 1e6), (50.0, -0.5), (100.0, 0.0),
        (15.0, 15.0), (20.0, 5.0), (0.999999, -0.999999),  # the last: the end node next to -1
    ])
    def test_sweep_budget(self, a, b, monkeypatch):
        # Newton from the Liouville-Green angles finishes with at least one
        # sweep of its budget to spare: at large pairs, at very unequal ones
        # and next to -1
        sweeps = []
        sweep = jacobi_mod._newton_sweep
        monkeypatch.setattr(jacobi_mod, "_newton_sweep", lambda *args: sweeps.append(args[-1].size) or sweep(*args))
        for n in (1, 2, 3, 16, 257, 1024):
            sweeps.clear()
            gauss_jacobi(JacobiParams(a, b), n)
            assert len(sweeps) <= jacobi_mod._MAX_SWEEPS - 1, (n, sweeps)

    def test_unfinished_rule_raises(self, monkeypatch):
        # one sweep finishes only some of the (80, 80) nodes
        monkeypatch.setattr(jacobi_mod, "_MAX_SWEEPS", 1)
        with pytest.raises(RuntimeError, match="unfinished after 1 Newton sweeps"):
            gauss_jacobi(JacobiParams(80.0, 80.0), 64)

    def test_two_nodes_on_one_root_raise(self, monkeypatch):
        # two start angles in one basin: Newton finishes both on one root, a
        # few ulps apart, with one node missing; only the spacing certificate
        # sees it
        monkeypatch.setattr(jacobi_mod, "_start_angles", one_basin(jacobi_mod._start_angles))
        with pytest.raises(RuntimeError, match="Sturm's spacing"):
            gauss_jacobi(JacobiParams(1.3, 0.2), 64)

    @pytest.mark.parametrize("a,b,sizes", [(a, b, (1, 2, 7, 64, 300, 2048)) for a, b in GRID_PAIRS] + DOMAIN_MAP,
                             ids=[f"{a}-{b}" for a, b in GRID_PAIRS] + [f"{a}-{b}-map" for a, b, _ in DOMAIN_MAP])
    def test_spacing_of_valid_rules(self, a, b, sizes):
        # Sturm's bound holds with room to spare on the library's rule and
        # on Golub-Welsch's (measured: >= 1 - 1e-12 on both), so the
        # certificate refuses no valid rule
        p = JacobiParams(a, b)
        for n in sizes:
            for rule in (gauss_jacobi(p, n), golub_welsch(p, n)):
                assert jacobi_mod._spacing(p, rule.angles) >= 1.0 - jacobi_mod._SPACING_SLACK, n

    @pytest.mark.parametrize("a,b,end,side", [(1e3, math.nextafter(-1.0, 0.0), 0, -1.0),
                                              (math.nextafter(-1.0, 0.0), 1e3, -1, 1.0)])
    def test_node_that_rounds_onto_an_end_stays_one_float_inside(self, a, b, end, side):
        # the 40-digit node next to the end at the partner of 1e3 lies within
        # 2.2e-19 of it and rounds onto it, where the weight is singular; the
        # rule keeps it at the last float inside, and the log weights within
        # 3e-10 of 40 digits (measured 5.8e-11)
        for n in (1, 2):
            rule = gauss_jacobi(JacobiParams(a, b), n)
            exact_nodes, exact_weights = gauss_jacobi_mp(a, b, rule.nodes)
            assert float(exact_nodes[end]) == side and rule.nodes[end] == math.nextafter(side, 0.0), n
            exact = np.array([float(mpmath.log(w)) for w in exact_weights])
            assert np.max(np.abs(rule.log_weights - exact)) <= 3e-10, n

    @pytest.mark.parametrize("a,b,n", [(0.0, 1500.0, 4), (1e5, 0.0, 8)])
    def test_weights_above_the_float_range_have_logs(self, a, b, n):
        # the weights sum to 2^(a+b+1) B(a+1, b+1) > 1.8e308, and the log of
        # that sum, formed from the log weights, is ln g_0
        p = JacobiParams(a, b)
        rule = gauss_jacobi(p, n)
        assert np.all(np.isfinite(rule.log_weights))
        top = float(rule.log_weights.max())
        total = top + math.log(math.fsum(np.exp(rule.log_weights - top)))
        assert abs(total - log_jacobi_norm(p)) <= 1e-15 * abs(log_jacobi_norm(p))

    @pytest.mark.parametrize("a,b,sizes", DOMAIN_MAP, ids=[f"{a}-{b}-n{','.join(map(str, n))}" for a, b, n in DOMAIN_MAP])
    def test_domain_map_without_scipy(self, a, b, sizes, monkeypatch):
        # each rule is built with scipy unimportable and
        # held to the bounds of test_newton_matches_golub_welsch, on the
        # weights that are normal floats (at (1000, 1000) the smallest
        # underflow).  Where the weights miss 8 n^2 eps (a parameter 1e3 and
        # n <= 16, and (80, -0.99) at n = 256), the sum with float recurrence
        # coefficients errs as much at the 40-digit nodes, so the rule must be
        # as close to the 40-digit weights as Golub-Welsch is, to 8 n^2 eps.
        # Two roundings of a weight add to that where they pass it: half an
        # ulp of ln w (5.7e-14 relative near e^700), and a node one ulp off,
        # which moves ln w by d ln w/dt = (b+1)/(1+t) - (a+1)/(1-t) per unit
        # of t (Jacobi's equation at a node).  Both rules start from the
        # library's ln g_0, whose error moves every log weight alike, so the
        # 40-digit weights are compared in units of that g_0: a shared error
        # cannot hide a rule's own
        p = JacobiParams(a, b)
        for n in sizes:
            with monkeypatch.context() as m:
                m.setitem(sys.modules, "scipy", None)
                rule = gauss_jacobi(p, n)
            want = golub_welsch(p, n)
            t = rule.nodes
            slack = 0.5 * np.spacing(np.abs(rule.log_weights)) + np.abs(
                (b + 1.0) / (1.0 + t) - (a + 1.0) / (1.0 - t)
            ) * np.spacing(np.abs(t))
            bound = 8.0 * n * n * np.finfo(float).eps
            bound = bound + np.where(slack > bound, slack, 0.0)
            assert np.max(np.abs(rule.nodes - want.nodes)) <= 3e-14, n
            _assert_angles_give_nodes(rule)
            assert np.all(rule.weights >= 0.0) and np.all(np.isfinite(rule.weights)), n
            normal = want.weights >= np.finfo(float).tiny
            if np.any(np.abs(rule.weights[normal] / want.weights[normal] - 1.0) > bound[normal]):
                with mpmath.workdps(40):
                    ma, mb = mpmath.mpf(a), mpmath.mpf(b)
                    shared = log_jacobi_norm(p) - (ma + mb + 1) * mpmath.log(2) - mpmath.log(mpmath.beta(ma + 1, mb + 1))
                    exact = np.array([float(w * mpmath.exp(shared)) for w in gauss_jacobi_mp(a, b, rule.nodes)[1]])
                err, err_gw = (np.abs(w / exact - 1.0) for w in (rule.weights, want.weights))
                assert np.all(err <= err_gw.max() + bound), (n, err.max(), err_gw.max())

    @pytest.mark.parametrize("a,b,n", [(1000.0, 1000.0, 7), (1000.0, 1000.0, 16), (1000.0, 1000.0, 300), (-0.9, 1000.0, 10)])
    def test_large_parameters_raise_nothing(self, a, b, n):
        # a Newton attempt that overflows or underflows (the last case squares
        # a subnormal) fails its certificate instead of raising
        with np.errstate(all="raise"):
            rule = gauss_jacobi(JacobiParams(a, b), n)
        assert np.all(np.diff(rule.nodes) > 0.0) and -1.0 < rule.nodes[0] and rule.nodes[-1] < 1.0
        assert np.all(rule.weights > 0.0) and np.all(np.isfinite(rule.weights))

    @pytest.mark.parametrize("n", [500, 1000, 1500, 2048])
    def test_weights_past_the_float_range(self, n):
        # at (1000, 1000) sum_m q_m^2 passes the float range (n >= 500) and so
        # does its log scale (n >= 1500): the weights exp(-log scale)^2 / sum p^2
        # form neither, and the smallest underflow to 0
        p = JacobiParams(1000.0, 1000.0)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            rule = gauss_jacobi(p, n)
        assert np.all(rule.weights >= 0.0) and np.all(np.isfinite(rule.weights))
        assert abs(math.log(math.fsum(rule.weights)) - log_jacobi_norm(p)) <= 1e-13

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


# Each pair's bound is about ten times the worst error, over n = 300 and 1000
# and all three quantities, of the unscaled recurrence q_{m+1} = ((t - B_m) q_m
# - e_{m-1} q_{m-1}) / e_m with backward Clenshaw synthesis.  At (-0.999, 3) the
# error (1e-10 on the rows at n = 1000) comes from the rounding of the float
# coefficients next to t = 1, not from the kernel's arithmetic.
MP_BOUNDS = {(1.3, 0.2): 2e-11, (-0.9, -0.9): 2e-10, (-0.999, 3.0): 2e-9, (80.0, 80.0): 2e-12}


@functools.lru_cache(maxsize=None)
def _rule_and_mp_rows(a, b, n):
    """The n-point rule, 24 of its nodes (both ends and a spread) and the
    40-digit q_m, m < n, at those float nodes."""
    rule = gauss_jacobi(JacobiParams(a, b), n)
    spread = np.linspace(0, n - 1, 12).round().astype(int)
    idx = np.unique(np.concatenate([np.arange(6), np.arange(n - 6, n), spread]))
    rows = orthonormal_mp(a, b, n, rule.nodes[idx])
    return rule, idx, np.array([[float(v) for v in row] for row in rows])


class TestKernelAgainstMpmath:
    """Rows, Gauss weights and synthesis of the recurrence kernel against 40 digits."""

    @pytest.mark.parametrize("n", [300, 1000])
    @pytest.mark.parametrize("a,b", list(MP_BOUNDS))
    def test_rows(self, a, b, n):
        # error relative to the norm sqrt(sum_m q_m^2) of each node's column
        rule, idx, want = _rule_and_mp_rows(a, b, n)
        t = rule.nodes[idx]
        blocks = _blocks(JacobiParams(a, b), n, t)
        got = np.concatenate([s[:, None] * P * np.exp(ls) for s, P, ls in blocks])
        col = np.sqrt(np.sum(want**2, axis=0))
        assert np.max(np.abs(got - want) / col) <= MP_BOUNDS[(a, b)]

    @pytest.mark.parametrize("n", [300, 1000])
    @pytest.mark.parametrize("a,b", list(MP_BOUNDS))
    def test_gauss_weights(self, a, b, n):
        # at the rule's own float nodes, so node errors do not enter
        rule, idx, want = _rule_and_mp_rows(a, b, n)
        with mpmath.workdps(40):
            w = np.array([float(1 / mpmath.fsum(mpmath.mpf(v) ** 2 for v in col)) for col in want.T])
        assert np.max(np.abs(rule.weights[idx] - w) / w) <= MP_BOUNDS[(a, b)]

    @pytest.mark.parametrize("n", [300, 1000])
    @pytest.mark.parametrize("a,b", list(MP_BOUNDS))
    def test_synthesis(self, a, b, n):
        # sum_m c_m phi_m(x) at t = np.tanh(x), the library's rounding of t, and
        # the weight from x itself; error relative to sum_m |c_m phi_m(x)|
        c = np.random.default_rng(7).standard_normal(n)
        x = np.linspace(-8.0, 8.0, 17)
        rows = orthonormal_mp(a, b, n, np.tanh(x))
        want, size = [], []
        with mpmath.workdps(40):
            for k, xk in enumerate(x):
                th = mpmath.tanh(mpmath.mpf(float(xk)))
                w = (1 - th) ** ((mpmath.mpf(a) + 1) / 2) * (1 + th) ** ((mpmath.mpf(b) + 1) / 2)
                terms = [(-1) ** m * mpmath.mpf(float(c[m])) * rows[m][k] for m in range(n)]
                want.append(float(w * mpmath.fsum(terms)))
                size.append(float(w * mpmath.fsum(abs(v) for v in terms)))
        got = clenshaw_eval(Expansion(BasisSpec(JacobiParams(a, b), "full"), c), x)
        assert np.max(np.abs(got - np.array(want)) / np.array(size)) <= MP_BOUNDS[(a, b)]

    @pytest.mark.parametrize("a,b", list(MP_BOUNDS))
    def test_basis_functions(self, a, b):
        # phi_m, m = 300 and 301, at the library's rounding of t = tanh x, the
        # weight from x itself; error relative to the largest |phi_m| on the
        # grid.  At a = b, the half-mode spec names the same function, evaluated
        # in the same t.
        x = np.linspace(-8.0, 8.0, 17)
        rows = orthonormal_mp(a, b, 302, np.tanh(x))
        for m in (300, 301):
            want = _phi_mp(a, b, m, x, rows)
            got = [phi_full(BasisSpec(JacobiParams(a, b), "full"), m, x)]
            if a == b:
                got.append(phi_full(BasisSpec(JacobiParams(a, a), "half"), m, x))
            for g in got:
                assert np.max(np.abs(g - want)) <= MP_BOUNDS[(a, b)] * np.max(np.abs(want)), m

    @pytest.mark.parametrize("a", [0.0, -0.9])
    def test_half_range_next_to_the_origin(self, a):
        # half-mode phi_m at high degree at and next to x = 0, where the (a, -+1/2)
        # rows in u = 1 - 2 sech^2 x erred up to 2.9e-10; error relative to the
        # largest |phi_m| on [-8, 8]
        x = np.array([0.0, 1e-8, 1e-4, 1e-2, 0.3])
        rows = orthonormal_mp(a, a, 2002, np.tanh(x))
        for m in (2000, 2001):
            want = _phi_mp(a, a, m, x, rows)
            top = np.max(np.abs(phi_full_direct(BasisSpec(JacobiParams(a, a), "full"), m, np.linspace(-8.0, 8.0, 1601))))
            got = phi_full(BasisSpec(JacobiParams(a, a), "half"), m, x)
            assert np.max(np.abs(got - want)) <= 1e-13 * top, m


def _phi_mp(a, b, m, x, rows):
    """(-1)^m w(x) q_m(t) in 40 digits from the rows of orthonormal_mp at t = np.tanh(x), the weight
    w = (1 - tanh x)^((a+1)/2) (1 + tanh x)^((b+1)/2) from x itself."""
    want = []
    with mpmath.workdps(40):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        for j, xj in enumerate(x):
            th = mpmath.tanh(mpmath.mpf(float(xj)))
            w = (1 - th) ** ((ma + 1) / 2) * (1 + th) ** ((mb + 1) / 2)
            want.append(float((-1) ** m * w * rows[m][j]))
    return np.array(want)


_TABLE = recurrence(JacobiParams(1.3, 0.2), "jacobi", 4)


@pytest.mark.parametrize("call,error,start", [
    (lambda: recurrence(JacobiParams(0.0, 0.0), "jacobi", 0), ValueError, "count must be positive (got 0)"),
    (lambda: gauss_jacobi(JacobiParams(0.0, 0.0), 0), ValueError, "rule size must be positive (got 0)"),
    (lambda: recurrence(JacobiParams(0.0, 0.0), "hermite", 4), ValueError, "unknown recurrence family 'hermite'"),
    (lambda: recurrence(JacobiParams(1e308, 1e308), "jacobi", 4), OverflowError,
     "alpha + beta is past the float range at JacobiParams(alpha=1e+308, beta=1e+308)"),
    (lambda: recurrence(JacobiParams(1e308, 1e308), "carlitz", 4), OverflowError,
     "alpha + beta is past the float range at JacobiParams(alpha=1e+308, beta=1e+308)"),
    (lambda: next(orthonormal_blocks(_TABLE, 0.5, 0.0)), ValueError, "points must be 1-d (got shape ())"),
    (lambda: forward_sum(_TABLE, np.ones(4), 0.5, 0.0), ValueError, "points must be 1-d (got shape ())"),
    (lambda: forward_sum(_TABLE, np.ones(4), np.zeros((2, 3)), 0.0), ValueError,
     "points must be 1-d (got shape (2, 3))"),
    (lambda: project(_TABLE, np.ones((2, 3)), np.zeros((2, 3)), 0.0), ValueError,
     "points must be 1-d (got shape (2, 3))"),
], ids=["recurrence-0", "gauss_jacobi-0", "recurrence-family", "recurrence-overflow-jacobi",
        "recurrence-overflow-carlitz", "blocks-scalar", "forward_sum-scalar", "forward_sum-2d", "project-2d"])
def test_error_paths(call, error, start):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value).startswith(start)
