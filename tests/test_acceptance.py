"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they happen.  Every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from tanhspec import (
    BasisSpec,
    Expansion,
    JacobiParams,
    analyze_full,
    analyze_half,
    carlitz_eval,
    dense_diff,
    diff_apply,
    diff_coeffs,
    diff_squared_apply,
    fourier_transform,
    g_weight,
    gauss_jacobi,
    measure_density,
    mult_op,
    normalisation_constant,
    phi_full,
    solve_first_order,
    synthesize,
)
from tanhspec import transforms as transforms_mod
from tanhspec.cli import main as cli_main, read_table

from oracles import direct_fourier, fd_derivative, gauss_panels, orthonormal_eval_batch, phi_full_direct, phi_half_direct

GRAM_PAIRS = [(-0.5, -0.5), (0.5, 0.5), (-0.5, 0.5), (0.0, 0.0), (1.3, 0.2)]
CHEB_PAIRS = [(-0.5, -0.5), (0.5, 0.5), (0.5, -0.5), (-0.5, 0.5)]


def _report(number: int, name: str, failed: bool = False) -> None:
    print(f"[criterion {number}] {name}: {'FAIL' if failed else 'PASS'}")


class _Criterion:
    # context manager so a failing assertion still emits its FAIL line
    def __init__(self, number, name):
        self.number = number
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _report(self.number, self.name, failed=exc_type is not None)
        return False


def test_criterion_1_orthonormality():
    with _Criterion(1, "orthonormality of the basis (Gram vs identity)"):
        for a, b in GRAM_PAIRS:
            p = JacobiParams(a, b)
            rule = gauss_jacobi(p, 256)
            Q = orthonormal_eval_batch(p, 31, rule.nodes)
            signs = (-1.0) ** np.arange(32)
            rows = Q * signs[:, None]
            gram = np.einsum("k,ik,jk->ij", rule.weights, rows, rows)
            assert np.max(np.abs(gram - np.eye(32))) <= 1e-10, (a, b)


def test_criterion_2_differentiation_matrix():
    with _Criterion(2, "tridiagonal differentiation couplings"):
        rng = np.random.default_rng(1234)
        xs = rng.uniform(-5.0, 5.0, 50)
        for a, b in [(-0.5, -0.5), (0.5, 0.5), (1.3, 0.2)]:
            spec = BasisSpec(JacobiParams(a, b))
            d = diff_coeffs(spec.params, 22)
            worst = 0.0
            for m in range(21):
                coupled = d.b[m] * phi_full(spec, m + 1, xs)
                if m >= 1:
                    coupled = coupled - d.b[m - 1] * phi_full(spec, m - 1, xs)
                fd = np.array([fd_derivative(lambda y: phi_full_direct(spec, m, y), x, 1e-5) for x in xs])
                worst = max(worst, float(np.max(np.abs(fd - coupled))))
            assert worst <= 1e-7, (a, b, worst)
        # closed forms: affine in m for the two symmetric Chebyshev pairs
        m = np.arange(101, dtype=float)
        b_u = diff_coeffs(JacobiParams(0.5, 0.5), 101).b
        assert np.max(np.abs(b_u - 0.5 * (m + 1.5)) / (0.5 * (m + 1.5))) <= 1e-14
        b_t = diff_coeffs(JacobiParams(-0.5, -0.5), 101).b
        assert np.max(np.abs(b_t[1:] - 0.5 * (m[1:] + 0.5)) / (0.5 * (m[1:] + 0.5))) <= 1e-14
        # the m = 0 coupling comes from the removable limit, not the affine law
        assert math.isclose(b_t[0], math.sqrt(2.0) / 4.0, rel_tol=1e-14)


def _random_bandlimited(spec, n, rng, decay=0.5):
    return Expansion(spec, rng.standard_normal(n) * decay ** np.arange(n))


def test_criterion_3_fast_equals_slow():
    with _Criterion(3, "fast trigonometric paths match the quadrature oracle"):
        rng = np.random.default_rng(7)
        for a, b in CHEB_PAIRS:
            spec = BasisSpec(JacobiParams(a, b))
            for n in (8, 64, 256, 1024):
                for _ in range(20):
                    e = _random_bandlimited(spec, n, rng)
                    f = lambda x: synthesize(e, x)
                    fast = analyze_full(spec, f, n).coeffs
                    slow = transforms_mod._coefficients(spec.params, f, n, quadrature=True)
                    assert np.max(np.abs(fast - slow)) <= 1e-10, (a, b, n)


def test_criterion_3b_cost_scaling():
    with _Criterion(3, "fast-path wall time fits C N log N (factor 2)"):
        spec = BasisSpec(JacobiParams(-0.5, -0.5))
        f = lambda x: 1.0 / np.cosh(x)

        def best_time(n, reps):
            analyze_full(spec, f, n)  # warm the plan and grid
            best = math.inf
            for _ in range(reps):
                t0 = time.perf_counter()
                analyze_full(spec, f, n)
                best = min(best, time.perf_counter() - t0)
            return best

        sizes = (2**10, 2**13, 2**16)
        times = [best_time(n, 25 if n <= 2**13 else 10) for n in sizes]
        # sanity band: growth may not exceed the N log N model by more than
        # a factor of two over any measured stretch (wall time at small N
        # sits below the model because of fixed per-call overhead, which is
        # why the band is one-sided: the claim being verified is that the
        # cost does not grow faster than C N log N)
        for (na, ta), (nb, tb) in zip(zip(sizes, times), zip(sizes[1:], times[1:])):
            model = (nb * math.log2(nb)) / (na * math.log2(na))
            ratio = tb / ta
            print(f"  t({nb})/t({na}) = {ratio:.1f}, N log N model = {model:.1f}")
            assert ratio <= 2.0 * model, (na, nb, ratio, model)


def test_criterion_4_half_equals_full():
    with _Criterion(4, "half-range systems identical to full-range"):
        xs = np.linspace(-6.0, 6.0, 61)
        rng = np.random.default_rng(21)
        for a in (-0.5, 0.0, 0.5, 1.7):
            spec_h = BasisSpec(JacobiParams(a, a), "half")
            spec_f = BasisSpec(JacobiParams(a, a), "full")
            worst = 0.0
            for m in range(41):
                diff = np.max(np.abs(phi_half_direct(spec_h, m, xs) - phi_full(spec_f, m, xs)))
                worst = max(worst, float(diff))
            assert worst <= 1e-12, (a, worst)
            e = _random_bandlimited(spec_f, 64, rng, decay=0.8)
            f = lambda x: synthesize(e, x)
            ch = analyze_half(spec_h, f, 64).coeffs
            cf = analyze_full(spec_f, f, 64).coeffs
            assert np.max(np.abs(ch - cf)) <= 1e-10, a


def test_criterion_5_fourier_space_closed_forms():
    with _Criterion(5, "Fourier-space weight closed forms and unit mass"):
        params = JacobiParams(0.0, 0.0)
        xi = np.linspace(-10.0, 10.0, 81)
        dens = measure_density(params, xi)
        scaled = dens * np.cosh(math.pi * xi / 2.0) ** 2
        assert np.max(np.abs(scaled / scaled[40] - 1.0)) <= 1e-11
        for a in (0.3, 0.7):
            params = JacobiParams(a, -a)
            xg = np.linspace(-8.0, 8.0, 33)
            got = measure_density(params, xg)
            c2 = math.exp(2.0 * normalisation_constant(params))
            want = 2.0 * math.pi**2 * c2 / (np.cosh(math.pi * xg) + math.cos(math.pi * a))
            assert np.max(np.abs(got / want - 1.0)) <= 1e-10, a
        for a in (0, 1, 2, 3):
            params = JacobiParams(float(a), float(a))
            C = math.exp(normalisation_constant(params))
            for x in np.linspace(0.5, 9.5, 10):
                g = g_weight(params, float(x))
                if a % 2 == 0:
                    n = a // 2
                    prod = math.prod(((j + 0.5) ** 2 + x * x / 4.0) for j in range(n))
                    want = math.pi * C * prod / math.cosh(math.pi * x / 2.0)
                else:
                    n = (a - 1) // 2
                    prod = math.prod((j * j + x * x / 4.0) for j in range(1, n + 1))
                    want = 0.5 * math.pi * C * x * prod / math.sinh(math.pi * x / 2.0)
                assert abs(g.real / want - 1.0) <= 1e-11, (a, x)
        for a, b in [(0.0, 0.0), (0.5, 0.5), (1.3, 0.2)]:
            params = JacobiParams(a, b)
            cut = 45.0 + 12.0 * max(0.0, a + b)
            mass = 2.0 * gauss_panels(
                lambda s: np.array([measure_density(params, float(v)) for v in np.atleast_1d(s)]),
                0.0, cut, 0.5, npts=20,
            )
            assert abs(mass - 1.0) <= 1e-10, (a, b)


def test_criterion_6_fourier_transform():
    with _Criterion(6, "Fourier transforms vs direct oscillatory quadrature"):
        rng = np.random.default_rng(99)
        xi_grid = np.linspace(-8.0, 8.0, 25)
        for a in (0.0, 0.5):
            spec = BasisSpec(JacobiParams(a, a))
            e = Expansion(spec, rng.standard_normal(16) * 0.75 ** np.arange(16))
            f = lambda x: synthesize(e, x)
            got = fourier_transform(e, xi_grid)
            for i, xi in enumerate(xi_grid):
                want = direct_fourier(f, float(xi))
                assert abs(got[i] - want) <= 1e-7, (a, xi)
            # Parseval: the transform carries the coefficient energy
            def sq(s):
                return np.abs(fourier_transform(e, np.atleast_1d(s))) ** 2
            total = gauss_panels(sq, -60.0, 60.0, 0.5, npts=20)
            assert abs(total - float(np.sum(e.coeffs**2))) <= 1e-8, a
        # squared-Gamma transform identity at a = 1/2 by two routes
        def gamma_sq(s):
            return math.pi / math.cosh(math.pi * s)  # |Gamma(1/2 + i s)|^2, by the reflection formula

        for x in (0.0, 1.0, 2.4):
            lhs = gauss_panels(
                lambda s: np.array([gamma_sq(float(v)) for v in np.atleast_1d(s)])
                * np.exp(1j * x * np.atleast_1d(s)),
                -40.0, 40.0, 0.25, npts=16,
            )
            assert abs(complex(lhs).real - math.pi / math.cosh(x / 2.0)) <= 1e-8
        f = lambda y: 1.0 / np.cosh(y / 2.0)
        for xi in (0.0, 0.6, 1.5):
            got = direct_fourier(f, xi, halfwidth=90.0)
            want = math.sqrt(2.0 / math.pi) * gamma_sq(xi)
            assert abs(got - want) <= 1e-8


def test_criterion_7_operators():
    with _Criterion(7, "coefficient-space operators"):
        # skew symmetry, bitwise
        d = diff_coeffs(JacobiParams(-0.5, -0.5), 130)
        D = dense_diff(d, 64)
        assert np.all(D + D.T == 0.0)
        # padded D^2 stays negative semi-definite
        rng = np.random.default_rng(3)
        for _ in range(1000):
            c = rng.standard_normal(64)
            assert float(c @ diff_squared_apply(d, c)) <= 1e-12 * float(c @ c)
        # on every half-integer pair and a generic one: the multiplication
        # operator against the pointwise product, and a manufactured solve
        # u' + a u = f with a variable a and a band-limited u
        def series(a):
            def afun(x):
                t = np.tanh(np.asarray(x, dtype=float))
                theta = np.arccos(np.clip(t, -1.0, 1.0))
                total = a[0] / math.sqrt(2.0) * np.ones_like(t)
                for k in range(1, len(a)):
                    total = total + a[k] * np.cos(k * theta)
                return total

            return afun

        for pair in CHEB_PAIRS + [(1.3, 0.2)]:
            spec = BasisSpec(JacobiParams(*pair))
            a = rng.standard_normal(5)
            c = rng.standard_normal(64)
            e, afun = Expansion(spec, c), series(a)
            want = analyze_full(spec, lambda x: afun(x) * synthesize(e, x), 128).coeffs[:64]
            assert np.max(np.abs(mult_op(a, 4, 64).apply(c, params=spec.params) - want)) <= 1e-9, pair
            n, a = 96, np.array([1.5, 0.4, -0.2, 0.1])
            u, afun = Expansion(spec, rng.standard_normal(12) * 0.5 ** np.arange(12)), series(a)
            d = diff_coeffs(spec.params, n + 3)
            du = Expansion(spec, diff_apply(d, np.concatenate([u.coeffs, [0.0]])))
            rhs = analyze_full(spec, lambda x: synthesize(du, x) + afun(x) * synthesize(u, x), n)
            result = solve_first_order(d, mult_op(a, 3, n), rhs, n)
            assert np.max(np.abs(result.expansion.coeffs[:12] - u.coeffs)) <= 1e-9, pair
            assert result.residual <= 1e-9, pair
        # manufactured first-order solve with a constant a
        spec = BasisSpec(JacobiParams(-0.5, -0.5))
        n = 128
        fex = lambda x: np.cosh(x) ** -0.5 * (np.cosh(x) ** -2.0 - 0.5 * np.tanh(x) ** 2 + np.tanh(x))
        uex = lambda x: np.cosh(x) ** -0.5 * np.tanh(x)
        d2 = diff_coeffs(spec.params, n + 1)
        mo1 = mult_op([math.sqrt(2.0)], 0, n)
        rhs = analyze_full(spec, fex, n)
        result = solve_first_order(d2, mo1, rhs, n)
        want_u = analyze_full(spec, uex, n).coeffs
        assert np.max(np.abs(result.expansion.coeffs - want_u)) <= 1e-9
        assert result.residual <= 1e-9


def test_criterion_8_spectral_decay():
    with _Criterion(8, "geometric envelope decay of sech coefficients"):
        spec = BasisSpec(JacobiParams(-0.5, -0.5))
        e = analyze_full(spec, lambda x: 1.0 / np.cosh(x), 128)
        mag = np.abs(e.coeffs)
        env = np.array([mag[m:].max() for m in range(mag.size)])
        assert np.all(env[8:65] <= 0.9 * env[:57])


def test_criterion_9_figure_reproduction(tmp_path):
    with _Criterion(9, "first five basis functions tabulated for plotting"):
        want_t = [
            1.0 / math.sqrt(math.pi),
            0.0,
            -math.sqrt(2.0 / math.pi),
            0.0,
            math.sqrt(2.0 / math.pi),
        ]
        want_u = [
            math.sqrt(2.0 / math.pi),
            0.0,
            -math.sqrt(2.0 / math.pi),
            0.0,
            math.sqrt(2.0 / math.pi),
        ]
        for (alpha, want) in (("-0.5", want_t), ("0.5", want_u)):
            out = tmp_path / f"basis_{alpha}.csv"
            code = cli_main([
                "basis", "--alpha", alpha, "--beta", alpha,
                "--m-list", "0,1,2,3,4", "--points", "lin:-5:5:101",
                "--out", str(out),
            ])
            assert code == 0
            cols = ("x", "phi_0", "phi_1", "phi_2", "phi_3", "phi_4")
            table = read_table(str(out))
            rows = [dict(zip(cols, row)) for row in zip(*(table[c] for c in cols))]
            assert len(rows) == 101
            center = [r for r in rows if r["x"] == 0.0][0]
            for m in range(5):
                assert abs(center[f"phi_{m}"] - want[m]) <= 1e-12, (alpha, m)
