"""Coefficient transforms: kernels, fast/slow equivalence, round trips."""

import math
import tracemalloc

import numpy as np
import pytest

from tanhspec import (
    BasisSpec,
    Expansion,
    JacobiParams,
    analyze_full,
    analyze_half,
    analyze_unweighted,
    dct,
    gauss_jacobi,
    phi_full,
    phi_half,
    sample_grid,
    synthesize,
)

from oracles import naive_trig_transform

CHEB_PAIRS = [(-0.5, -0.5), (0.5, 0.5), (0.5, -0.5), (-0.5, 0.5)]
ALL_KINDS = ["DCT-I", "DCT-II", "DCT-IV", "DST-I", "DST-II", "DST-IV"]


def _full(a, b):
    return BasisSpec(JacobiParams(a, b), "full")


def _half(a):
    return BasisSpec(JacobiParams(a, a), "half")


def _random_bandlimited(spec, n, rng, decay=0.5):
    coeffs = rng.standard_normal(n) * decay ** np.arange(n)
    return Expansion(spec, coeffs)


class TestTrigKernels:
    def test_constant_vector(self):
        out = dct("DCT-II", [1.0, 1.0, 1.0, 1.0])
        assert np.allclose(out, [4.0, 0.0, 0.0, 0.0], atol=1e-14)

    def test_zero_vector(self):
        assert np.allclose(dct("DST-II", np.zeros(4)), 0.0)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n", [3, 64, 96])
    def test_naive_oracle(self, kind, n):
        rng = np.random.default_rng(hash(kind) % 2**32)
        x = rng.standard_normal(n)
        got = dct(kind, x)
        want = naive_trig_transform(kind, x)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            dct("DCT-III", [1.0, 2.0])

    def test_dct1_needs_two_samples(self):
        with pytest.raises(ValueError):
            dct("DCT-I", [1.0])


class TestSampleGrid:
    def test_full_map(self):
        g = sample_grid("full", 8)
        assert np.all(np.diff(g.theta) > 0)
        assert np.allclose(np.tanh(g.x), np.cos(g.theta), atol=1e-15)
        assert np.all(np.isfinite(g.x))

    def test_half_map(self):
        g = sample_grid("half", 8)
        assert np.allclose(np.tanh(g.x), np.sqrt((1 + np.cos(g.theta)) / 2), atol=1e-15)
        assert np.all(g.x > 0)


class TestAnalyzeFull:
    def test_delta_chebyshev_t(self):
        spec = _full(-0.5, -0.5)
        e = analyze_full(spec, lambda x: phi_full(spec, 0, x), 16)
        want = np.zeros(16)
        want[0] = 1.0
        assert np.max(np.abs(e.coeffs - want)) <= 1e-12

    def test_delta_chebyshev_u(self):
        spec = _full(0.5, 0.5)
        e = analyze_full(spec, lambda x: phi_full(spec, 3, x), 16)
        want = np.zeros(16)
        want[3] = 1.0
        assert np.max(np.abs(e.coeffs - want)) <= 1e-12

    @pytest.mark.parametrize("a,b", CHEB_PAIRS)
    def test_delta_all_pairs(self, a, b):
        spec = _full(a, b)
        for m in (0, 1, 4):
            e = analyze_full(spec, lambda x: phi_full(spec, m, x), 8)
            want = np.zeros(8)
            want[m] = 1.0
            assert np.max(np.abs(e.coeffs - want)) <= 1e-12

    def test_sech_three_halves_vs_quadrature(self):
        spec = _full(0.5, 0.5)
        f = lambda x: np.cosh(x) ** -1.5
        fast = analyze_full(spec, f, 64, method="fast").coeffs
        slow = analyze_full(spec, f, 64, method="quadrature").coeffs
        assert np.max(np.abs(fast - slow)) <= 1e-11

    @pytest.mark.parametrize("a,b", CHEB_PAIRS)
    @pytest.mark.parametrize("n", [8, 64])
    def test_fast_equals_slow_bandlimited(self, a, b, n):
        spec = _full(a, b)
        rng = np.random.default_rng(1000 + n)
        for _ in range(5):
            e = _random_bandlimited(spec, n, rng)
            f = lambda x: synthesize(e, x)
            fast = analyze_full(spec, f, n, method="fast").coeffs
            slow = analyze_full(spec, f, n, method="quadrature").coeffs
            assert np.max(np.abs(fast - slow)) <= 1e-10
            assert np.max(np.abs(fast - e.coeffs)) <= 1e-10

    def test_general_parameters_roundtrip(self):
        spec = _full(1.3, 0.2)
        rng = np.random.default_rng(8)
        e = _random_bandlimited(spec, 24, rng)
        back = analyze_full(spec, lambda x: synthesize(e, x), 24)
        assert np.max(np.abs(back.coeffs - e.coeffs)) <= 1e-11

    def test_fast_method_rejected_off_grid(self):
        with pytest.raises(ValueError):
            analyze_full(_full(0.3, 0.5), lambda x: np.exp(-(x**2)), 8, method="fast")

    def test_nonfinite_sample_names_point(self):
        spec = _full(-0.5, -0.5)
        f = lambda x: np.where(np.abs(x) > 2.0, np.nan, 1.0)
        with pytest.raises(ValueError, match="non-finite sample"):
            analyze_full(spec, f, 32)

    def test_mode_guard(self):
        with pytest.raises(ValueError):
            analyze_full(_half(0.5), lambda x: x, 8)

    def test_scalar_only_callable(self):
        import math as _math

        spec = _full(-0.5, -0.5)
        vec = analyze_full(spec, lambda x: 1.0 / np.cosh(x), 16).coeffs
        scl = analyze_full(spec, lambda x: 1.0 / _math.cosh(x), 16).coeffs
        assert np.max(np.abs(vec - scl)) <= 1e-15


class TestAnalyzeHalf:
    @pytest.mark.parametrize("a", [-0.5, 0.5, 0.3])
    def test_even_function_kills_odd_coefficients(self, a):
        spec = _half(a)
        e = analyze_half(spec, lambda x: np.exp(-(x**2)), 32)
        assert np.max(np.abs(e.coeffs[1::2])) <= 1e-13

    @pytest.mark.parametrize("a", [-0.5, 0.5, 1.1])
    def test_delta(self, a):
        spec = _half(a)
        e = analyze_half(spec, lambda x: phi_half(spec, 2, x), 16)
        want = np.zeros(16)
        want[2] = 1.0
        assert np.max(np.abs(e.coeffs - want)) <= 1e-12

    def test_matches_full_transform(self):
        f = lambda x: (1.0 + np.tanh(x)) / np.cosh(x)
        ch = analyze_half(_half(-0.5), f, 64).coeffs
        cf = analyze_full(_full(-0.5, -0.5), f, 64).coeffs
        assert np.max(np.abs(ch - cf)) <= 1e-10

    def test_matches_full_transform_fast_pair(self):
        f = lambda x: np.exp(-(x**2)) * (1.0 + 0.3 * np.tanh(x))
        ch = analyze_half(_half(0.5), f, 64).coeffs
        cf = analyze_full(_full(0.5, 0.5), f, 64).coeffs
        assert np.max(np.abs(ch - cf)) <= 1e-10

    @pytest.mark.parametrize("a", [0.0, 1.7])
    def test_matches_full_transform_quadrature_path(self, a):
        # band-limited input: both routes integrate polynomials exactly, so
        # any disagreement is the transforms themselves, not rule asymptotics
        spec_f = _full(a, a)
        rng = np.random.default_rng(31)
        e = _random_bandlimited(spec_f, 64, rng, decay=0.85)
        f = lambda x: synthesize(e, x)
        ch = analyze_half(_half(a), f, 64).coeffs
        cf = analyze_full(spec_f, f, 64).coeffs
        assert np.max(np.abs(ch - cf)) <= 1e-10

    def test_requires_even_count(self):
        with pytest.raises(ValueError):
            analyze_half(_half(0.5), lambda x: x, 15)


class TestSynthesize:
    def test_roundtrip_value_at_origin(self):
        spec = _full(-0.5, -0.5)
        f = lambda x: np.exp(-(x**2)) / np.cosh(x)
        e = analyze_full(spec, f, 64)
        # truncation budget: coefficient tail is far below 1e-8 at N = 64
        assert abs(synthesize(e, 0.0)[0] - 1.0) <= 1e-8

    def test_zero_coefficients(self):
        e = Expansion(_full(0.5, 0.5), np.zeros(8))
        assert np.allclose(synthesize(e, np.linspace(-3, 3, 7)), 0.0)

    def test_basis_vector(self):
        spec = _full(-0.5, 0.5)
        e = Expansion(spec, [1.0])
        xs = np.linspace(-2, 2, 9)
        assert np.allclose(synthesize(e, xs), phi_full(spec, 0, xs), atol=1e-14)


class TestRoundTripAndParseval:
    @pytest.mark.parametrize("a,b", CHEB_PAIRS + [(1.3, 0.2)])
    def test_roundtrip(self, a, b):
        spec = _full(a, b)
        rng = np.random.default_rng(77)
        for n in (16, 256):
            e = _random_bandlimited(spec, n, rng, decay=0.9)
            back = analyze_full(spec, lambda x: synthesize(e, x), n)
            assert np.max(np.abs(back.coeffs - e.coeffs)) <= 1e-11

    def test_parseval(self):
        # band-limited synthesis: sum c_m^2 equals the weighted integral of f^2
        spec = _full(0.5, 0.5)
        rng = np.random.default_rng(13)
        e = _random_bandlimited(spec, 24, rng)
        rule = gauss_jacobi(spec.params, 64)
        x = np.arctanh(rule.nodes)
        t = rule.nodes
        fvals = synthesize(e, x)
        integral = float(np.sum(rule.weights * (fvals**2) / ((1 - t) ** 1.5 * (1 + t) ** 1.5)))
        assert math.isclose(integral, float(np.sum(e.coeffs**2)), rel_tol=1e-10)


class TestSpectralDecay:
    def test_sech_envelope(self):
        spec = _full(-0.5, -0.5)
        e = analyze_full(spec, lambda x: 1.0 / np.cosh(x), 128)
        mag = np.abs(e.coeffs)
        env = np.array([mag[m:].max() for m in range(mag.size)])
        ratios = env[8:65] / env[:57]
        assert np.all(ratios <= 0.9)


class TestAnalyzeUnweighted:
    def test_tanh_squared(self):
        # tanh^2 x = (1/sqrt2) T~_0 + 0 T~_1 + (1/2) T~_2
        got = analyze_unweighted(lambda x: np.tanh(x) ** 2, 4)
        want = np.array([math.sqrt(2.0) / 2.0, 0.0, 0.5, 0.0, 0.0])
        assert np.max(np.abs(got - want)) <= 1e-14

    def test_constant(self):
        got = analyze_unweighted(lambda x: np.ones_like(np.asarray(x)), 2)
        assert np.allclose(got, [math.sqrt(2.0), 0.0, 0.0], atol=1e-14)


class TestQuadratureMemory:
    @pytest.mark.parametrize("spec", [_full(1.3, 0.2), _half(1.3)], ids=["full", "half"])
    def test_streamed_projection_stays_linear(self, spec):
        # an n x n Vandermonde at n = 2048 is 32 MiB; the streamed recurrence keeps O(n)
        analyze = analyze_full if spec.mode == "full" else analyze_half
        f = lambda x: np.exp(-x * x)
        analyze(spec, f, 2048)  # first call (grid cache, lazy imports) outside the measurement
        tracemalloc.start()
        try:
            analyze(spec, f, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
