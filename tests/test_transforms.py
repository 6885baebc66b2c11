"""Coefficient transforms: kernels, fast/slow equivalence, round trips."""

import math
import tracemalloc

import mpmath
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
    sample_grid,
    synthesize,
)
from tanhspec import transforms as transforms_mod
from tanhspec.jacobi import project, recurrence
from tanhspec.special import log_jacobi_norm

from oracles import naive_trig_transform, phi_full_direct, phi_half_direct, project_rowwise

CHEB_PAIRS = [(-0.5, -0.5), (0.5, 0.5), (0.5, -0.5), (-0.5, 0.5)]
# each kind with its rng seed in test_naive_oracle
ALL_KINDS = {"DCT-II": 1, "DCT-IV": 2, "DST-II": 4, "DST-IV": 5}


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

    # odd and even n take different DCT-IV routes (zero-padded length-2n FFT
    # against a half-length one); 1, 2 and 127 also hit the edges of the
    # DCT-II output split
    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("n", [3, 64, 96, 1, 2, 4, 5, 127])
    def test_naive_oracle(self, kind, n):
        rng = np.random.default_rng(ALL_KINDS[kind])
        x = rng.standard_normal(n)
        got = dct(kind, x)
        want = naive_trig_transform(kind, x)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @pytest.mark.parametrize("n", [2**16, 2**16 + 1])
    def test_scipy_oracle_large(self, n):
        from scipy import fft

        x = np.random.default_rng(n).standard_normal(n)
        for kind in ALL_KINDS:
            name, typ = kind[:3].lower(), {"II": 2, "IV": 4}[kind[4:]]
            want = 0.5 * getattr(fft, name)(x, type=typ)
            got = dct(kind, x)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), kind

    @pytest.mark.parametrize("n", [12, 13])
    def test_input_untouched_and_twiddles_read_only(self, n):
        x = np.random.default_rng(7).standard_normal(n)
        before = x.copy()
        for kind in ALL_KINDS:
            dct(kind, x)
        assert np.array_equal(x, before)
        for kind in ("DCT-II", "DCT-IV"):
            for tw in transforms_mod._twiddles(kind, n):
                with pytest.raises(ValueError):
                    tw[0] = 0.0

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            dct("DCT-III", [1.0, 2.0])

    @pytest.mark.parametrize("kind", ["DCT-I", "DST-I"])
    def test_type_one_kinds_are_unknown(self, kind):
        with pytest.raises(ValueError, match="unknown transform kind"):
            dct(kind, [1.0, 2.0])


def _assert_x_within_two_ulp(theta, x):
    """x at the float angles theta within 2 ulp of 40-digit asinh(cot theta)."""
    with mpmath.workdps(40):
        want = np.array([float(mpmath.asinh(mpmath.cot(mpmath.mpf(float(th))))) for th in theta])
    assert np.all(np.abs(x - want) <= 2.0 * np.spacing(np.abs(want))), np.max(np.abs(x / want - 1.0))


class TestSampleGrid:
    @pytest.mark.parametrize("n", [2**10 + 1, 2**14, 2**20])
    def test_map_to_x_within_two_ulp(self, n):
        # next to both ends and in the middle (x = 0 at the odd grid's middle
        # node); through t = cos theta the end nodes lost up to 2.3e-5
        # relative at n = 2^20
        g = sample_grid(n)
        try:
            at = [0, 1, 2, n // 2 - 2, n // 2 - 1, n // 2, n // 2 + 1, n - 3, n - 2, n - 1]
            _assert_x_within_two_ulp(g.theta[at], g.x[at])
        finally:
            transforms_mod._grid.cache_clear()  # a 2^20 grid holds 32 MB

    def test_rule_map_next_to_one(self):
        # the last node of this rule lies 2e-9 from t = 1; through t its x lost
        # 5.5e-9 relative
        params = JacobiParams(-0.999999, -0.999999)
        x = transforms_mod._rule_nodes(params, 32)[0]
        _assert_x_within_two_ulp(gauss_jacobi(params, 32).angles[-3:], x[-3:])

    def test_full_map(self):
        g = sample_grid(8)
        assert np.all(np.diff(g.theta) > 0)
        assert np.allclose(np.tanh(g.x), np.cos(g.theta), atol=1e-15)
        assert np.all(np.isfinite(g.x))

    def test_half_map(self):
        # half mode at (+-1/2, +-1/2) runs the full-range transform of its pair: it samples the N-point grid
        for a in (-0.5, 0.5):
            seen = []
            analyze_half(_half(a), lambda x: seen.append(x.copy()) or np.exp(-x * x), 8)
            assert len(seen) == 1 and seen[0].tobytes() == sample_grid(8).x.tobytes()


class TestAnalyzeFull:
    def test_delta_chebyshev_t(self):
        spec = _full(-0.5, -0.5)
        e = analyze_full(spec, lambda x: phi_full_direct(spec, 0, x), 16)
        want = np.zeros(16)
        want[0] = 1.0
        assert np.max(np.abs(e.coeffs - want)) <= 1e-12

    def test_delta_chebyshev_u(self):
        spec = _full(0.5, 0.5)
        e = analyze_full(spec, lambda x: phi_full_direct(spec, 3, x), 16)
        want = np.zeros(16)
        want[3] = 1.0
        assert np.max(np.abs(e.coeffs - want)) <= 1e-12

    @pytest.mark.parametrize("a,b", CHEB_PAIRS)
    def test_delta_all_pairs(self, a, b):
        spec = _full(a, b)
        for m in (0, 1, 4):
            e = analyze_full(spec, lambda x: phi_full_direct(spec, m, x), 8)
            want = np.zeros(8)
            want[m] = 1.0
            assert np.max(np.abs(e.coeffs - want)) <= 1e-12

    def test_sech_three_halves_vs_quadrature(self):
        spec = _full(0.5, 0.5)
        f = lambda x: np.cosh(x) ** -1.5
        fast = analyze_full(spec, f, 64).coeffs
        slow = transforms_mod._coefficients(spec.params, f, 64, quadrature=True)
        assert np.max(np.abs(fast - slow)) <= 1e-11

    @pytest.mark.parametrize("a,b", CHEB_PAIRS)
    @pytest.mark.parametrize("n", [8, 64])
    def test_fast_equals_slow_bandlimited(self, a, b, n):
        spec = _full(a, b)
        rng = np.random.default_rng(1000 + n)
        for _ in range(5):
            e = _random_bandlimited(spec, n, rng)
            f = lambda x: synthesize(e, x)
            fast = analyze_full(spec, f, n).coeffs
            slow = transforms_mod._coefficients(spec.params, f, n, quadrature=True)
            assert np.max(np.abs(fast - slow)) <= 1e-10
            assert np.max(np.abs(fast - e.coeffs)) <= 1e-10

    def test_general_parameters_roundtrip(self):
        spec = _full(1.3, 0.2)
        rng = np.random.default_rng(8)
        e = _random_bandlimited(spec, 24, rng)
        back = analyze_full(spec, lambda x: synthesize(e, x), 24)
        assert np.max(np.abs(back.coeffs - e.coeffs)) <= 1e-11

    def test_nonfinite_sample_names_point(self):
        # the check reads f's own samples, so the message names f's value and gives no reason about the basis
        calls = [lambda f: analyze_full(_full(-0.5, -0.5), f, 32), lambda f: analyze_full(_full(1.3, 0.2), f, 16),
                 lambda f: analyze_unweighted(f, 15)]  # fast, quadrature, unweighted
        for analyze in calls:
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match="non-finite sample") as info:
                    analyze(lambda x: np.where(x > 1.0, bad, 1.0))
                msg = str(info.value)
                point = float(msg[msg.index("(") + 1 : msg.index(")")])
                assert point > 1.0 and msg == f"non-finite sample f({point!r}) = {bad!r}"
                assert "np.float64(" not in msg and "decays" not in msg

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
        e = analyze_half(spec, lambda x: phi_half_direct(spec, 2, x), 16)
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

    @pytest.mark.parametrize("a", [-0.9, 0.0, 2.0, 80.0, -0.5, 0.5])
    @pytest.mark.parametrize("n", [2, 64, 300])
    def test_is_the_full_transform(self, a, n):
        # the half-range functions are the full-range ones of (a, a), and one
        # transform serves both modes: the same coefficients, bit for bit
        f = lambda x: np.exp(-((x - 0.7) ** 2))
        assert analyze_half(_half(a), f, n).coeffs.tobytes() == analyze_full(_full(a, a), f, n).coeffs.tobytes()

    @pytest.mark.parametrize("a", [-0.9, 0.0, 2.0, 80.0])
    @pytest.mark.parametrize("mode", ["full", "half"])
    def test_exact_parity_zeros_on_the_rule(self, a, mode):
        # sech is even and tanh sech odd to the bit; folded onto the symmetric
        # rule's nodes with t >= 0, the other parity's row is exactly zero
        even, odd = (lambda x: 1.0 / np.cosh(x)), (lambda x: np.tanh(x) / np.cosh(x))
        for n in (2, 7, 64, 301) if mode == "full" else (2, 64, 300):
            for f, zero in ((even, 1), (odd, 0)):
                if mode == "full":
                    c = analyze_full(_full(a, a), f, n).coeffs
                else:
                    c = analyze_half(_half(a), f, n).coeffs
                assert np.all(c[zero::2] == 0.0), (n, zero)
                assert np.any(c[1 - zero :: 2] != 0.0), (n, zero)


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
        assert np.allclose(synthesize(e, xs), phi_full_direct(spec, 0, xs), atol=1e-14)


class TestRoundTripAndParseval:
    @pytest.mark.parametrize("a,b", CHEB_PAIRS + [(1.3, 0.2), (1e6, 1e6), (1e8, 1e8)])
    def test_roundtrip(self, a, b):
        # at (1e6, 1e6) and (1e8, 1e8) the round trip holds only where analysis
        # divides the samples by the boundary weight, rounded as synthesis has it
        spec = _full(a, b)
        rng = np.random.default_rng(77)
        for n in (16, 256):
            e = _random_bandlimited(spec, n, rng, decay=0.9)
            back = analyze_full(spec, lambda x: synthesize(e, x), n)
            assert np.max(np.abs(back.coeffs - e.coeffs)) <= 1e-11

    def test_fast_roundtrip_at_4096(self):
        # the end nodes' x comes from their angles; through t = cos theta this
        # round trip erred 1.4e-13
        spec = _full(-0.5, -0.5)
        e = _random_bandlimited(spec, 2048, np.random.default_rng(4096), decay=0.9)
        back = analyze_full(spec, lambda x: synthesize(e, x), 4096).coeffs
        assert np.max(np.abs(back - np.pad(e.coeffs, (0, 2048)))) <= 1e-14

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


class TestQuadratureProjection:
    @pytest.mark.parametrize("a,b", [(1.3, 0.2), (-0.9, -0.9), (2.0, 5.0), (80.0, 80.0), (-0.999, 3.0)])
    def test_blocked_matches_rowwise(self, a, b):
        # one matrix-vector product per block sums in another order than one
        # dot per row: a tolerance fixed in advance
        p = JacobiParams(a, b)
        for n in (1, 7, 64, 65, 300, 2048):
            rule = gauss_jacobi(p, n)
            x = transforms_mod._mapped_x(rule.angles)  # every node, also of a symmetric rule
            F = np.exp(-0.5 * x**2) / np.cosh(x - 0.3)
            got = project(recurrence(p, n), rule.weights * F, rule.nodes, -0.5 * log_jacobi_norm(p))
            want = project_rowwise(p, rule, F)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


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


@pytest.fixture
def rule_calls(monkeypatch):
    """Gauss-Jacobi rules built through the transforms, from an empty rule cache."""
    calls = []

    def counted(params, n):
        calls.append((params.alpha, params.beta, n))
        return gauss_jacobi(params, n)

    transforms_mod._rule_nodes.cache_clear()
    monkeypatch.setattr(transforms_mod, "gauss_jacobi", counted)
    yield calls
    transforms_mod._rule_nodes.cache_clear()


class TestNodeCaches:
    FUNCS = [lambda x: np.exp(-x * x), lambda x: 1.0 / np.cosh(x), lambda x: np.tanh(x) / np.cosh(2.0 * x)]

    def test_one_rule_per_full_key(self, rule_calls):
        for f in self.FUNCS:
            analyze_full(_full(1.3, 0.2), f, 32)
        assert rule_calls == [(1.3, 0.2, 32)]

    def test_one_rule_per_half_key(self, rule_calls):
        for f in self.FUNCS:
            analyze_half(_half(1.3), f, 32)
        assert rule_calls == [(1.3, 1.3, 32)]

    def test_size_or_pair_misses_modes_share(self, rule_calls):
        f = self.FUNCS[0]
        analyze_full(_full(1.3, -0.5), f, 16)
        analyze_half(_half(1.3), f, 32)
        analyze_full(_full(1.3, 1.3), f, 32)  # the half key's rule
        analyze_full(_full(1.3, -0.5), f, 24)
        analyze_full(_full(-0.5, 1.3), f, 16)
        assert rule_calls == [(1.3, -0.5, 16), (1.3, 1.3, 32), (1.3, -0.5, 24), (-0.5, 1.3, 16)]

    @pytest.mark.parametrize("spec", [_full(1.3, 0.2), _half(1.3), _full(0.5, -0.5), _half(-0.5)],
                             ids=["full-quad", "half-quad", "full-fast", "half-fast"])
    def test_cached_run_bitwise_equals_cold_run(self, spec, rule_calls):
        analyze = analyze_full if spec.mode == "full" else analyze_half
        cold = []
        for f in self.FUNCS:
            transforms_mod._rule_nodes.cache_clear()
            transforms_mod._grid.cache_clear()
            cold.append(analyze(spec, f, 32).coeffs)
        warm = [analyze(spec, f, 32).coeffs for f in self.FUNCS]  # one cached rule or grid serves all
        for c, w in zip(cold, warm):
            assert c.tobytes() == w.tobytes()

    def test_cached_arrays_are_read_only(self, rule_calls):
        spec = _full(-0.5, -0.5)
        f = self.FUNCS[1]
        before = analyze_full(spec, f, 16).coeffs
        with pytest.raises(ValueError, match="read-only"):
            sample_grid(16).x[:] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            sample_grid(16).theta[0] = 0.0
        assert analyze_full(spec, f, 16).coeffs.tobytes() == before.tobytes()
        grid, factor = transforms_mod._grid(16)
        assert sample_grid(16) is grid
        rule = transforms_mod._rule_nodes(JacobiParams(1.3, 0.2), 16)
        symmetric = transforms_mod._rule_nodes(JacobiParams(2.0, 2.0), 17)
        arrays = [grid.theta, grid.x, factor, *rule, *symmetric]
        assert len(arrays) == 9
        assert not any(a.flags.writeable for a in arrays)
        # no cached array is a view, which would hold its base (all n nodes of a symmetric rule) alive
        assert all(a.base is None for a in arrays)


def _sech(x):
    return 1.0 / np.cosh(x)


#: (id, call, exception type, start of its message) for each input check of the module; each count has a row below
#: its least value, one above the size limit 2^24, which is refused before anything is allocated, and one that is
#: not an integer
ERROR_PATHS = [
    ("dct-empty", lambda: dct("DCT-II", []), ValueError, "data must be a nonempty 1-d sequence"),
    ("dct-2d", lambda: dct("DCT-II", np.ones((2, 2))), ValueError, "data must be a nonempty 1-d sequence"),
    ("sample_grid-0", lambda: sample_grid(0), ValueError, "grid size must be positive (got 0)"),
    ("sample_grid-limit", lambda: sample_grid(2**24 + 1), MemoryError,
     "grid size 16777217 is past the size limit 16777216"),
    ("sample_grid-float", lambda: sample_grid(4.0), TypeError, "grid size must be an integer (got 4.0)"),
    ("analyze_full-n", lambda: analyze_full(_full(0.0, 0.0), _sech, 0), ValueError,
     "coefficient count must be positive (got 0)"),
    ("analyze_full-limit", lambda: analyze_full(_full(0.0, 0.0), _sech, 2**24 + 1), MemoryError,
     "coefficient count 16777217 is past the size limit 16777216"),
    # both routes: the fast one took a float count, the quadrature one failed inside numpy
    ("analyze_full-float-fast", lambda: analyze_full(_full(-0.5, -0.5), _sech, 4.0), TypeError,
     "coefficient count must be an integer (got 4.0)"),
    ("analyze_full-float-quadrature", lambda: analyze_full(_full(1.3, 0.2), np.cosh, 4.0), TypeError,
     "coefficient count must be an integer (got 4.0)"),
    ("analyze_half-full-spec", lambda: analyze_half(_full(0.0, 0.0), _sech, 4), ValueError,
     "analyze_half requires a half-mode basis spec"),
    ("analyze_half-n", lambda: analyze_half(_half(0.0), _sech, 0), ValueError,
     "coefficient count must be at least 2 (got 0)"),
    ("analyze_half-odd", lambda: analyze_half(_half(0.0), _sech, 3), ValueError,
     "coefficient count must be even (got 3)"),
    ("analyze_half-limit", lambda: analyze_half(_half(0.0), _sech, 2**24 + 2), MemoryError,
     "coefficient count 16777218 is past the size limit 16777216"),
    ("analyze_half-float", lambda: analyze_half(_half(0.0), _sech, 4.0), TypeError,
     "coefficient count must be an integer (got 4.0)"),
    ("analyze_unweighted-m", lambda: analyze_unweighted(_sech, -1), ValueError, "m_max must be nonnegative (got -1)"),
    ("analyze_unweighted-limit", lambda: analyze_unweighted(_sech, 2**24 + 1), MemoryError,
     "m_max 16777217 is past the size limit 16777216"),
    ("analyze_unweighted-float", lambda: analyze_unweighted(_sech, 3.0), TypeError,
     "m_max must be an integer (got 3.0)"),
]


@pytest.mark.parametrize("call,error,start", [p[1:] for p in ERROR_PATHS], ids=[p[0] for p in ERROR_PATHS])
def test_error_paths(call, error, start):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value).startswith(start)


@pytest.mark.parametrize("a,b", [(-0.5, -0.5), (1.3, 0.2)])
def test_wrong_shape_output_sampled_pointwise(a, b):
    # a callable that returns one value for an array is sampled point by point, on both paths
    def first_only(x):
        return _sech(x) if np.ndim(x) == 0 else _sech(x)[:1]

    got = analyze_full(_full(a, b), first_only, 16).coeffs
    assert got.tobytes() == analyze_full(_full(a, b), _sech, 16).coeffs.tobytes()


def test_bandlimited_accuracy_script(capsys):
    # the script is not collected; one short run keeps it working
    import bandlimited_accuracy

    bandlimited_accuracy.main(["full,half", "0,2,-0.9:1.3", "32"])
    rows = [line.split("  ") for line in capsys.readouterr().out.splitlines()]
    assert [r[0] for r in rows] == ["n=32 a=0.0", "n=32 a=2.0", "n=32 a=-0.9 b=1.3"]
    assert [r[2] for r in rows] == [rows[0][1].replace("full", "half"), rows[1][1].replace("full", "half"), "half -"]
    errors = [float(cell.split()[1]) for r in rows for cell in r[1:] if cell != "half -"]
    assert len(errors) == 5 and max(errors) < 1e-13
