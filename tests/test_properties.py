"""Property tests over the parameter range a, b in (-1, 10].

Derandomized with a bounded example count, so every run checks the same
cases; tolerances are those of the matching example-based tests.  The
quadrature properties start at a, b = -1 + 1e-6: closer to -1 the
Gauss-Jacobi rule loses digits, and within about 1e-12 of -1 its nodes
round onto t = +-1 (test_quadrature_next_to_minus_one, a known defect).
"""

import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanhspec import (
    BasisSpec,
    Expansion,
    JacobiParams,
    analyze_full,
    analyze_half,
    diff_coeffs,
    gauss_jacobi,
    synthesize,
)
from tanhspec import transforms as transforms_mod
from tanhspec.cli import read_table, write_table
from tanhspec.operators import dense_diff

PROPERTY = settings(derandomize=True, max_examples=40, deadline=None, database=None)
EXPONENT = st.floats(min_value=-1.0, max_value=10.0, exclude_min=True)
PARAMS = st.builds(JacobiParams, EXPONENT, EXPONENT)
QUAD_EXPONENT = st.floats(min_value=-1.0 + 1e-6, max_value=10.0)
QUAD_PARAMS = st.builds(JacobiParams, QUAD_EXPONENT, QUAD_EXPONENT)
SEED = st.integers(0, 2**32 - 1)


def _bandlimited(spec, k, seed):
    return Expansion(spec, np.random.default_rng(seed).standard_normal(k) * 0.5 ** np.arange(k))


@PROPERTY
@given(params=PARAMS, n=st.integers(2, 200))
def test_differentiation_matrix_bitwise_skew(params, n):
    d = diff_coeffs(params, n - 1)
    D = dense_diff(d, n)
    assert np.all(np.isfinite(d.b)) and np.all(d.b > 0.0)
    assert np.array_equal(D, -D.T)


def _parseval_gap(params, k, seed):
    # f = sum_{m<k} c_m phi_m: the 2k-point rule integrates F^2 exactly, so
    # the quadrature coefficients carry the energy sum c_m^2 of f
    spec = BasisSpec(params, "full")
    e = _bandlimited(spec, k, seed)
    got = transforms_mod._coefficients(params, lambda x: synthesize(e, x), 2 * k, quadrature=True)
    return float(got @ got), float(e.coeffs @ e.coeffs)


@PROPERTY
@given(params=QUAD_PARAMS, k=st.integers(1, 24), seed=SEED)
def test_quadrature_parseval_bandlimited(params, k, seed):
    got, want = _parseval_gap(params, k, seed)
    assert math.isclose(got, want, rel_tol=1e-10)


@pytest.mark.xfail(strict=True, reason="known defect: at b = nextafter(-1, 0) the quadrature energy is off "
                   "by 3e-7 relative; within about 1e-12 of -1 rule nodes also round onto t = +-1")
def test_quadrature_next_to_minus_one():
    got, want = _parseval_gap(JacobiParams(10.0, math.nextafter(-1.0, 0.0)), 24, 0)
    assert math.isclose(got, want, rel_tol=1e-10)


@pytest.mark.xfail(strict=True, reason="known defect: at (1e3, nextafter(-1, 0)), n = 64, the rule builds (its weights "
                   "pass the float range, their logs do not), but the energy is off by 1.6e-5 relative")
def test_quadrature_next_to_minus_one_large_partner():
    got, want = _parseval_gap(JacobiParams(1e3, math.nextafter(-1.0, 0.0)), 32, 0)
    assert math.isclose(got, want, rel_tol=1e-10)


@PROPERTY
@given(params=QUAD_PARAMS, n=st.integers(1, 200))
def test_cached_rule_equals_fresh_rule(params, n):
    cached = transforms_mod._rule_nodes(params, n)
    fresh = gauss_jacobi(params, n)
    want = transforms_mod._rule_nodes.__wrapped__(params, n)  # (x, t, log start)
    x, t, _ = want
    assert t.tobytes() == fresh.nodes[n - x.size :].tobytes()  # the kernel's points: the rule's kept tail of nodes
    assert len(cached) == len(want) == 3
    assert all(got.tobytes() == new.tobytes() for got, new in zip(cached, want))
    assert transforms_mod._rule_nodes(params, n) is cached


@PROPERTY
@given(a=QUAD_EXPONENT, k=st.integers(1, 24), seed=SEED)
def test_half_equals_full_bandlimited(a, k, seed):
    full = BasisSpec(JacobiParams(a, a), "full")
    e = _bandlimited(full, k, seed)
    f = lambda x: synthesize(e, x)
    ch = analyze_half(BasisSpec(full.params, "half"), f, 2 * k).coeffs
    cf = analyze_full(full, f, 2 * k).coeffs
    assert np.max(np.abs(ch - cf)) <= 1e-10


@PROPERTY
@given(pair=st.sampled_from([(-0.5, -0.5), (0.5, 0.5), (0.5, -0.5), (-0.5, 0.5)]), n=st.integers(1, 96), seed=SEED)
def test_fast_equals_quadrature_bandlimited(pair, n, seed):
    spec = BasisSpec(JacobiParams(*pair), "full")
    e = _bandlimited(spec, n, seed)
    f = lambda x: synthesize(e, x)
    fast = analyze_full(spec, f, n).coeffs
    slow = transforms_mod._coefficients(spec.params, f, n, quadrature=True)
    assert np.max(np.abs(fast - slow)) <= 1e-10
    assert np.max(np.abs(fast - e.coeffs)) <= 1e-10


@PROPERTY
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20),
       fmt=st.sampled_from(["csv", "json"]))
def test_table_round_trip_byte_for_byte(values, fmt):
    rows = [{"m": m, "c": v} for m, v in enumerate(values)]
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first"), os.path.join(tmp, "second")
        write_table(first, {"m": [r["m"] for r in rows], "c": [r["c"] for r in rows]}, fmt)
        table = read_table(first)
        back = [{"m": m, "c": c} for m, c in zip(table["m"].tolist(), table["c"].tolist())]
        write_table(second, {"m": [int(r["m"]) for r in back], "c": [r["c"] for r in back]}, fmt)
        assert [r["c"].hex() for r in back] == [v.hex() for v in values]
        with open(first, "rb") as fh1, open(second, "rb") as fh2:
            assert fh1.read() == fh2.read()
