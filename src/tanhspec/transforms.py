"""Expansion coefficients: fast trigonometric paths and the quadrature path.

For the four half-integer parameter pairs the coefficient integrals reduce
to cosine/sine sums over the first-kind Chebyshev angles
theta_k = (2k+1) pi / (2N), evaluated with FFT-based kernels in
O(N log N); every other parameter pair goes through an N-point
Gauss-Jacobi rule in O(N^2).  Both routes approximate the same integrals
(quadrature semantics, no endpoint samples), so they agree to rounding on
band-limited inputs and converge together otherwise.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy import fft as _sfft

from .basis import BasisSpec, Expansion, clenshaw_eval
from .jacobi import QuadratureRule, gauss_jacobi, orthonormal_rows
from .special import JacobiParams

__all__ = [
    "SampleGrid",
    "dct",
    "sample_grid",
    "analyze_full",
    "analyze_half",
    "analyze_unweighted",
    "synthesize",
]

#: transform kinds with their defining sums (x of length N, m = 0..N-1):
#:   DCT-I : y_m = x_0/2 + (-1)^m x_{N-1}/2 + sum_{n=1}^{N-2} x_n cos(pi m n / (N-1))
#:   DCT-II: y_m = sum_n x_n cos(pi m (2n+1) / (2N))
#:   DCT-IV: y_m = sum_n x_n cos(pi (2m+1)(2n+1) / (4N))
#:   DST-I : y_m = sum_n x_n sin(pi (m+1)(n+1) / (N+1))
#:   DST-II: y_m = sum_n x_n sin(pi (m+1)(2n+1) / (2N))
#:   DST-IV: y_m = sum_n x_n sin(pi (2m+1)(2n+1) / (4N))
_KERNELS = {
    "DCT-I": (_sfft.dct, 1),
    "DCT-II": (_sfft.dct, 2),
    "DCT-IV": (_sfft.dct, 4),
    "DST-I": (_sfft.dst, 1),
    "DST-II": (_sfft.dst, 2),
    "DST-IV": (_sfft.dst, 4),
}


def dct(kind: str, data) -> np.ndarray:
    """Trigonometric transform of `data` per the defining sums above.

    The FFT backend is O(N log N) for every length (mixed radix); the
    backend's convention is exactly twice each sum, hence the 0.5 factor.
    """
    key = kind.upper()
    if key not in _KERNELS:
        raise ValueError(f"unknown transform kind {kind!r}")
    x = np.asarray(data, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("data must be a nonempty 1-d sequence")
    if key == "DCT-I" and x.size < 2:
        raise ValueError("DCT-I requires at least two samples")
    fn, typ = _KERNELS[key]
    return 0.5 * fn(x, type=typ)


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """First-kind Chebyshev angles with their mapped real-line sample points."""

    theta: np.ndarray
    x: np.ndarray
    size: int


class _Nodes(NamedTuple):
    """Sample nodes of one transform: the fast Chebyshev grid or a Gauss-Jacobi rule.

    The grid carries theta and the kernel premultipliers, a rule its weights.
    """

    x: np.ndarray
    one_minus: np.ndarray  # 1 - t
    one_plus: np.ndarray  # 1 + t
    theta: np.ndarray | None = None
    pre: dict | None = None
    rule: QuadratureRule | None = None


def _to_x(mode: str, t: np.ndarray) -> np.ndarray:
    # full: t = tanh x; half: t = 1 - 2 sech^2 x, sampled on x > 0
    return np.arctanh(t) if mode == "full" else np.arctanh(np.sqrt(0.5 * (1.0 + t)))


@lru_cache(maxsize=64)
def _grid(mode: str, n: int) -> _Nodes:
    theta = (2.0 * np.arange(n) + 1.0) * math.pi / (2.0 * n)
    sin_h, cos_h = np.sin(0.5 * theta), np.cos(0.5 * theta)
    # (1-t) = 2 sin^2(theta/2), (1+t) = 2 cos^2(theta/2): no endpoint cancellation
    pre = {"1": 1.0, "sin_h": sin_h, "cos_h": cos_h, "sin_t": np.sin(theta)}
    return _Nodes(_to_x(mode, np.cos(theta)), 2.0 * sin_h**2, 2.0 * cos_h**2, theta, pre)


def _rule_nodes(params: JacobiParams, mode: str, n: int) -> _Nodes:
    rule = gauss_jacobi(params, n)
    t = rule.nodes
    return _Nodes(_to_x(mode, t), 1.0 - t, 1.0 + t, rule=rule)


def sample_grid(mode: str, n: int) -> SampleGrid:
    """The sampling grid used by the fast paths (no endpoint samples)."""
    if n < 1:
        raise ValueError(f"grid size must be positive (got {n})")
    if mode not in ("full", "half"):
        raise ValueError(f"mode must be 'full' or 'half' (got {mode!r})")
    g = _grid(mode, n)
    return SampleGrid(theta=g.theta, x=g.x, size=n)


def _sample(f, x: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(f(x), dtype=float)
        if vals.shape != x.shape:
            raise ValueError
    except (ValueError, TypeError):
        # scalar-only callables are sampled pointwise
        vals = np.array([float(f(xi)) for xi in x])
    bad = ~np.isfinite(vals)
    if np.any(bad):
        where = x[bad][0]
        raise ValueError(
            f"non-finite sample f({where!r}); the function decays too slowly "
            "for this basis (modified integrand unbounded)"
        )
    return vals


def _is_half_integer_pair(params: JacobiParams) -> bool:
    return abs(params.alpha) == 0.5 and abs(params.beta) == 0.5


#: (a, b) -> (kind, premultiplier, scale of c_0, scale, halve top): the
#: orthonormal (a, b) coefficients of F on the N-point grid are
#: (pi/N) scale * kind(F * premultiplier), with c_0 scaled separately.
_SQRT_PI = math.sqrt(math.pi)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
_KERNEL_TABLE = {
    (-0.5, -0.5): ("DCT-II", "1", 1.0 / _SQRT_PI, _SQRT_2_OVER_PI, False),
    (0.5, 0.5): ("DST-II", "sin_t", _SQRT_2_OVER_PI, _SQRT_2_OVER_PI, True),
    (0.5, -0.5): ("DST-IV", "sin_h", 2.0 / _SQRT_PI, 2.0 / _SQRT_PI, False),
    (-0.5, 0.5): ("DCT-IV", "cos_h", 2.0 / _SQRT_PI, 2.0 / _SQRT_PI, False),
}


def _modified(params: JacobiParams, mode: str, nodes: _Nodes, fx: np.ndarray) -> np.ndarray:
    """F = fx / [(1-t)^{(a+1)/2} (1+t)^{(b+1)/2}] in full mode; the half-range
    map contributes one factor (1+t)^{1/4} less."""
    lift = 0.5 * (params.beta + 1.0) if mode == "full" else 0.5 * (params.beta + 0.5)
    return fx / (nodes.one_minus ** (0.5 * (params.alpha + 1.0)) * nodes.one_plus**lift)


def _project(params: JacobiParams, nodes: _Nodes, F: np.ndarray) -> np.ndarray:
    """Orthonormal (a, b) coefficients int q_m F (1-t)^a (1+t)^b dt of F at the nodes."""
    if nodes.rule is not None:
        wF = nodes.rule.weights * F
        return np.array([q @ wF for q in orthonormal_rows(params, F.size, nodes.rule.nodes)])
    kind, pre, scale0, scale, halve_top = _KERNEL_TABLE[(params.alpha, params.beta)]
    y = dct(kind, F * nodes.pre[pre])
    if halve_top:
        # the m = N-1 integrand contains cos(2N theta), the one frequency the
        # first-kind midpoint rule aliases (onto the constant, doubling the
        # band-limited contribution); halving restores rule exactness
        y[-1] *= 0.5
    step = math.pi / F.size
    c = step * scale * y
    c[0] = step * scale0 * y[0]
    return c


def analyze_full(spec: BasisSpec, f, n: int, method: str = "auto") -> Expansion:
    """First n expansion coefficients of the callable f in a full-range basis.

    method 'fast' forces the trigonometric path (half-integer parameter
    pairs only), 'quadrature' forces the Gauss-Jacobi path, 'auto' picks
    fast whenever available.
    """
    if spec.mode != "full":
        raise ValueError("analyze_full requires a full-mode basis spec")
    if n < 1:
        raise ValueError(f"coefficient count must be positive (got {n})")
    if method not in ("auto", "fast", "quadrature"):
        raise ValueError(f"unknown method {method!r}")
    fast = _is_half_integer_pair(spec.params)
    if method == "fast" and not fast:
        raise ValueError("fast path requires alpha, beta in {-1/2, +1/2}")
    if method == "quadrature":
        fast = False
    nodes = _grid("full", n) if fast else _rule_nodes(spec.params, "full", n)
    c = _project(spec.params, nodes, _modified(spec.params, "full", nodes, _sample(f, nodes.x)))
    c[1::2] *= -1.0
    return Expansion(spec=spec, coeffs=c)


def analyze_half(spec: BasisSpec, f, n: int) -> Expansion:
    """First n coefficients through the even/odd half-range transforms.

    f is split into even and odd parts sampled on (0, inf); even-index
    coefficients come from the (alpha, -1/2) system, odd ones from
    (alpha, +1/2), interleaved as (c_0, c_1, c_2, ...).  For
    alpha = -1/2 the two transforms are cosine-type kernels (DCT-II and
    DCT-IV), for alpha = +1/2 sine-type (DST-IV and DST-II); any other
    alpha uses Gauss-Jacobi quadrature.
    """
    if spec.mode != "half":
        raise ValueError("analyze_half requires a half-mode basis spec")
    if n < 2 or n % 2:
        raise ValueError(f"coefficient count must be even and >= 2 (got {n})")
    a = spec.params.alpha
    fast = a in (-0.5, 0.5)
    c = np.empty(n)
    samples = None
    # b = -1/2: even part into c_0, c_2, ...; b = +1/2: odd part, negated
    for b, out in ((-0.5, c[0::2]), (0.5, c[1::2])):
        par = JacobiParams(a, b)
        nodes = _grid("half", n // 2) if fast else _rule_nodes(par, "half", n // 2)
        if samples is None or not fast:  # both fast transforms share one grid
            samples = _sample(f, nodes.x), _sample(f, -nodes.x)
        sign = -2.0 * b
        F = _modified(par, "half", nodes, 0.5 * (samples[0] + sign * samples[1]))
        out[:] = sign * 2.0**0.25 * _project(par, nodes, F)
    return Expansion(spec=spec, coeffs=c)


def analyze_unweighted(f, m_max: int, n: int | None = None) -> np.ndarray:
    """Coefficients a_0..a_{m_max} of f(x) = sum a_m T~_m(tanh x).

    The unweighted first-kind series (T~_0 = 1/sqrt 2, T~_m = T_m) used for
    variable coefficients of multiplication operators; same DCT machinery
    as the Chebyshev-T transform but without the boundary-weight division.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative (got {m_max})")
    if n is None:
        n = max(32, 2 * (m_max + 1))
    if n <= m_max:
        raise ValueError("sample count must exceed m_max")
    grid = _grid("full", n)
    # T~_m = sqrt(pi/2) q_m of the Chebyshev-T pair
    coeffs = _SQRT_2_OVER_PI * _project(JacobiParams(-0.5, -0.5), grid, _sample(f, grid.x))
    return coeffs[: m_max + 1]


def synthesize(e: Expansion, points) -> np.ndarray:
    """Evaluate the expansion at the given points (Clenshaw per point batch)."""
    pts = np.atleast_1d(np.asarray(points, dtype=float))
    return np.asarray(clenshaw_eval(e, pts))
