"""Expansion coefficients: fast trigonometric paths and the quadrature path.

For the four half-integer parameter pairs the coefficient integrals reduce
to cosine/sine sums over the first-kind Chebyshev angles
theta_k = (2k+1) pi / (2N), evaluated with kernels on numpy.fft in
O(N log N); every other parameter pair goes through an N-point
Gauss-Jacobi rule in O(N^2), one jacobi.project of the samples (one
matrix-vector product per block of the recurrence kernel) started at a log
scale per node that holds the rule's log weight; at a = b, of f folded
onto the symmetric rule's nodes with t >= 0.  The rule itself is a few
sweeps of the same kernel (jacobi.gauss_jacobi), cached per (params, N)
as the x, t and log start it reads (_rule_nodes); the grid is cached per N
as a SampleGrid with the kernels' factor (_grid).  Half mode runs
the full-range transform of its (a, a) pair, whose functions it names.
Both routes approximate the same integrals (quadrature semantics,
no endpoint samples), so they agree to rounding on band-limited inputs.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import BasisSpec, Expansion, _log_weight_full, clenshaw_eval
from .jacobi import gauss_jacobi, project, recurrence
from .special import JacobiParams, log_jacobi_norm

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
#:   DCT-II: y_m = sum_n x_n cos(pi m (2n+1) / (2N))
#:   DCT-IV: y_m = sum_n x_n cos(pi (2m+1)(2n+1) / (4N))
#:   DST-II: y_m = sum_n x_n sin(pi (m+1)(2n+1) / (2N))
#:   DST-IV: y_m = sum_n x_n sin(pi (2m+1)(2n+1) / (4N))
_KINDS = ("DCT-II", "DCT-IV", "DST-II", "DST-IV")
_SQRT_HALF = math.sqrt(0.5)


@lru_cache(maxsize=64)
def _twiddles(kind: str, n: int) -> tuple[np.ndarray, ...]:
    """exp(-i pi p / (2n)), and for DCT-IV also exp(-i pi (2p+1) / (4n)), at the
    positions p that one FFT serves: DCT-II's outputs 0..n/2; DCT-IV's even
    positions for even n (half-length FFT), all of them for odd n."""
    if kind == "DCT-II":
        p = np.arange(n // 2 + 1)
        tw = (np.exp(-0.5j * math.pi / n * p),)
    else:
        p = np.arange(0, n, 2) if n % 2 == 0 else np.arange(n)
        tw = np.exp(-0.5j * math.pi / n * p), np.exp(-0.25j * math.pi / n * (2 * p + 1))
    for a in tw:
        a.flags.writeable = False
    return tw


def _dct2(x: np.ndarray) -> np.ndarray:
    # Makhoul: reorder to [x0, x2, x4, ..., x5, x3, x1], one real FFT, twiddle;
    # outputs above n/2 are minus the imaginary parts, in reverse
    n = x.size
    w = np.fft.rfft(np.concatenate((x[0::2], x[1::2][::-1]))) * _twiddles("DCT-II", n)[0]
    y = np.empty(n)
    y[: w.size] = w.real
    y[w.size :] = -w.imag[n - w.size : 0 : -1]
    return y


def _dct4(x: np.ndarray) -> np.ndarray:
    n = x.size
    pre, post = _twiddles("DCT-IV", n)
    if n % 2:
        # one zero-padded FFT of length 2n: y_m = Re post_m sum_j pre_j x_j e^{-2 pi i mj/(2n)}
        return (np.fft.fft(x * pre, 2 * n)[:n] * post).real
    # x_{2j} + i x_{n-1-2j} in one FFT of length n/2 gives y_{2m} (real
    # part) and y_{n-1-2m} (minus the imaginary part)
    w = np.fft.fft((x[0::2] + 1j * x[::-1][0::2]) * pre) * post
    y = np.empty(n)
    y[0::2] = w.real
    y[::-1][0::2] = -w.imag
    return y


def dct(kind: str, data) -> np.ndarray:
    """Trigonometric transform of `data` per the defining sums above.

    Each kind is one numpy FFT plus O(N) work, for every length.  DST-II and
    DST-IV are the cosine kernels of the sign-alternated input, read in
    reverse: DST-k(x)_m = DCT-k((-1)^j x_j)_{N-1-m}.
    """
    key = kind.upper()
    if key not in _KINDS:
        raise ValueError(f"unknown transform kind {kind!r}")
    x = np.asarray(data, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("data must be a nonempty 1-d sequence")
    kernel = _dct2 if key.endswith("-II") else _dct4
    if key.startswith("DCT"):
        return kernel(x)
    z = x.copy()
    z[1::2] *= -1.0
    return kernel(z)[::-1]


@dataclass(frozen=True, eq=False)
class SampleGrid:
    """First-kind Chebyshev angles with their mapped real-line sample points (read-only arrays)."""

    theta: np.ndarray
    x: np.ndarray
    size: int


def _mapped_x(theta: np.ndarray) -> np.ndarray:
    """x = asinh(cot theta) = atanh t, t = cos theta: f is sampled at x, F = f / W(x) expanded (_log_weight_full)."""
    return np.arcsinh(np.cos(theta) / np.sin(theta))


@lru_cache(maxsize=64)
def _grid(n: int) -> tuple[SampleGrid, np.ndarray]:
    """The fast paths' n-point Chebyshev grid and its factor, read-only (all callers share them): sqrt(pi/2)
    cosh^{1/2} x is sqrt(pi) 2^{(a+b)/2} times the premultiplier sin(theta/2)^{a+1/2} cos(theta/2)^{b+1/2} over W."""
    theta = (2.0 * np.arange(n) + 1.0) * math.pi / (2.0 * n)
    x = _mapped_x(theta)
    factor = math.sqrt(0.5 * math.pi) * np.sqrt(np.cosh(x))
    for arr in (x, theta, factor):
        arr.flags.writeable = False
    return SampleGrid(theta, x, n), factor


@lru_cache(maxsize=16)
def _rule_nodes(params: JacobiParams, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The n-point Gauss-Jacobi rule's sample points x, kernel points t and log start ln w_k - ln sqrt(g_0) - ln W(x_k),
    read-only (every caller of the cache shares them), so jacobi.project forms only w_k F_k q_m(t_k).  Of a symmetric
    rule (a = b) only the nodes with t >= 0 are kept, onto which _coefficients folds f, and the node at t = 0 of an odd
    one, its own mirror, counts half.  One O(n^2) rule, 24 n bytes (16 n at a = b), serves every function at (params,
    n): on quad_eval's task stream (seeds 1 and 2, 6 cycles) 96 of 148 calls hit at 8, 16 or 32 entries (39-48 at 4)."""
    rule = gauss_jacobi(params, n)
    kept = slice(n // 2 if params.alpha == params.beta else 0, None)
    x = _mapped_x(rule.angles[kept])
    log_start = rule.log_weights[kept] - 0.5 * log_jacobi_norm(params) - _log_weight_full(params, x)
    if params.alpha == params.beta and n % 2:
        log_start[0] -= math.log(2.0)
    t = rule.nodes[kept]  # a view: all n nodes stay held
    for arr in (x, t, log_start):
        arr.flags.writeable = False
    return x, t, log_start


def sample_grid(n: int) -> SampleGrid:
    """The N-point grid that the fast paths of both modes sample (no endpoint samples); one cached, read-only grid."""
    if n < 1:
        raise ValueError(f"grid size must be positive (got {n})")
    return _grid(n)[0]


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
        raise ValueError(f"non-finite sample f({float(x[bad][0])!r}) = {float(vals[bad][0])!r}")
    return vals


#: (a, b) -> kind: the orthonormal (a, b) coefficients of f on the N-point
#: grid are (2/N) kind(f factor) (_kernel), factor the grid's (_grid)
_KERNEL_TABLE = {(-0.5, -0.5): "DCT-II", (0.5, 0.5): "DST-II", (0.5, -0.5): "DST-IV", (-0.5, 0.5): "DCT-IV"}


def _kernel(kind: str, v: np.ndarray) -> np.ndarray:
    """(2/N) kind(v), N = v.size, with c_0 of DCT-II (the constant's coefficient) divided by sqrt 2."""
    y = (2.0 / v.size) * dct(kind, v)
    if kind == "DCT-II":
        y[0] *= _SQRT_HALF
    elif kind == "DST-II":
        # the m = N-1 integrand contains cos(2N theta), the one frequency the
        # first-kind midpoint rule aliases (onto the constant, doubling the
        # band-limited contribution); halving restores rule exactness
        y[-1] *= 0.5
    return y


def _coefficients(params: JacobiParams, f, n: int, quadrature: bool = False) -> np.ndarray:
    """(-1)^m int q_m F (1-t)^a (1+t)^b dt, m < n (F of _mapped_x): the pair's kernel on the grid if it has one,
    unless quadrature, else one jacobi.project on the rule; at a = b, where q_m(-t) = (-1)^m q_m(t), of the rows
    f(x) +- f(-x) at the nodes with t >= 0, the first giving the even m, the second the odd."""
    kind = None if quadrature else _KERNEL_TABLE.get((params.alpha, params.beta))
    if kind:
        grid, factor = _grid(n)
        c = _kernel(kind, _sample(f, grid.x) * factor)
    else:
        x, t, log_start = _rule_nodes(params, n)
        fx = _sample(f, x)
        if params.alpha != params.beta:
            c = project(recurrence(params, "jacobi", n), fx, t, log_start)
        else:
            fy = _sample(f, -x)
            c, odd = project(recurrence(params, "jacobi", n), np.stack([fx + fy, fx - fy]), t, log_start)
            c[1::2] = odd[1::2]
    c[1::2] *= -1.0
    return c


def analyze_full(spec: BasisSpec, f, n: int) -> Expansion:
    """First n expansion coefficients of the callable f in a full-range basis: by the pair's kernel of
    _KERNEL_TABLE on the grid if it has one, else by the Gauss-Jacobi rule (_coefficients)."""
    if spec.mode != "full":
        raise ValueError("analyze_full requires a full-mode basis spec")
    if n < 1:
        raise ValueError(f"coefficient count must be positive (got {n})")
    return Expansion(spec=spec, coeffs=_coefficients(spec.params, f, n))


def analyze_half(spec: BasisSpec, f, n: int) -> Expansion:
    """First n coefficients in a half-range basis: its functions are the full-range ones of the (alpha, alpha)
    pair (basis), and so are its coefficients, those of analyze_full, bit for bit."""
    if spec.mode != "half":
        raise ValueError("analyze_half requires a half-mode basis spec")
    if n < 2 or n % 2:
        raise ValueError(f"coefficient count must be even and >= 2 (got {n})")
    return Expansion(spec=spec, coeffs=_coefficients(spec.params, f, n))


def analyze_unweighted(f, m_max: int) -> np.ndarray:
    """Coefficients a_0..a_{m_max} of f(x) = sum a_m T~_m(tanh x).

    The unweighted first-kind series (T~_0 = 1/sqrt 2, T~_m = T_m) used for
    variable coefficients of multiplication operators; same DCT machinery
    as the Chebyshev-T transform, on max(32, 2 (m_max + 1)) samples, but
    without the boundary-weight division.
    """
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative (got {m_max})")
    x = _grid(max(32, 2 * (m_max + 1)))[0].x
    return _kernel("DCT-II", _sample(f, x))[: m_max + 1]


def synthesize(e: Expansion, points) -> np.ndarray:
    """Evaluate the expansion at the given points (basis.clenshaw_eval), shaped like them but at least 1-d."""
    return clenshaw_eval(e, np.atleast_1d(np.asarray(points, dtype=float)))
