"""Independent oracles shared across the test modules, and one fault injection (one_basin).

Everything here is deliberately implemented from first principles (direct
sums, explicit formulas, panelled quadrature) or delegated to scipy, so
the routes under test never check themselves.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np
from scipy.linalg import eigh_tridiagonal

from tanhspec.basis import diff_coeffs
from tanhspec.fourier import _finite_xi, measure_density
from tanhspec.jacobi import QuadratureRule, _blocking, _fill, _table, recurrence
from tanhspec.special import JacobiParams, log_jacobi_norm

TWO_PI = 2.0 * math.pi
_LN2 = math.log(2.0)


def _as_points(x):
    """The points as a 1-d float array, and whether x is a scalar."""
    return np.atleast_1d(np.asarray(x, dtype=float)), np.ndim(x) == 0


def naive_trig_transform(kind: str, x) -> np.ndarray:
    """O(N^2) evaluation of the defining trigonometric sums."""
    x = np.asarray(x, dtype=float)
    n = x.size
    m = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    kind = kind.upper()
    if kind == "DCT-II":
        return np.cos(np.pi * m * (2 * k + 1) / (2 * n)) @ x
    if kind == "DCT-IV":
        return np.cos(np.pi * (2 * m + 1) * (2 * k + 1) / (4 * n)) @ x
    if kind == "DST-II":
        return np.sin(np.pi * (m + 1) * (2 * k + 1) / (2 * n)) @ x
    if kind == "DST-IV":
        return np.sin(np.pi * (2 * m + 1) * (2 * k + 1) / (4 * n)) @ x
    raise ValueError(kind)


# The unnormalised three-term recurrence of the Jacobi polynomials P_m, a
# second route beside the orthonormal kernel (jacobi.orthonormal_blocks).


@dataclass(frozen=True, eq=False)
class Recurrence:
    """Three-term coefficients: t P_m = A[m] P_{m-1} + B[m] P_m + C[m] P_{m+1}.

    A[0] is set to zero (it multiplies P_{-1} = 0).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    params: JacobiParams


def recurrence_coefficients(params: JacobiParams, count: int) -> Recurrence:
    """First `count` three-term coefficients for the Jacobi family.

    The m = 0 entries use the cancelled forms B_0 = (beta-alpha)/(a+b+2),
    C_0 = 2/(a+b+2): the generic formulas are 0/0 there when a+b = 0
    (for B) or a+b = -1 (for C), both removable.
    """
    if count < 1:
        raise ValueError(f"count must be positive (got {count})")
    a, b = params.alpha, params.beta
    s = a + b
    m = np.arange(count, dtype=float)
    A = np.zeros(count)
    B = np.empty(count)
    C = np.empty(count)
    B[0] = (b - a) / (s + 2.0)
    C[0] = 2.0 / (s + 2.0)
    if count > 1:
        mm = m[1:]
        A[1:] = 2.0 * (a + mm) * (b + mm) / ((s + 2.0 * mm) * (s + 2.0 * mm + 1.0))
        B[1:] = (b - a) * (b + a) / ((s + 2.0 * mm) * (s + 2.0 * mm + 2.0))
        C[1:] = 2.0 * (mm + 1.0) * (s + mm + 1.0) / ((s + 2.0 * mm + 1.0) * (s + 2.0 * mm + 2.0))
    return Recurrence(A=A, B=B, C=C, params=params)


def couplings_closed_form(params: JacobiParams, count: int) -> np.ndarray:
    """b_0, ..., b_{count-1} in float arithmetic, as the library once computed them for each call:
    b_m = sqrt[(m+1)(a+m+1)(b+m+1)/(s+2m+3) f_m], f_0 = 1, f_m = (s+m+1)/(s+2m+1), s = a + b."""
    a, b = params.alpha, params.beta
    s = a + b
    m = np.arange(count, dtype=float)
    factor = np.ones(count)
    factor[1:] = (s + m[1:] + 1.0) / (s + 2.0 * m[1:] + 1.0)
    return np.sqrt((m + 1.0) * (a + m + 1.0) * (b + m + 1.0) / (s + 2.0 * m + 3.0) * factor)


def jacobi_eval(params: JacobiParams, m: int, t):
    """P_m^(alpha,beta)(t) by forward recurrence (stable on [-1, 1]).

    t may be a scalar (a float is returned) or an array; two rows are kept,
    so the memory is O(len(t)).
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative (got {m})")
    x = np.atleast_1d(np.asarray(t, dtype=float))
    p = np.ones_like(x)
    if m >= 1:
        rec = recurrence_coefficients(params, m)
        A, B, C = rec.A.tolist(), rec.B.tolist(), rec.C.tolist()
        prev, p = p, (x - B[0]) / C[0]
        for k in range(1, m):
            prev, p = p, ((x - B[k]) * p - A[k] * prev) / C[k]
    return float(p[0]) if np.ndim(t) == 0 else p


def jacobi_eval_batch(params, m_max: int, points) -> np.ndarray:
    """P_m^(alpha,beta) at `points` for all m = 0..m_max, by forward recurrence.

    Returns an array of shape (m_max+1, len(points)); column j holds the
    values at points[j].  The arithmetic is that of jacobi_eval, so row m
    equals jacobi_eval(params, m, points) bitwise.
    """
    t = np.atleast_1d(np.asarray(points, dtype=float))
    out = np.empty((m_max + 1, t.size))
    out[0] = 1.0
    if m_max >= 1:
        rec = recurrence_coefficients(params, m_max)
        out[1] = (t - rec.B[0]) / rec.C[0]
        for k in range(1, m_max):
            out[k + 1] = ((t - rec.B[k]) * out[k] - rec.A[k] * out[k - 1]) / rec.C[k]
    return out


def orthonormal_eval_batch(params, m_max: int, points) -> np.ndarray:
    """Rows of jacobi_eval_batch scaled to unit weighted L2 norm."""
    scale = np.exp([-0.5 * log_norm(params, m) for m in range(m_max + 1)])
    return jacobi_eval_batch(params, m_max, points) * scale[:, None]


def log_weight_full(params, x: np.ndarray) -> np.ndarray:
    """ln (1-tanh x)^{(a+1)/2} (1+tanh x)^{(b+1)/2}, with 1 -+ tanh x = 2 / (1 + e^{+-2x}).

    Written apart from the library's basis._log_weight_full, which the kernel
    checks below compare bitwise, in the same operations: ln 2 - ln(1 + e^{+-2x})
    by np.logaddexp, and |x| clamped at 1e300, where the weight is exactly 0.0,
    so that 2x stays finite.
    """
    x = np.clip(x, -1e300, 1e300)
    return 0.5 * (params.alpha + 1.0) * (_LN2 - np.logaddexp(0.0, 2.0 * x)) + 0.5 * (params.beta + 1.0) * (
        _LN2 - np.logaddexp(0.0, -2.0 * x)
    )


def phi_full_direct(spec, m: int, x):
    """phi_m of a full-mode basis by jacobi_eval: (-1)^m P_m(tanh x) w^{1/2}(x) g_m^{-1/2},
    with the weight and the norm joined in one exponent."""
    pts, scalar = _as_points(x)
    poly = jacobi_eval(spec.params, m, np.tanh(pts))
    vals = (-1.0) ** m * poly * np.exp(log_weight_full(spec.params, pts) - 0.5 * log_norm(spec.params, m))
    return float(vals[0]) if scalar else vals


def _log_sech(x: np.ndarray) -> np.ndarray:
    # sech x is exactly 0.0 from |x| = 1e300 on, so the clamp is exact where
    # the result is exponentiated and keeps 2|x| finite at the top of the range
    ax = np.minimum(np.abs(x), 1e300)
    return _LN2 - ax - np.log1p(np.exp(-2.0 * ax))


def phi_half_direct(spec, m: int, x):
    """phi_m of a half-mode basis (alpha = a = beta) by jacobi_eval: with k = m // 2,
    2^{(2a+1)/4} g_k^{-1/2} sech^{1+a} x P_k^{(a,-1/2)}(1 - 2 sech^2 x) for even m,
    -2^{(2a+3)/4} g_k^{-1/2} tanh x sech^{1+a} x P_k^{(a,1/2)}(1 - 2 sech^2 x) for odd m."""
    a = spec.params.alpha
    pts, scalar = _as_points(x)
    ls = _log_sech(pts)
    u = 1.0 - 2.0 * np.exp(2.0 * ls)
    k = m // 2
    if m % 2 == 0:
        par = JacobiParams(a, -0.5)
        log_amp = (0.25 * (2.0 * a + 1.0)) * _LN2 + (1.0 + a) * ls - 0.5 * log_norm(par, k)
        vals = jacobi_eval(par, k, u) * np.exp(log_amp)
    else:
        par = JacobiParams(a, 0.5)
        log_amp = (0.25 * (2.0 * a + 3.0)) * _LN2 + (1.0 + a) * ls - 0.5 * log_norm(par, k)
        vals = -np.tanh(pts) * jacobi_eval(par, k, u) * np.exp(log_amp)
    return float(vals[0]) if scalar else vals


def log_norm(params, m: int) -> float:
    """ln g_m from math.lgamma, g_m = 2^{1+a+b} Gamma(1+a+m) Gamma(1+b+m) / [m! (1+a+b+2m) Gamma(1+a+b+m)];
    the library holds ln g_0 alone (special.log_jacobi_norm), which serves m = 0."""
    if m == 0:
        return log_jacobi_norm(params)
    a, b = params.alpha, params.beta
    s = a + b
    return ((s + 1.0) * _LN2 + math.lgamma(a + m + 1.0) + math.lgamma(b + m + 1.0) - math.lgamma(m + 1.0)
            - math.log(s + 2.0 * m + 1.0) - math.lgamma(s + m + 1.0))


def jacobi_norm(params, m: int) -> float:
    """Squared weighted L2 norm g_m of the degree-m Jacobi polynomial."""
    return math.exp(log_norm(params, m))


def norm_ratio(params, m: int, delta: int) -> float:
    """sqrt(g_{m+delta} / g_m) through the cancellation-safe closed form.

    For delta = +1 the factor (a+b+2m+1)/(a+b+m+1) is identically 1 at
    m = 0, which resolves the removable 0/0 when a+b = -1; the analogous
    factor for delta = -1 is identically 1 at m = 1.
    """
    if delta not in (1, -1):
        raise ValueError(f"delta must be +1 or -1 (got {delta})")
    if m < 0 or m + delta < 0:
        raise ValueError(f"m + delta must be nonnegative (got m={m}, delta={delta})")
    a, b = params.alpha, params.beta
    s = a + b
    if delta == 1:
        base = (a + m + 1.0) * (b + m + 1.0) / ((m + 1.0) * (s + 2.0 * m + 3.0))
        tail = 1.0 if m == 0 else (s + 2.0 * m + 1.0) / (s + m + 1.0)
        return math.sqrt(base * tail)
    base = m * (s + 2.0 * m + 1.0) / ((a + m) * (b + m))
    tail = 1.0 if m == 1 else (s + m) / (s + 2.0 * m - 1.0)
    return math.sqrt(base * tail)


def chebyshev_eval(kind: str, m: int, theta: float) -> float:
    """Chebyshev polynomial of the given kind at t = cos(theta), theta in [0, pi].

    Trigonometric closed forms are used throughout:
      T: cos(m theta)              U: sin((m+1) theta)/sin(theta)
      V: sin((m+1/2) theta)/sin(theta/2)
      W: cos((m+1/2) theta)/cos(theta/2)
    with the analytic limit substituted at the removable endpoints.
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative (got {m})")
    k = kind.upper()
    if k == "T":
        return math.cos(m * theta)
    if k == "U":
        if theta == 0.0:
            return float(m + 1)
        if theta == math.pi:
            return float((-1) ** m * (m + 1))
        return math.sin((m + 1) * theta) / math.sin(theta)
    if k == "V":
        if theta == 0.0:
            return float(2 * m + 1)
        return math.sin((m + 0.5) * theta) / math.sin(0.5 * theta)
    if k == "W":
        if theta == math.pi:
            return float((-1) ** m * (2 * m + 1))
        return math.cos((m + 0.5) * theta) / math.cos(0.5 * theta)
    raise ValueError(f"kind must be one of T, U, V, W (got {kind!r})")


def jacobi_explicit_sum(a: float, b: float, m: int, t: float) -> float:
    """Degree-m Jacobi value through the explicit finite sum
    sum_s binom(m+a, m-s) binom(m+b, s) ((t-1)/2)^s ((t+1)/2)^{m-s}."""
    total = 0.0
    for s in range(m + 1):
        c1 = math.exp(math.lgamma(m + a + 1) - math.lgamma(m - s + 1) - math.lgamma(a + s + 1))
        c2 = math.exp(math.lgamma(m + b + 1) - math.lgamma(s + 1) - math.lgamma(b + m - s + 1))
        total += c1 * c2 * ((t - 1.0) / 2.0) ** s * ((t + 1.0) / 2.0) ** (m - s)
    return total


def fd_derivative(f, x: float, h: float = 1e-5) -> float:
    """5-point central first derivative."""
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def fd_second_derivative(f, x: float, h: float = 1e-4) -> float:
    """5-point central second derivative."""
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)) / (
        12 * h * h
    )


def gauss_panels(f, lo: float, hi: float, width: float, npts: int = 16):
    """Composite Gauss-Legendre quadrature with fixed panel width.

    Accepts vectorised integrands; complex results pass through.
    """
    nodes, weights = np.polynomial.legendre.leggauss(npts)
    edges = np.arange(lo, hi, width)
    total = 0.0
    for e in edges:
        a, b = e, min(e + width, hi)
        xs = 0.5 * (a + b) + 0.5 * (b - a) * nodes
        total = total + 0.5 * (b - a) * np.sum(weights * f(xs))
    return total


def direct_fourier(f, xi: float, halfwidth: float = 42.0) -> complex:
    """(2 pi)^{-1/2} int f(x) e^{-i x xi} dx by oscillation-aware panels.

    Panel width is capped at pi/(1 + |xi|) for the oscillation and at 1 for
    the integrand's own structure.
    """
    width = min(1.0, math.pi / (1.0 + abs(xi)))
    val = gauss_panels(lambda x: f(x) * np.exp(-1j * xi * x), -halfwidth, halfwidth, width, npts=24)
    return complex(val) / math.sqrt(TWO_PI)


def panel_mass(params) -> float:
    """int |g|^2 dxi by fixed Gauss-Legendre panels, graded geometrically toward the peak at xi = 0, whose
    width shrinks to min(a, b) + 1 as a or b approaches -1; the density ~ 4 pi^2 |xi/2|^{a+b} e^{-pi |xi|}
    is cut where its tail is far below double precision."""
    nodes, weights = np.polynomial.legendre.leggauss(24)
    uniform = np.linspace(0.0, 45.0 + 12.0 * max(0.0, params.alpha + params.beta), 64)
    width = min(params.alpha, params.beta) + 1.0
    edges = np.concatenate(([0.0], np.geomspace(1e-3 * width, uniform[1], 24), uniform[2:]))
    lo, hi = edges[:-1, None], edges[1:, None]
    xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    density = measure_density(params, xs)
    return 2.0 * float(np.sum((0.5 * (hi - lo) * density) @ weights))


def trapezoid_mass(params, half: int = 2048) -> float:
    """int |g|^2 dxi by the trapezoid rule on 2 half + 1 points over [-L, L], L the first power of two at
    which ln |g|^2 has fallen 80 below its peak at xi = 0: scaled to the density's width, which grows as
    sqrt(a + b) for large pairs, where panel_mass's fixed panels stop at 45 + 12 (a + b).  The step L / half
    is exact, as it must be: linspace's xs[1] - xs[0] at L = 2^20 is off by 1.1e-13 relative."""
    peak = math.log(measure_density(params, 0.0))
    L = 1.0
    while math.log(measure_density(params, L)) > peak - 80.0:
        L *= 2.0
    return float(np.sum(measure_density(params, np.arange(-half, half + 1) * (L / half))) * (L / half))


def fourier_transform_mp(a: float, b: float, coeffs, xi_points, dps: int = 60) -> np.ndarray:
    """F[f](xi) = g(xi) sum_m i^m c_m p_m(xi) in `dps` digits: ln g from mpmath.loggamma (_log_c_mp), and the p_m
    by xi p_m = b_{m-1} p_{m-1} + b_m p_{m+1} on couplings from their closed form (_coupling_mp)."""
    with mpmath.workdps(dps):
        ma, mb = mpmath.mpf(a), mpmath.mpf(b)
        p, q = (ma + 1) / 2, (mb + 1) / 2
        lg = mpmath.loggamma
        log_c = _log_c_mp(p, q)
        cb = [_coupling_mp(ma, mb, m) for m in range(len(coeffs))]
        out = []
        for x in np.atleast_1d(xi_points):
            x = mpmath.mpf(float(x))
            prev, cur, total = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpc(0)
            for m, c in enumerate(coeffs):
                total += mpmath.mpc(0, 1) ** m * c * cur
                prev, cur = cur, (x * cur - (cb[m - 1] * prev if m else 0)) / cb[m]
            out.append(complex(mpmath.exp(log_c + lg(mpmath.mpc(p, x / 2)) + lg(mpmath.mpc(q, -x / 2))) * total))
        return np.array(out)


def carlitz_hahn_mp(a: float, b: float, m: int, xi, dps: int = 40) -> np.ndarray:
    """p_m(xi) of the measure |g|^2 dxi as a continuous Hahn polynomial (Koekoek, Lesky & Swarttouw, Hypergeometric
    Orthogonal Polynomials and Their q-Analogues, 2010, section 9.4), run through no recurrence: with y = xi/2,
    P = (a+1)/2, Q = (b+1)/2 and the parameters (P, Q, P, Q), p_m = phat_m(y) / sqrt(h_m / h_0), where
    phat_m = i^m (2P)_m (P+Q)_m / m! 3F2(-m, m+2P+2Q-1, P+iy; 2P, P+Q; 1) and
    h_m / h_0 = (2P)_m (P+Q)_m^2 (2Q)_m / (m! (s+1)_{m-1} (2m+s)), s = 2P+2Q-1, for m >= 1.  The 3F2 is its finite
    sum (mpmath.hyp3f2 does not converge where p_m = 0), whose terms cancel: at (1e12, 3), m = 10, 120 digits leave
    p_10 wrong by 2e-8.  Each value starts at dps digits and is summed again until 30 digits remain past the
    largest term, in units of p_m."""
    out = []
    for x in np.atleast_1d(xi):
        prec = dps
        while True:
            with mpmath.workdps(prec):
                P, Q = (mpmath.mpf(a) + 1) / 2, (mpmath.mpf(b) + 1) / 2
                s, z, rf = 2 * P + 2 * Q - 1, P + mpmath.mpc(0, mpmath.mpf(float(x)) / 2), mpmath.rf
                scale = rf(2 * P, m) * rf(P + Q, m) / mpmath.factorial(m)
                norm = mpmath.sqrt(scale * rf(P + Q, m) * rf(2 * Q, m) / (rf(s + 1, m - 1) * (2 * m + s))) if m else 1
                term, total, big = mpmath.mpc(1), mpmath.mpc(1), mpmath.mpf(1)
                for k in range(m):  # term_k = (-m)_k (m+s)_k (z)_k / ((2P)_k (P+Q)_k k!)
                    term *= (k - m) * (m + s + k) * (z + k) / ((2 * P + k) * (P + Q + k) * (k + 1))
                    total += term
                    big = max(big, abs(term))
                value = (mpmath.mpc(0, 1) ** m * scale * total).real / norm
                lost = float(mpmath.log10(big * scale / norm))
            if prec >= lost + 30:
                break
            prec = math.ceil(lost) + 40
        out.append(float(value))
    return np.array(out)


def mult_op_dense(a, rows: int, cols: int, params=JacobiParams(-0.5, -0.5)) -> np.ndarray:
    """Dense rows x cols window of multiplication by a_0/sqrt 2 + sum a_k T_k(tanh x)
    in the basis of `params`: the Chebyshev Clenshaw recurrence in
    Jt = tridiag(-e, B, -e) of MultOp, run on dense K x K matrices with
    K = max(rows, cols) + M, each b_k rebuilt from its lower triangle as the
    band keeps it.

    Every entry takes the same floating-point operations in the same order
    as the band version (products with the zeros off the band add exact
    zeros), so the two must agree bitwise.
    """
    a = np.asarray(a, dtype=float)
    m = a.size - 1
    size = max(rows, cols) + m
    B, e = recurrence(params, size)[:2]
    diag = np.arange(size)

    def jt_times(B, e, x):
        y = B[:, None] * x
        y[1:] -= e[:-1, None] * x[:-1]
        y[:-1] -= e[:-1, None] * x[1:]
        return y

    def mirrored(x):
        return np.tril(x) + np.tril(x, -1).T

    b1 = b2 = np.zeros((size, size))
    for k in range(m, 0, -1):
        bk = jt_times(2.0 * B, 2.0 * e, b1) - b2
        bk[diag, diag] += a[k]
        b1, b2 = mirrored(bk), b1
    out = jt_times(B, e, b1) - b2
    out[diag, diag] += a[0] * (1.0 / math.sqrt(2.0))
    return mirrored(out)[:rows, :cols]


# Hankel shift and sign of the closed form on each half-integer pair
_HANKEL = {(-0.5, -0.5): (0, 1.0), (0.5, -0.5): (1, -1.0), (-0.5, 0.5): (1, 1.0), (0.5, 0.5): (2, -1.0)}


def toeplitz_hankel_parts(a, size: int, params=JacobiParams(-0.5, -0.5)):
    """Sequences (t, h) with entry (i, j) = t_|i-j| + h_{i+j} of the size x size
    multiplication operator on a half-integer pair: t_0 = a_0/sqrt 2,
    t_k = (-1)^k a_k/2 and h_s = sign (-1)^s a_{s+shift}/2, with (shift, sign)
    (0, +) on (-1/2, -1/2), (1, -) on (1/2, -1/2), (1, +) on (-1/2, 1/2) and
    (2, -) on (1/2, 1/2).  The form holds on every row except row and column 0
    of the (-1/2, -1/2) pair, which carry a_k/sqrt 2 instead."""
    shift, sign = _HANKEL[(params.alpha, params.beta)]
    a = np.asarray(a, dtype=float)
    half = np.where(np.arange(a.size) % 2, -0.5, 0.5) * a
    t = np.concatenate([[a[0] / math.sqrt(2.0)], half[1:]])
    h = np.zeros(2 * size)
    top = max(0, min(2 * size, a.size - shift))
    h[:top] = sign * (-1.0) ** shift * half[shift : shift + top]
    return t, h


def band_get(mat, i: int, j: int) -> float:
    """A[i, j] of a BandedMatrix read from its storage, 0 off the band."""
    if abs(i - j) <= mat.bw:
        return float(mat.data[i - j + mat.bw, j])
    return 0.0


# Row-at-a-time forms of the recurrence kernel (jacobi.orthonormal_blocks).
# The library runs the same arithmetic in place over blocks of rows; these
# loops are the references it is checked against.  They start from p_0 = 1,
# the kernel's first step from its carries (p_{-2}, p_{-1}) = (-1, 0), with
# q_0 in the log scale, and like the kernel they rescale the rows
# before the same rows by the same powers of two (jacobi._blocking gives
# the kernel's block length and blocks between checks).  The factors
# g_m (t - B_m) come from the kernel's own block product (jacobi._fill)
# over the kernel's blocks, whose rounding depends on the block's shape;
# test_fill_is_the_factor_to_rounding pins that product against the
# plain formula.


def _rescaled_recurrence(B, e, count: int, t):
    """sigma_m, and the kernel's table, K and blocks between checks."""
    sigma = [1.0, 1.0]
    for m in range(1, count - 1):
        sigma.append(sigma[m - 1] * (e[m] / e[m - 1]))
    table = _table(B[:count], e[:count])
    return np.array(sigma), table, *_blocking(table, t)


def orthonormal_rows(B, e, count: int, points, log_start):
    """Yield (s_m, p_m, log_scale), m < count, with q_m(t) = s_m p_m(t) exp(log_scale), one row at a time.

    p_m = sigma_m q_m exp(-log_scale), sigma_0 = sigma_1 = 1, sigma_{m+1} = sigma_{m-1} e_m / e_{m-1},
    runs p_{m+1} = g_m (t - B_m) p_m - p_{m-1} with g_m = sigma_{m+1} / (sigma_m e_m) from p_0 = 1,
    the symmetric recurrence t q_m = e_{m-1} q_{m-1} + B_m q_m + e_m q_{m+1} rescaled; q_0 =
    exp(log_start).  Before each row lo > 0 that is a multiple of K times the blocks between
    checks, a point whose p_{lo-2} or p_{lo-1} passes 2^128 has both divided by 2^j >= their
    size, and j ln 2 added to its log scale.
    """
    t = np.asarray(points, dtype=float)
    sigma, table, k, every = _rescaled_recurrence(B, e, count, t)
    u = np.repeat(t.ravel(), 2) if t.size == 1 else t.ravel()  # as in the kernel, one point runs as two
    C, F = table.C, np.array([u, np.ones(u.size)])
    s = 1.0 / sigma
    log_scale = log_start
    prev, p = np.zeros(t.size), np.ones(t.size)
    yield s[0], p.reshape(t.shape), log_scale
    for m in range(count - 1):
        lo = (m + 1) // k * k  # the kernel's block of row m + 1
        if m == 0 or lo == m + 1:
            factors = np.empty((min(k, count - lo), u.size))
            _fill(C, F, lo, factors)
            factors = factors[:, : t.size]
        if (m + 1) % (k * every) == 0:
            size = np.maximum(np.abs(prev), np.abs(p))
            if np.any(size > 2.0**128):
                shift = np.where(size > 2.0**128, np.frexp(size)[1], 0)
                prev, p = np.ldexp(prev, -shift), np.ldexp(p, -shift)
                log_scale = log_scale + (shift * math.log(2.0)).reshape(t.shape)
        prev, p = p, factors[m + 1 - lo] * p - prev
        yield s[m + 1], p.reshape(t.shape), log_scale


def _jacobi_rows(params, count: int, points):
    return orthonormal_rows(*recurrence(params, count)[:2], count, points, -0.5 * log_jacobi_norm(params))


def gauss_weights_rowwise(params, nodes):
    """Gauss weights 1 / sum_m q_m(t_k)^2 at the n nodes of an n-point rule, and their logs: (weights, logs).

    As in the library, the sum is kept in units of exp(2 log_scale), carried into new units at a rescale;
    weights past the float range are inf or 0, their logs finite.
    """
    total, unit = 0.0, -0.5 * log_jacobi_norm(params)
    for s, p, log_scale in _jacobi_rows(params, len(nodes), nodes):
        if log_scale is not unit:
            total, unit = total * np.exp(2.0 * (unit - log_scale)), log_scale
        total = total + (s * p) ** 2
    with np.errstate(over="ignore"):
        return np.square(np.exp(-unit)) / total, -2.0 * unit - np.log(total)


def sweep_rowwise(params, n: int, t):
    """q_{n-1}(t), q_n(t) in units of the last row's scale and -ln sum_{m<n} q_m(t)^2, one row at a time."""
    total, unit = 0.0, -0.5 * log_jacobi_norm(params)
    rows = list(_jacobi_rows(params, n + 1, t))
    for s, p, log_scale in rows[:n]:
        if log_scale is not unit:
            total, unit = total * np.exp(2.0 * (unit - log_scale)), log_scale
        total = total + (s * p) ** 2
    (s0, p0, ls0), (s1, p1, ls1) = rows[n - 1], rows[n]  # multiplying by exp(0) = 1 is exact
    return s0 * p0 * np.exp(ls0 - ls1), s1 * p1, -2.0 * ls1 - np.log(total * np.exp(2.0 * (ls0 - ls1)))


def project_rowwise(params, rule, F) -> np.ndarray:
    """Orthonormal coefficients sum_k w_k q_m(t_k) F_k, m < len(F), one dot per row."""
    rows = _jacobi_rows(params, F.size, rule.nodes)
    return np.array([s * (p @ (rule.weights * F * np.exp(ls))) for s, p, ls in rows])


def clenshaw_rowwise(e, x):
    """Forward sum of a full-range expansion over rows made one at a time.

    The rows are summed with one matrix-vector product per block of the
    kernel's K rows, carried into new units at a rescale, and the boundary
    weight and q_0 start the log scale as in the library, so that a
    comparison with clenshaw_eval checks the kernel bitwise.
    """
    params = e.spec.params
    pts, scalar = _as_points(x)
    B, off = recurrence(params, len(e))[:2]
    t = np.tanh(pts)
    k = _rescaled_recurrence(B, off, len(e), t)[2]
    log_start = log_weight_full(params, pts) - 0.5 * log_jacobi_norm(params)
    rows = list(orthonormal_rows(B, off, len(e), t, log_start))
    v = e.coeffs * (-1.0) ** np.arange(len(e))
    acc, unit = 0.0, log_start
    for lo in range(0, len(rows), k):
        block = rows[lo : lo + k]
        if block[0][2] is not unit:
            acc, unit = acc * np.exp(unit - block[0][2]), block[0][2]
        s = np.array([r[0] for r in block])
        acc = acc + (v[lo : lo + k] * s) @ np.array([r[1] for r in block])
    vals = acc * np.exp(unit)
    return float(vals[0]) if scalar else vals


# The two loops that evaluated the Fourier side before it ran on the kernel:
# the forward recurrence of one Carlitz polynomial, and the backward complex
# Clenshaw sum of a transform with its own 1e150 rescale.


def carlitz_rowwise(params, m: int, xi):
    """Orthonormal polynomial p_m of the measure |g|^2 dxi, by the forward
    recurrence p_{m+1} = (xi/b_m) p_m - (b_{m-1}/b_m) p_{m-1}, p_0 = 1."""
    x = np.atleast_1d(np.asarray(xi, dtype=float))
    b = diff_coeffs(params, max(m, 1)).b
    prev = np.zeros_like(x)
    cur = np.ones_like(x)
    for k in range(m):
        if k == 0:
            nxt = (x / b[0]) * cur
        else:
            nxt = (x / b[k]) * cur - (b[k - 1] / b[k]) * prev
        prev, cur = cur, nxt
    return float(cur[0]) if np.ndim(xi) == 0 else cur


def fourier_backward(e, xi_points) -> np.ndarray:
    """F[f](xi) = g(xi) sum_m i^m c_m p_m(xi) by backward Clenshaw on the couplings."""
    n = len(e)
    b = diff_coeffs(e.spec.params, n).b
    xi = np.clip(_finite_xi(xi_points), -1e300, 1e300)  # the recurrence's xi / b_k needs it too
    d = (1j) ** np.arange(n) * e.coeffs
    u1 = np.zeros(xi.size, dtype=complex)
    u2 = np.zeros(xi.size, dtype=complex)
    # At large |xi| the sum overflows while g underflows.  The state is kept
    # as (u1, u2) * exp(exponent), rescaled whenever |u| passes 1e150 (one
    # step grows it by ~|xi| / b_k, so it stays far from overflow), and the
    # exponent is folded into ln g at the end.
    exponent = np.zeros(xi.size)
    shrink = np.ones(xi.size)
    for k in range(n - 1, -1, -1):
        u = d[k] * shrink + (xi / b[k]) * u1
        if k + 1 < n:
            u = u - (b[k] / b[k + 1]) * u2
        big = np.abs(u) > 1e150
        if big.any():
            s = np.abs(u[big])
            u[big] /= s
            u1[big] /= s
            shrink[big] /= s
            exponent[big] += np.log(s)
        u2 = u1
        u1 = u
    log_g = _log_weight_mp(e.spec.params.alpha, e.spec.params.beta, xi.tobytes())
    out = np.exp(log_g + exponent) * u1
    return complex(out[0]) if np.ndim(xi_points) == 0 else out


def _log_c_mp(p, q):
    """ln C at the working precision, p, q = (a+1)/2, (b+1)/2, from Barnes' lemma:
    C^-2 = 4 pi Gamma(a+1) Gamma(b+1) Gamma((a+b)/2+1)^2 / Gamma(a+b+2)."""
    lg = mpmath.loggamma
    return -(mpmath.log(4 * mpmath.pi) + lg(2 * p) + lg(2 * q) - lg(2 * p + 2 * q)) / 2 - lg(p + q)


def _coupling_mp(a, b, m):
    """The differentiation coupling b_m of the mpf pair (a, b) at the working precision, its square with the
    m = 0 factor (s+m+1)/(s+2m+1) = 1 cancelled (s = a + b)."""
    s = a + b
    bm2 = (m + 1) * (a + m + 1) * (b + m + 1) / (s + 2 * m + 3)
    if m:
        bm2 *= (s + m + 1) / (s + 2 * m + 1)
    return mpmath.sqrt(bm2)


@lru_cache(maxsize=8)
def _log_weight_mp(a: float, b: float, xi_bytes: bytes) -> np.ndarray:
    """ln g(xi) = ln C + ln Gamma((a+1)/2 + i xi/2) + ln Gamma((b+1)/2 - i xi/2) at 30 digits (_log_c_mp)."""
    with mpmath.workdps(30):
        p, q = (mpmath.mpf(a) + 1) / 2, (mpmath.mpf(b) + 1) / 2
        lg = mpmath.loggamma
        log_c = _log_c_mp(p, q)
        return np.array([complex(log_c + lg(mpmath.mpc(p, x / 2)) + lg(mpmath.mpc(q, -x / 2)))
                         for x in np.frombuffer(xi_bytes)])


def _jacobi_matrix_mp(a: float, b: float, count: int):
    """B_m, e_m, m < count, and g_0 from their closed forms, at the working precision:
    B_m = (b^2 - a^2) / ((s+2m)(s+2m+2)), e_m = 2 b_m / (s+2m+2) with the
    differentiation couplings b_m, s = a + b, evaluated in mpmath from the
    binary values of a and b, so no library arithmetic enters."""
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    s = a + b

    def diag(m):
        return (b - a) / (s + 2) if m == 0 else (b * b - a * a) / ((s + 2 * m) * (s + 2 * m + 2))

    def off(m):
        return 2 * _coupling_mp(a, b, m) / (s + 2 * m + 2)

    g0 = 2 ** (s + 1) * mpmath.gamma(a + 1) * mpmath.gamma(b + 1) / mpmath.gamma(s + 2)
    return [diag(m) for m in range(count)], [off(m) for m in range(count)], g0


def orthonormal_mp(a: float, b: float, count: int, points, dps: int = 40) -> list:
    """q_0..q_{count-1} at `points` in `dps`-digit arithmetic: a list of rows of mpf.

    t q_m = e_{m-1} q_{m-1} + B_m q_m + e_m q_{m+1}, q_0 = g_0^{-1/2}, with
    the coefficients of _jacobi_matrix_mp.
    """
    with mpmath.workdps(dps):
        ts = [mpmath.mpf(float(x)) for x in points]
        B, e, g0 = _jacobi_matrix_mp(a, b, count)
        q = [1 / mpmath.sqrt(g0)] * len(ts)
        prev = [mpmath.mpf(0)] * len(ts)
        rows, e_prev = [q], mpmath.mpf(0)
        for m in range(count - 1):
            bm, em = B[m], e[m]
            prev, q = q, [((t - bm) * qk - e_prev * pk) / em for t, qk, pk in zip(ts, q, prev)]
            rows.append(q)
            e_prev = em
        return rows


def gauss_jacobi_mp(a: float, b: float, nodes, dps: int = 40) -> tuple[list, list]:
    """The n-point Gauss-Jacobi rule in `dps`-digit arithmetic, n = len(nodes): (nodes, weights), lists of mpf.

    Each node is polished from the float `nodes` by three Newton steps on
    q_n, with q_n' from the recurrence differentiated term by term, which
    take a start good to 1e-12 past 40 digits; its weight is
    1 / sum_{m<n} q_m^2 there (the coefficients of _jacobi_matrix_mp).
    """
    n = len(nodes)
    with mpmath.workdps(dps):
        B, e, g0 = _jacobi_matrix_mp(a, b, n)
        out_t, out_w = [], []
        for x in nodes:
            t = mpmath.mpf(float(x))
            for _ in range(3):
                q, dq, prev, dprev, total = 1 / mpmath.sqrt(g0), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(0), 0
                for m in range(n):
                    total += q * q
                    e_prev = e[m - 1] if m else 0
                    q_next = ((t - B[m]) * q - e_prev * prev) / e[m]
                    dq, dprev = ((t - B[m]) * dq + q - e_prev * dprev) / e[m], dq
                    q, prev = q_next, q
                t -= q / dq
            out_t.append(t)
            out_w.append(1 / total)
        return out_t, out_w


def golub_welsch(params, n: int):
    """The n-point Gauss-Jacobi rule by Golub-Welsch (Math. Comp. 23, 1969).

    Nodes are the eigenvalues of the Jacobi matrix by LAPACK's implicit-shift
    QL (dstev, through scipy); the weights are 1/sum_m q_m(t_k)^2 summed row
    by row (gauss_weights_rowwise), which is accurate to rounding where the
    first eigenvector components of the QL rotations lose several digits;
    the rule holds their logs, finite where the weights leave the float range.
    """
    B, e = recurrence(params, n)[:2]
    nodes = eigh_tridiagonal(B, e[:-1], eigvals_only=True, lapack_driver="stev")
    log_weights = gauss_weights_rowwise(params, nodes)[1]
    return QuadratureRule(nodes=nodes, log_weights=log_weights, params=params, angles=np.arccos(nodes))


def barycentric_rowwise(x_samples, values, blend: int = 3):
    """Floater-Hormann weights by the textbook triple loop, and the
    interpolant they define evaluated one point at a time.

    Returns (weights, f); f is constant beyond the sampled window and takes
    the sample itself on a node.
    """
    nodes = np.asarray(x_samples, dtype=float)
    n = nodes.size
    d = min(blend, n - 1)
    w = np.zeros(n)
    for k in range(n):
        for i in range(max(0, k - d), min(k, n - 1 - d) + 1):
            prod = 1.0
            for j in range(i, i + d + 1):
                if j != k:
                    prod /= nodes[k] - nodes[j]
            w[k] += (-1.0) ** i * prod

    def f(x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(xs)
        for i, xi in enumerate(xs):
            if xi <= nodes[0]:
                out[i] = values[0]
            elif xi >= nodes[-1]:
                out[i] = values[-1]
            else:
                hit = np.nonzero(nodes == xi)[0]
                if hit.size:
                    out[i] = values[hit[0]]
                else:
                    r = w / (xi - nodes)
                    out[i] = float(r @ values / r.sum())
        return out if np.ndim(x) else float(out[0])

    return w, f


def one_basin(start):
    """The start-angle function `start` of jacobi._start_angles' signature, with angle 4 moved into the basin of
    angle 3, a thousandth of their gap above it: Newton then finishes two nodes on one root and misses one."""

    def moved(params, n):
        theta = start(params, n)
        theta[4] = theta[3] + 1e-3 * (theta[4] - theta[3])
        return theta

    return moved
