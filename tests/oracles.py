"""Independent oracles shared across the test modules.

Everything here is deliberately implemented from first principles (direct
sums, explicit formulas, panelled quadrature) or delegated to scipy, so
the routes under test never check themselves.
"""

import math

import numpy as np

from tanhspec.basis import _as_points, _log_weight_full
from tanhspec.jacobi import jacobi_matrix
from tanhspec.special import log_jacobi_norm

TWO_PI = 2.0 * math.pi


def naive_trig_transform(kind: str, x) -> np.ndarray:
    """O(N^2) evaluation of the defining trigonometric sums."""
    x = np.asarray(x, dtype=float)
    n = x.size
    m = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    kind = kind.upper()
    if kind == "DCT-I":
        inner = x[0] / 2 + ((-1.0) ** m[:, 0]) * x[-1] / 2
        core = np.cos(np.pi * m * k / (n - 1))[:, 1 : n - 1] @ x[1 : n - 1]
        return inner + core
    if kind == "DCT-II":
        return np.cos(np.pi * m * (2 * k + 1) / (2 * n)) @ x
    if kind == "DCT-IV":
        return np.cos(np.pi * (2 * m + 1) * (2 * k + 1) / (4 * n)) @ x
    if kind == "DST-I":
        return np.sin(np.pi * (m + 1) * (k + 1) / (n + 1)) @ x
    if kind == "DST-II":
        return np.sin(np.pi * (m + 1) * (2 * k + 1) / (2 * n)) @ x
    if kind == "DST-IV":
        return np.sin(np.pi * (2 * m + 1) * (2 * k + 1) / (4 * n)) @ x
    raise ValueError(kind)


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


def mult_op_dense(a, rows: int, cols: int) -> np.ndarray:
    """Dense rows x cols window of multiplication by sum a_m T~_m(tanh x),
    entry by entry from the formula in the MultOp docstring.

    Each entry uses the same floating-point operations in the same order as
    the formula states, so an array version of it must agree bitwise.
    """
    s = 1.0 / math.sqrt(2.0)

    def coef(k):
        return float(a[k]) if k < len(a) else 0.0

    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            sign = -1.0 if (i + j) % 2 else 1.0
            if i == 0 or j == 0:
                out[i, j] = sign * coef(i + j) * s
            elif i == j:
                out[i, j] = coef(0) * s + 0.5 * coef(2 * i)
            else:
                out[i, j] = sign * 0.5 * (coef(abs(i - j)) + coef(i + j))
    return out


# Row-at-a-time forms of the quadrature-path recurrences.  The library runs
# the same arithmetic in place over blocks of rows; these loops are the
# references it is checked against.


def orthonormal_rows(params, count: int, points):
    """Yield q_0(t), ..., q_{count-1}(t) at `points`, one fresh row at a time,
    by the symmetric recurrence t q_m = e_{m-1} q_{m-1} + B_m q_m + e_m q_{m+1}."""
    t = np.asarray(points, dtype=float)
    B, e = jacobi_matrix(params, count)
    prev, q = np.zeros_like(t), np.full_like(t, math.exp(-0.5 * log_jacobi_norm(params, 0)))
    yield q
    for m in range(count - 1):
        prev, q = q, ((t - B[m]) * q - (e[m - 1] if m else 0.0) * prev) / e[m]
        yield q


def gauss_weights_rowwise(params, nodes) -> np.ndarray:
    """Gauss weights 1 / sum_m q_m(t_k)^2 at the n nodes of an n-point rule."""
    return 1.0 / sum(q * q for q in orthonormal_rows(params, len(nodes), nodes))


def project_rowwise(params, rule, F) -> np.ndarray:
    """Orthonormal coefficients sum_k w_k q_m(t_k) F_k, m < len(F), one dot per row."""
    wF = rule.weights * F
    return np.array([q @ wF for q in orthonormal_rows(params, F.size, rule.nodes)])


def clenshaw_rowwise(e, x):
    """Backward Clenshaw sum of a full-range expansion, allocating each step.

    The boundary weight is the library's own, so that a comparison with
    clenshaw_eval checks the recurrence bitwise.
    """
    params = e.spec.params
    n = len(e)
    pts, scalar = _as_points(x)
    t = np.tanh(pts)
    B, off = jacobi_matrix(params, n)
    beta = np.zeros(n)
    beta[1:] = -off[:-1] / off[1:]
    u1 = np.zeros_like(t)
    u2 = np.zeros_like(t)
    for k in range(n - 1, -1, -1):
        u = e.coeffs[k] + (B[k] - t) / off[k] * u1
        if k + 1 < n:
            u = u + beta[k + 1] * u2
        u2 = u1
        u1 = u
    vals = u1 * np.exp(_log_weight_full(params, pts) - 0.5 * log_jacobi_norm(params, 0))
    return float(vals[0]) if scalar else vals


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
