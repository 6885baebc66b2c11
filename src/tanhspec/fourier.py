"""Fourier-space representation of expansions.

Transforming the basis takes products of two Gamma factors: with
F[f](xi) = (2 pi)^{-1/2} int f(x) e^{-i x xi} dx (the convention used
throughout this package and pinned by direct quadrature), the transform of
an N-term expansion is

    F[f](xi) = g(xi) * sum_m i^m c_m p_m(xi),

where g(xi) = C * Gamma((a+1)/2 + i xi/2) Gamma((b+1)/2 - i xi/2), the
constant C > 0 normalises |g|^2 dxi to unit mass, and the p_m are the
orthonormal polynomials of that measure.  C underflows once a and b near
300, so g is the exponential of ln g, one closed form whose large terms
cancel in algebra (_log_weight).  Each function takes the JacobiParams of
its pair and evaluates only that closed form: Barnes' first lemma makes the
unit mass of |g|^2 dxi an identity of it, which the tests check by
quadrature.  The p_m, generalised Carlitz polynomials, satisfy
xi p_m = b_{m-1} p_{m-1} + b_m p_{m+1} (b_m the differentiation couplings),
the pair's cached Carlitz table, summed by jacobi.forward_sum and shaped like xi.
(The i^m phase, rather than (-i)^m, is forced jointly by F[f'] = i xi F[f]
and the positive-leading three-term recurrence of the p_m; the (-i)^m form
belongs to the opposite exponent sign with g conjugated.)
"""

import math

import numpy as np

from .basis import Expansion, _degree, _shaped
from .jacobi import forward_sum, recurrence
from .special import _LN2, _STIRLING_FROM, JacobiParams, _stirling_tail, log_jacobi_norm

__all__ = [
    "normalisation_constant",
    "g_weight",
    "measure_density",
    "carlitz_eval",
    "fourier_transform",
]


def _finite_xi(xi) -> np.ndarray:
    """xi as a flat float array; raises ValueError if any xi is not finite."""
    xi = np.asarray(xi, dtype=float).ravel()
    if not np.all(np.isfinite(xi)):
        raise ValueError(f"xi must be finite (got {xi[~np.isfinite(xi)][0]})")
    return xi


def _log1p_i(u):
    # log1p(iu) = L + iA for real u, L = ln sqrt(1 + u^2) with u^2 finite at every clamped u
    big = np.maximum(np.abs(u), 1e150)
    return 0.5 * np.log1p(np.square(np.minimum(np.abs(u), 1e150))) + np.log(big / 1e150), np.arctan(u)


def _log_weight(params: JacobiParams, xi) -> np.ndarray:
    """ln g(xi), 1-d over the clamped xi: with p = (a+1)/2, q = (b+1)/2 and y = xi/2, Barnes' lemma gives
    ln g = -ln sqrt(4 pi) - ln sqrt(B(a+1, b+1)) + ln B(p + iy, q - iy).  Lifting p, q by k, l steps to
    P, Q >= 8 (DLMF 5.5.1), Stirling's series (DLMF 5.11.1, mu its remainder) for its six ln Gamma cancels
    the large terms in algebra, as log_jacobi_norm does for ln g_0:
    ln g = 1/4 ln((P+Q) / (4 pi P Q)) + iy ln(P/Q) + (P - 1/2 + iy) log1p(iy/P) + (Q - 1/2 - iy) log1p(-iy/Q)
           + mu(P+iy) + mu(Q-iy) - mu(P+Q) - [mu(2P) + mu(2Q) - mu(2P+2Q)] / 2 + lift terms.
    Raises ValueError if any xi is not finite."""
    # 1-d even for a scalar: numpy rounds complex products on 0-d arrays differently from its 1-d loop; the
    # weight is exactly 0.0 from |xi| = 1e300 on, where it and xi / b_0 are still finite
    y = 0.5 * np.clip(_finite_xi(xi), -1e300, 1e300)
    p, q = 0.5 * (params.alpha + 1.0), 0.5 * (params.beta + 1.0)
    k, l = max(0, math.ceil(_STIRLING_FROM - p)), max(0, math.ceil(_STIRLING_FROM - q))
    P, Q = p + k, q + l
    # the lift's constant, sum_{j<2k} ln sqrt(2p+j) + sum_{j<2l} ln sqrt(2q+j) - sum_{j<2k+2l} ln sqrt(2s+j)
    # + sum_{j<k+l} ln(s+j), s = p+q, whose terms pair up: ln(s+j) - ln sqrt((2s+2j)(2s+2j+1)) is
    # -ln 2 - log1p(1 / (2s+2j)) / 2
    const = math.fsum([0.25 * math.log((P + Q) / (4.0 * math.pi * P * Q)), -_stirling_tail(P + Q),
                       0.5 * (_stirling_tail(2.0 * P + 2.0 * Q) - _stirling_tail(2.0 * P) - _stirling_tail(2.0 * Q)),
                       *(0.5 * math.log(2.0 * p + j) for j in range(2 * k)),
                       *(0.5 * math.log(2.0 * q + j) for j in range(2 * l)),
                       *(-_LN2 - 0.5 * math.log1p(0.5 / (p + q + j)) for j in range(k + l))])
    lp, ap = _log1p_i(y / P)
    lq, aq = _log1p_i(y / Q)
    # ln(P/Q) + ln|1 + iy/P| - ln|1 + iy/Q| = ln|P + iy| - ln|Q + iy| = +-ln sqrt(1 + |P^2 - Q^2| / h^2), h the
    # smaller modulus, formed without cancelling
    h = np.hypot(min(P, Q), y)
    re = const + (P - 0.5) * lp + (Q - 0.5) * lq - y * (ap + aq)
    im = math.copysign(0.5, P - Q) * y * np.log1p(abs(P - Q) / h * ((P + Q) / h)) + (P - 0.5) * ap - (Q - 0.5) * aq
    # the lift per point, -sum ln(p + j + iy) - sum ln(q + j - iy), an array per step so one xi rounds as many do
    re -= sum(np.log(np.hypot(p + j, y)) for j in range(k)) + sum(np.log(np.hypot(q + j, y)) for j in range(l))
    im += sum(np.arctan2(y, q + j) for j in range(l)) - sum(np.arctan2(y, p + j) for j in range(k))
    return (re + 1j * im) + (_stirling_tail(P + 1j * y) + _stirling_tail(Q - 1j * y))


def normalisation_constant(params: JacobiParams) -> float:
    """ln C, where C > 0 has C^2 int |Gamma Gamma|^2 dxi = 1, in closed form.

    Barnes' first lemma (DLMF 5.13.3) gives the unnormalised mass
    int |Gamma((a+1)/2 + i xi/2) Gamma((b+1)/2 - i xi/2)|^2 dxi
        = 4 pi Gamma(a+1) Gamma(b+1) Gamma((a+b)/2+1)^2 / Gamma(a+b+2)
        = 4 pi Gamma((a+b)/2+1)^2 2^{-(a+b+1)} g_0,
    g_0 the Jacobi mass of special.log_jacobi_norm.
    """
    a, b = params.alpha, params.beta
    return (0.5 * (a + b + 1.0) * _LN2 - 0.5 * math.log(4.0 * math.pi) - 0.5 * log_jacobi_norm(params)
            - math.lgamma(0.5 * (a + b) + 1.0))


def g_weight(params: JacobiParams, xi):
    """Complex weight g(xi) = C Gamma((a+1)/2 + i xi/2) Gamma((b+1)/2 - i xi/2).

    Has even real part and odd imaginary part in xi; real and even when
    alpha = beta.  Raises ValueError if any xi is not finite.
    """
    return _shaped(np.exp(_log_weight(params, xi)), xi)


def measure_density(params: JacobiParams, xi):
    """|g(xi)|^2, the density of the unit-mass orthogonality measure.

    Raises ValueError if any xi is not finite.
    """
    return _shaped(np.exp(2.0 * _log_weight(params, xi).real), xi)


def carlitz_eval(params: JacobiParams, m: int, xi):
    """Orthonormal polynomial p_m of the measure |g|^2 dxi, shaped like xi: the jacobi.forward_sum of the unit
    vector e_m over the Carlitz recurrence xi p_k = b_{k-1} p_{k-1} + b_k p_{k+1}, p_0 = 1.  Raises ValueError
    if any xi is not finite."""
    return _shaped(forward_sum(recurrence(params, "carlitz", _degree(m) + 1), np.eye(1, m + 1, m)[0],
                               _finite_xi(xi), 0.0), xi)


def fourier_transform(e: Expansion, xi_points) -> np.ndarray:
    """F[f](xi) = g(xi) sum_m i^m c_m p_m(xi) of the expansion under the e^{-i x xi} convention, shaped like xi.

    One jacobi.forward_sum over the Carlitz rows of the p_m, started at
    Re ln g(xi) so that rows may pass the float range where |g| underflows,
    times the phase of g.  |F| <= |g(xi)| (1 + sum_m |c_m|) prod_{k<n-1} (1 + |xi|) max(1, (1 + b_{k-1}) / b_k)
    for every (alpha, beta), since p_0 = 1 and |p_{k+1}| <= (|xi| + b_{k-1}) / b_k max(|p_k|, |p_{k-1}|)
    with b_{-1} = 0; where this bound is below e^-745, F is 0.0 without a
    sweep, as at |xi| = 1e300, where one step would multiply by xi / b_0.
    A half-mode expansion is the same function as the full-mode one with its
    coefficients, and has the same transform.  Raises ValueError if any xi
    is not finite.
    """
    n, params = len(e), e.spec.params
    xi, table = _finite_xi(xi_points), recurrence(params, "carlitz", n)
    log_g, b = _log_weight(params, xi), table.e
    growth = np.sum(np.maximum(0.0, np.log1p(np.concatenate(([0.0], b))[: n - 1]) - np.log(b[: n - 1])))
    keep = log_g.real + np.log1p(np.sum(np.abs(e.coeffs))) + growth + (n - 1) * np.log1p(np.abs(xi)) >= -745.0
    c = np.array([1.0, 1j, -1.0, -1j])[np.arange(n) % 4] * e.coeffs  # i^m c_m, exactly
    re, im = forward_sum(table, np.stack([c.real, c.imag]), xi[keep], log_g.real[keep])
    out = np.zeros(xi.size, dtype=complex)
    out[keep] = np.exp(1j * log_g.imag[keep]) * (re + 1j * im)
    return _shaped(out, xi_points)
