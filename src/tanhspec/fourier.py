"""Fourier-space representation of expansions.

Transforming the basis takes products of two Gamma factors: with
F[f](xi) = (2 pi)^{-1/2} int f(x) e^{-i x xi} dx (the convention used
throughout this package and pinned by direct quadrature), the transform of
an N-term expansion is

    F[f](xi) = g(xi) * sum_m i^m c_m p_m(xi),

where g(xi) = C * Gamma((a+1)/2 + i xi/2) Gamma((b+1)/2 - i xi/2), the
constant C > 0 normalises |g|^2 dxi to unit mass, and the p_m are the
orthonormal polynomials of that measure.  C underflows once a and b near
300, so ln C is carried and added inside every exponent.  The p_m,
generalised Carlitz polynomials, satisfy xi p_m = b_{m-1} p_{m-1} + b_m p_{m+1}
(b_m the differentiation couplings), summed by jacobi.forward_sum.
(The i^m phase, rather than (-i)^m, is forced jointly by F[f'] = i xi F[f]
and the positive-leading three-term recurrence of the p_m; the (-i)^m form
belongs to the opposite exponent sign with g conjugated.)
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import Expansion
from .jacobi import couplings, forward_sum
from .special import JacobiParams, log_gamma_complex

__all__ = [
    "FourierRep",
    "fourier_rep",
    "normalisation_constant",
    "g_weight",
    "measure_density",
    "carlitz_eval",
    "fourier_transform",
]


@dataclass(frozen=True, eq=False)
class FourierRep:
    """Normalised Fourier-space weight data for one parameter pair."""

    params: JacobiParams
    log_normalisation: float  # ln C


def _clamp_xi(xi) -> np.ndarray:
    # the weight is exactly 0.0 from |xi| = 1e300 on, where it and xi / b_0
    # are still finite; a non-finite xi is left for log_gamma_complex to reject
    xi = np.asarray(xi, dtype=float)
    return np.where(np.isfinite(xi), np.clip(xi, -1e300, 1e300), xi)


def _log_gamma_pair(params: JacobiParams, xi) -> np.ndarray:
    # ln Gamma((a+1)/2 + i xi/2) + ln Gamma((b+1)/2 - i xi/2), elementwise
    xi = _clamp_xi(xi)
    half = np.zeros(xi.shape, dtype=complex)
    half.imag = 0.5 * xi  # 0.5j * xi would make a nan real part from an infinite xi
    return log_gamma_complex(0.5 * (params.alpha + 1.0) + half) + log_gamma_complex(
        0.5 * (params.beta + 1.0) - half
    )


def _decay_cutoff(params: JacobiParams) -> float:
    # density ~ 4 pi^2 |xi/2|^{a+b} e^{-pi |xi|}; cutoff where the tail is
    # far below double precision
    return 45.0 + 12.0 * max(0.0, params.alpha + params.beta)


def normalisation_constant(params: JacobiParams) -> float:
    """ln C, where C > 0 has C^2 int |Gamma Gamma|^2 dxi = 1, in closed form.

    Barnes' first lemma (DLMF 5.13.3) gives the unnormalised mass
    int |Gamma((a+1)/2 + i xi/2) Gamma((b+1)/2 - i xi/2)|^2 dxi
        = 4 pi Gamma(a+1) Gamma(b+1) Gamma((a+b)/2+1)^2 / Gamma(a+b+2).
    """
    a, b = params.alpha, params.beta
    log_mass = (
        math.log(4.0 * math.pi)
        + math.lgamma(a + 1.0)
        + math.lgamma(b + 1.0)
        + 2.0 * math.lgamma(0.5 * (a + b) + 1.0)
        - math.lgamma(a + b + 2.0)
    )
    return -0.5 * log_mass


def _panel_mass(params: JacobiParams, log_c: float) -> float:
    # independent check of the unit mass: fixed Gauss-Legendre panels, graded
    # geometrically toward the peak at xi = 0, whose width shrinks to
    # min(a, b) + 1 as a or b approaches -1
    nodes, weights = np.polynomial.legendre.leggauss(24)
    uniform = np.linspace(0.0, _decay_cutoff(params), 64)
    width = min(params.alpha, params.beta) + 1.0
    edges = np.concatenate(([0.0], np.geomspace(1e-3 * width, uniform[1], 24), uniform[2:]))
    lo, hi = edges[:-1, None], edges[1:, None]
    xs = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
    density = np.exp(2.0 * (log_c + _log_gamma_pair(params, xs).real))
    return 2.0 * float(np.sum((0.5 * (hi - lo) * density) @ weights))


@lru_cache(maxsize=32)
def _checked_normalisation(params: JacobiParams) -> float:
    log_c = normalisation_constant(params)
    mass = _panel_mass(params, log_c)
    if not abs(mass - 1.0) <= 1e-10:  # a NaN mass fails too
        raise RuntimeError(f"Fourier measure mass check failed: got {mass!r}, expected 1")
    return log_c


def fourier_rep(params: JacobiParams) -> FourierRep:
    """Fourier-space representation of one parameter pair.

    The normalisation depends only on (alpha, beta) and is cached on them.
    Its unit-mass invariant is verified once per pair, with a quadrature
    independent of the closed form that computed the constant.
    """
    return FourierRep(params=params, log_normalisation=_checked_normalisation(params))


def g_weight(rep: FourierRep, xi):
    """Complex weight g(xi) = C Gamma((a+1)/2 + i xi/2) Gamma((b+1)/2 - i xi/2).

    Has even real part and odd imaginary part in xi; real and even when
    alpha = beta.  Raises ValueError if any xi is not finite.
    """
    out = np.exp(rep.log_normalisation + _log_gamma_pair(rep.params, xi))
    return complex(out) if np.ndim(xi) == 0 else out


def measure_density(rep: FourierRep, xi):
    """|g(xi)|^2, the density of the unit-mass orthogonality measure.

    Raises ValueError if any xi is not finite.
    """
    out = np.exp(2.0 * (rep.log_normalisation + _log_gamma_pair(rep.params, xi).real))
    return float(out) if np.ndim(xi) == 0 else out


def carlitz_eval(rep: FourierRep, m: int, xi):
    """Orthonormal polynomial p_m of the measure |g|^2 dxi: the jacobi.forward_sum of the
    unit vector e_m over xi p_k = b_{k-1} p_{k-1} + b_k p_{k+1}, p_0 = 1."""
    if m < 0:
        raise ValueError(f"degree must be nonnegative (got {m})")
    out = forward_sum(np.zeros(m + 1), couplings(rep.params, m + 1), np.eye(1, m + 1, m)[0], np.atleast_1d(xi), 0.0)
    return float(out[0]) if np.ndim(xi) == 0 else out


def fourier_transform(e: Expansion, xi_points) -> np.ndarray:
    """F[f](xi) = g(xi) sum_m i^m c_m p_m(xi) of the expansion, under the e^{-i x xi} convention.

    One jacobi.forward_sum over the rows of the p_m, started at Re ln g(xi)
    so that rows may pass the float range where |g| underflows, times the
    phase of g.  |F| <= |g(xi)| (1 + sum_m |c_m|) prod_{k<n-1} (1 + |xi|) max(1, (1 + b_{k-1}) / b_k)
    for every (alpha, beta), since p_0 = 1 and |p_{k+1}| <= (|xi| + b_{k-1}) / b_k max(|p_k|, |p_{k-1}|)
    with b_{-1} = 0; where this bound is below e^-745, F is 0.0 without a
    sweep, as at |xi| = 1e300, where one step would multiply by xi / b_0.
    A half-mode expansion is the same function as the full-mode one with its
    coefficients, and has the same transform.  Raises ValueError if any xi
    is not finite.
    """
    n, params = len(e), e.spec.params
    xi = _clamp_xi(np.atleast_1d(xi_points))
    log_g = fourier_rep(params).log_normalisation + _log_gamma_pair(params, xi)
    b = couplings(params, n)
    growth = np.sum(np.maximum(0.0, np.log1p(np.concatenate(([0.0], b))[: n - 1]) - np.log(b[: n - 1])))
    keep = log_g.real + np.log1p(np.sum(np.abs(e.coeffs))) + growth + (n - 1) * np.log1p(np.abs(xi)) >= -745.0
    c = np.array([1.0, 1j, -1.0, -1j])[np.arange(n) % 4] * e.coeffs  # i^m c_m, exactly
    re, im = forward_sum(np.zeros(n), b, np.stack([c.real, c.imag]), xi[keep], log_g.real[keep])
    out = np.zeros(xi.size, dtype=complex)
    out[keep] = np.exp(1j * log_g.imag[keep]) * (re + 1j * im)
    return complex(out[0]) if np.ndim(xi_points) == 0 else out
