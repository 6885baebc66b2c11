"""Gamma-family special functions and Jacobi norm constants.

Everything that can overflow for large degree or large weight exponents
(the norms g_m, Gamma at large argument) is carried in log space and
exponentiated as late as possible.  Real log-Gamma values come from
math.lgamma; the complex log-Gamma of the Fourier weight is computed here,
on the right half-plane only, which is all the weight reaches.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "JacobiParams",
    "log_gamma_complex",
    "log_jacobi_norm",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class JacobiParams:
    """Weight exponents (alpha, beta) of a Jacobi family.

    Both exponents must lie strictly above -1 (open-interval constraint;
    the basis functions leave L2 otherwise), enforced at construction.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > -1.0):
            raise ValueError(f"alpha must exceed -1 (got {self.alpha})")
        if not (math.isfinite(self.beta) and self.beta > -1.0):
            raise ValueError(f"beta must exceed -1 (got {self.beta})")


# ln Gamma(z) on the right half-plane, the only region the Fourier weight
# Gamma((a+1)/2 + i xi/2) Gamma((b+1)/2 - i xi/2) reaches: Stirling's series
# (DLMF 5.11.1) where |z| >= 8, and below that the upward recurrence
# (DLMF 5.5.1) to Re z >= 8 first.  Written out here so that the Fourier
# layer needs no SciPy import.

#: B_2k / (2k (2k - 1)), k = 1..8: the Stirling series in 1/z
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
#: |z| from which the 8-term Stirling series reaches double precision
_STIRLING_FROM = 8.0


def _stirling_tail(z):
    """mu(z) = ln Gamma(z) - [(z - 1/2) ln z - z + ln sqrt(2 pi)], the series in 1/z, for |z| >= 8."""
    r = 1.0 / z
    series = _STIRLING[-1]
    for c in _STIRLING[-2::-1]:
        series = series * (r / z) + c
    return r * series


def _stirling(z):
    return (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + _stirling_tail(z)


def log_gamma_complex(z):
    """Principal-branch ln Gamma(z) for Re z > 0, elementwise on arrays.

    Agrees with scipy.special.loggamma to within 1e-14 (1 + |ln Gamma(z)|),
    branch included, without importing SciPy.  A scalar argument gives a
    Python complex.  Conjugate symmetry ln Gamma(conj z) = conj ln Gamma(z)
    holds bit-exactly, and an array gives bit for bit the values of
    elementwise scalar calls.

    Raises
    ------
    ValueError
        Unless every z is finite with Re z > 0.
    """
    z = np.asarray(z, dtype=complex)
    # 1-d even for a scalar: numpy rounds complex products on 0-d arrays
    # differently from its 1-d loop
    flat = z.ravel()
    ok = np.isfinite(flat) & (flat.real > 0.0)
    if not ok.all():
        raise ValueError(f"log_gamma_complex requires finite z with Re z > 0 (got {flat[~ok][0]})")
    # ln Gamma(z) = ln Gamma(z + k) - sum_{j<k} ln(z + j); every z + j lies in
    # the right half-plane, so the sum of principal logs keeps the branch
    k = np.where(np.abs(flat) < _STIRLING_FROM, np.ceil(_STIRLING_FROM - flat.real), 0.0)
    out = _stirling(flat + k)
    near = np.flatnonzero(k)
    w, k = flat[near], k[near]
    out[near] -= sum(np.where(j < k, np.log(w + j), 0.0) for j in range(int(k.max(initial=0.0))))
    out = out.reshape(z.shape)
    return complex(out) if out.ndim == 0 else out


def log_jacobi_norm(params: JacobiParams, m: int) -> float:
    """ln of the squared weighted L2 norm g_m of the degree-m Jacobi polynomial.

    g_m = 2^{1+a+b} Gamma(1+a+m) Gamma(1+b+m)
          / [m! (1+a+b+2m) Gamma(1+a+b+m)].

    The m = 0 case is folded into Gamma(a+b+2) so the formula stays valid
    when 1+a+b <= 0.  There, with p = a+1 and q = b+1 both at least 8,
    Stirling's series for each ln Gamma (mu its remainder) cancels the large
    terms in algebra, as betaln does (DiDonato & Morris, ACM TOMS 18, 1992).
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative (got {m})")
    a, b = params.alpha, params.beta
    s = a + b
    p, q = a + 1.0, b + 1.0
    if m == 0 and min(p, q) >= _STIRLING_FROM:
        # (p - 1/2) ln(2p / (p+q)) + (q - 1/2) ln(2q / (p+q)), whose two terms cancel for x near 0
        x = (p - q) / (p + q)
        head = ([(p + q - 1.0) / 2.0 * math.log1p(-x * x), (p - q) * math.atanh(x)] if abs(x) < 0.5 else
                [(p - 0.5) * math.log(2.0 * p / (p + q)), (q - 0.5) * math.log(2.0 * q / (p + q))])
        return math.fsum(head + [-0.5 * math.log(p + q), _HALF_LOG_2PI, _stirling_tail(p), _stirling_tail(q),
                                 -_stirling_tail(p + q)])
    if m == 0:
        return (s + 1.0) * _LN2 + math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(s + 2.0)
    return (
        (s + 1.0) * _LN2
        + math.lgamma(a + m + 1.0)
        + math.lgamma(b + m + 1.0)
        - math.lgamma(m + 1.0)
        - math.log(s + 2.0 * m + 1.0)
        - math.lgamma(s + m + 1.0)
    )
