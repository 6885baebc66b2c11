"""Jacobi parameters, the Jacobi mass g_0 and Stirling's series.

Everything that can overflow for large weight exponents is carried in log
space and exponentiated as late as possible.  Real log-Gamma values come
from math.lgamma, or from Stirling's series where its large terms cancel
in algebra; the Fourier weight's complex ones are written out in fourier.
"""

import math
from dataclasses import dataclass

__all__ = [
    "JacobiParams",
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


#: B_2k / (2k (2k - 1)), k = 1..8: Stirling's series (DLMF 5.11.1) in 1/z
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


def log_jacobi_norm(params: JacobiParams) -> float:
    """ln g_0, the weight's mass: ln of 2^{1+a+b} Gamma(1+a) Gamma(1+b) / Gamma(2+a+b), the squared norm
    of the degree-0 Jacobi polynomial.

    Where p = a+1 and q = b+1 are both at least 8, Stirling's series for
    each ln Gamma (mu its remainder) cancels the large terms in algebra, as
    betaln does (DiDonato & Morris, ACM TOMS 18, 1992).
    """
    a, b = params.alpha, params.beta
    p, q = a + 1.0, b + 1.0
    if min(p, q) >= _STIRLING_FROM:
        # (p - 1/2) ln(2p / (p+q)) + (q - 1/2) ln(2q / (p+q)), whose two terms cancel for x near 0
        x = (p - q) / (p + q)
        head = ([(p + q - 1.0) / 2.0 * math.log1p(-x * x), (p - q) * math.atanh(x)] if abs(x) < 0.5 else
                [(p - 0.5) * math.log(2.0 * p / (p + q)), (q - 0.5) * math.log(2.0 * q / (p + q))])
        return math.fsum(head + [-0.5 * math.log(p + q), _HALF_LOG_2PI, _stirling_tail(p), _stirling_tail(q),
                                 -_stirling_tail(p + q)])
    return (a + b + 1.0) * _LN2 + math.lgamma(a + 1.0) + math.lgamma(b + 1.0) - math.lgamma(a + b + 2.0)
