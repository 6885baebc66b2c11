"""Jacobi parameters, the size rule, the Jacobi mass g_0 and Stirling's series.

Everything that can overflow for large weight exponents is carried in log
space and exponentiated as late as possible.  ln g_0 comes from Stirling's
series on lifted arguments, whose large terms cancel in algebra; the
Fourier weight's complex log-Gamma values are written out in fourier.

Every count the library takes (coefficients, points, degrees, rows, band
entries) passes _count at its entry, before anything is allocated: one that
is not an integer raises TypeError, one below its least value ValueError,
one above _SIZE_LIMIT (2^24) MemoryError, which the CLI reports as a
numerical failure (exit 3).  The limit bounds what a count's first
allocations take, near or below 2.2 GB (121 B per node where a Gauss-Jacobi
rule starts), instead of leaving the process to be killed; it does not
bound a whole route.  A quadrature expansion just below the limit is
accepted, yet peaks at 181 B per node (about 3.0 GB) and takes O(n^2) time:
9-14 s at n = 2^16 on a 2-core Xeon, so days at 2^24.
"""

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

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


#: The largest count an entry takes (_count); deeper calls may read a few rows past it
_SIZE_LIMIT = 2**24


def _count(value: int, name: str, least: int = 1, most: int = _SIZE_LIMIT) -> int:
    """value as an int, a count that arrays are sized by: TypeError if it is not an integer, ValueError below
    least, MemoryError above most."""
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer (got {value!r})") from None
    if value < least:
        bound = {0: "nonnegative", 1: "positive"}.get(least, f"at least {least}")
        raise ValueError(f"{name} must be {bound} (got {value})")
    if value > most:
        raise MemoryError(f"{name} {value} is past the size limit {most}")
    return value


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


@lru_cache(maxsize=64)
def log_jacobi_norm(params: JacobiParams) -> float:
    """ln g_0, the weight's mass: ln of 2^{1+a+b} Gamma(1+a) Gamma(1+b) / Gamma(2+a+b), the squared norm
    of the degree-0 Jacobi polynomial.

    Lifting p = a+1 and q = b+1 by k, l steps to P, Q >= 8 (DLMF 5.5.1),
    Stirling's series for each ln Gamma (mu its remainder) cancels the large
    terms in algebra, as betaln does (DiDonato & Morris, ACM TOMS 18, 1992).
    Raises OverflowError where ln g_0 is past the float range.
    """
    p, q = params.alpha + 1.0, params.beta + 1.0
    k, l = max(0, math.ceil(_STIRLING_FROM - p)), max(0, math.ceil(_STIRLING_FROM - q))
    P, Q = p + k, q + l
    # (P - 1/2) ln(2P / (P+Q)) + (Q - 1/2) ln(2Q / (P+Q)), whose two terms cancel for x near 0
    x = (P - Q) / (P + Q)
    head = ([(P + Q - 1.0) / 2.0 * math.log1p(-x * x), (P - Q) * math.atanh(x)] if abs(x) < 0.5 else
            [(P - 0.5) * math.log(2.0 * P / (P + Q)), (Q - 0.5) * math.log(2.0 * Q / (P + Q))])
    # the lift, -sum_{j<k} ln(p+j) - sum_{j<l} ln(q+j) + sum_{j<k+l} ln(p+q+j), less the k+l twos the head's
    # 2^{P+Q-1} has beyond 2^{p+q-1}
    out = math.fsum(head + [-0.5 * math.log(P + Q), _HALF_LOG_2PI, _stirling_tail(P), _stirling_tail(Q),
                            -_stirling_tail(P + Q), *(-math.log(p + j) for j in range(k)),
                            *(-math.log(q + j) for j in range(l)), *(math.log(0.5 * (p + q + j)) for j in range(k + l))])
    if not math.isfinite(out):
        raise OverflowError(f"ln g_0 is past the float range at {params}")
    return out
