"""Gamma-family special functions and Jacobi norm constants.

Everything that can overflow for large degree or large weight exponents
(the norms g_m, Gamma at large argument) is carried in log space and
exponentiated as late as possible.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "JacobiParams",
    "log_gamma_real",
    "log_gamma_complex",
    "jacobi_norm",
    "log_jacobi_norm",
    "norm_ratio",
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


def log_gamma_real(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Raises
    ------
    ValueError
        If x <= 0 (outside the supported domain).
    """
    if not x > 0.0:
        raise ValueError(f"log_gamma_real requires x > 0 (got {x})")
    return math.lgamma(x)


# ln Gamma(z) on the complex plane by Hare's algorithm (J. Algorithms 1997),
# the one scipy.special.loggamma uses, in numpy: the Stirling series for
# Re z > 7 or |Im z| > 7, Taylor series about z = 1 and z = 2 where ln Gamma
# vanishes, reflection for Re z < 0.1, and upward recurrence in between.
# Written out here so that the Fourier layer needs no SciPy import.

#: B_2k / (2k (2k - 1)), k = 1..8: the Stirling series in 1/z
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
#: ln Gamma(1 + w) = sum_k c_k w^k: c_1 = -(Euler's gamma), c_k = (-1)^k zeta(k) / k
_TAYLOR = (
    -0.5772156649015329, 0.8224670334241132, -0.40068563438653143, 0.27058080842778454,
    -0.20738555102867398, 0.1695571769974082, -0.1440498967688461, 0.12550966952474304,
    -0.11133426586956469, 0.1000994575127818, -0.09095401714582904, 0.083353840546109,
    -0.0769325164113522, 0.07143294629536133, -0.06666870588242046, 0.06250095514121304,
    -0.058823978658684585, 0.055555767627403614, -0.05263167937961666, 0.05000004769810169,
    -0.047619070330142226, 0.04545455629320467, -0.04347826605304026,
)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
_SMALL = 7.0
_TAYLOR_RADIUS = 0.2


def _horner(coeffs, w):
    # sum_k coeffs[k] w^k
    out = np.full_like(w, coeffs[-1])
    for c in coeffs[-2::-1]:
        out = out * w + c
    return out


def _stirling(z):
    r = 1.0 / z
    return (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI + r * _horner(_STIRLING, r / z)


def _taylor(w):
    # ln Gamma(1 + w), |w| <= 0.2
    return w * _horner(_TAYLOR, w)


def _complex(re, im):
    # re + i im keeping the sign of a zero im, which picks the branch of a log
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _log1p(w):
    # ln(1 + w) without the cancellation of log(1 + w) at small |w|
    u, v = w.real, w.imag
    return _complex(0.5 * np.log1p(u * (2.0 + u) + v * v), np.arctan2(v, 1.0 + u))


def _sin_pi(x):
    # sin(pi x) for real x, reduced exactly so that the integers are exact zeros
    r = np.fmod(np.abs(x), 2.0)
    s = np.where(r < 0.5, np.sin(math.pi * r), np.where(r > 1.5, np.sin(math.pi * (r - 2.0)),
                                                       -np.sin(math.pi * (r - 1.0))))
    return np.copysign(1.0, x) * s


def _cos_pi(x):
    r = np.fmod(np.abs(x), 2.0)
    c = np.where(r < 1.0, -np.sin(math.pi * (r - 0.5)), np.sin(math.pi * (r - 1.5)))
    return np.where(r == 0.5, 0.0, c)


def _recurrence(z):
    # ln Gamma(z) = ln Gamma(z + k) - ln(z (z+1) ... (z+k-1)), z + k past Re 7,
    # counting the sign changes of the product's imaginary part to keep the
    # branch of the logarithm (Im z >= 0)
    prod = z.copy()
    flips = np.zeros(z.shape)
    below = np.zeros(z.shape, dtype=bool)
    z = z + 1.0
    active = z.real <= _SMALL
    while active.any():
        prod = np.where(active, prod * z, prod)
        now = np.signbit(prod.imag)
        flips += active & now & ~below
        below = np.where(active, now, below)
        z = np.where(active, z + 1.0, z)
        active = z.real <= _SMALL
    return _stirling(z) - np.log(prod) - 2j * math.pi * flips


def _near2(z):
    # ln Gamma(z) = ln(z - 1) + ln Gamma(z - 1), both about their zero
    w = z - 2.0
    return _log1p(w) + _taylor(w)


def _reflection(z):
    # ln Gamma(z) = ln pi - ln sin(pi z) - ln Gamma(1 - z), plus the 2 pi i
    # multiple that keeps the principal branch (Im z >= 0)
    sin_pi = _complex(_sin_pi(z.real) * np.cosh(math.pi * z.imag),
                      _cos_pi(z.real) * np.sinh(math.pi * z.imag))
    branch = 2.0 * math.pi * np.floor(0.5 * z.real + 0.25)
    return (_LOG_PI + 1j * branch) - np.log(sin_pi) - _log_gamma(1.0 - z)


def _log_gamma(z):
    # z: 1-d complex, finite, no poles
    upper = ~np.signbit(z.imag)  # folded to Im z >= +0, then conjugated back
    z = np.where(upper, z, z.conjugate())
    far = (z.real > _SMALL) | (z.imag > _SMALL)
    near1 = ~far & (np.abs(z - 1.0) <= _TAYLOR_RADIUS)
    near2 = ~far & ~near1 & (np.abs(z - 2.0) <= _TAYLOR_RADIUS)
    left = ~(far | near1 | near2) & (z.real < 0.1)
    mid = ~(far | near1 | near2 | left)
    out = np.empty_like(z)
    for region, f in ((far, _stirling), (near1, lambda v: _taylor(v - 1.0)), (near2, _near2),
                      (left, _reflection), (mid, _recurrence)):
        if region.any():
            out[region] = f(z[region])
    return np.where(upper, out, out.conjugate())


def log_gamma_complex(z):
    """Principal-branch ln Gamma(z), elementwise on arrays.

    Agrees with scipy.special.loggamma to within 4e-15 (1 + |ln Gamma(z)|),
    branch included, without importing SciPy.  A scalar argument gives a
    Python complex.
    Conjugate symmetry ln Gamma(conj z) = conj ln Gamma(z) holds bit-exactly.

    Raises
    ------
    ValueError
        At the poles (z a non-positive real integer).
    """
    z = np.asarray(z, dtype=complex)
    poles = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))
    if np.any(poles):
        raise ValueError(f"log_gamma_complex pole at z = {z.real[poles][0]}")
    flat = z.ravel()
    out = np.full(flat.shape, complex(math.nan, math.nan))
    finite = np.isfinite(flat)
    out[finite] = _log_gamma(flat[finite])
    out = out.reshape(z.shape)
    return complex(out) if out.ndim == 0 else out


def log_jacobi_norm(params: JacobiParams, m: int) -> float:
    """ln of the squared weighted L2 norm g_m of the degree-m Jacobi polynomial.

    g_m = 2^{1+a+b} Gamma(1+a+m) Gamma(1+b+m)
          / [m! (1+a+b+2m) Gamma(1+a+b+m)].

    The m = 0 case is folded into Gamma(a+b+2) so the formula stays valid
    when 1+a+b <= 0.
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative (got {m})")
    a, b = params.alpha, params.beta
    s = a + b
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


def jacobi_norm(params: JacobiParams, m: int) -> float:
    """Squared weighted L2 norm g_m of the degree-m Jacobi polynomial."""
    return math.exp(log_jacobi_norm(params, m))


def norm_ratio(params: JacobiParams, m: int, delta: int) -> float:
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
