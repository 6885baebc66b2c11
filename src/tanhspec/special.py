"""Gamma-family special functions and Jacobi norm constants.

Everything that can overflow for large degree or large weight exponents
(the norms g_m, Gamma at large argument) is carried in log space and
exponentiated as late as possible.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma

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


def log_gamma_complex(z):
    """Principal-branch ln Gamma(z), elementwise on arrays (scipy.special.loggamma).

    A scalar argument gives a Python complex.  Conjugate symmetry
    ln Gamma(conj z) = conj ln Gamma(z) holds bit-exactly.

    Raises
    ------
    ValueError
        At the poles (z a non-positive real integer), where scipy returns NaN.
    """
    z = np.asarray(z, dtype=complex)
    poles = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))
    if np.any(poles):
        raise ValueError(f"log_gamma_complex pole at z = {z.real[poles][0]}")
    out = loggamma(z)
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
