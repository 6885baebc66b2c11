"""Orthonormal tanh-Jacobi basis functions on the real line.

The full-range functions are

    phi_m(x) = (-1)^m g_m^{-1/2} (1-tanh x)^{(a+1)/2} (1+tanh x)^{(b+1)/2}
               P_m^{(a,b)}(tanh x),

orthonormal and complete in L2(R) for a, b > -1.  For a = b the same
functions have an even/odd ("half-range") form in u = 1 - 2 sech^2 x
(DLMF 18.7.13-14): phi_2k = 2^{(2a+1)/4} sech^{1+a} x q_k^{(a,-1/2)}(u), and
phi_2k+1 = -2^{(2a+3)/4} tanh x sech^{1+a} x q_k^{(a,1/2)}(u).  A half-mode
spec names these functions; every value here is computed in the full-range
form of the (a, a) pair.

Differentiation acts tridiagonally: phi_m' = -b_{m-1} phi_{m-1} + b_m phi_{m+1}
with a positive coupling sequence b_m shared by every module downstream.

Every pointwise value is one jacobi.forward_sum over the pair's cached
Jacobi table in t = tanh x, shaped like x, of a coefficient vector:
clenshaw_eval sums the expansion's coefficients, phi_full the unit vector
e_m, derivative_pointwise b_m e_{m+1} - b_{m-1} e_{m-1}.
"""

import math
from dataclasses import dataclass

import numpy as np

from .jacobi import forward_sum, recurrence
from .special import JacobiParams, _count, log_jacobi_norm

__all__ = [
    "BasisSpec",
    "Expansion",
    "DiffOp",
    "diff_coeffs",
    "phi_full",
    "derivative_pointwise",
    "clenshaw_eval",
]

_LN2 = math.log(2.0)


def _log_weight_full(params: JacobiParams, x: np.ndarray) -> np.ndarray:
    # the one boundary-weight formula: synthesis and the quadrature route (transforms._rule_nodes) take it at x.
    # ln (1 -+ tanh x) = ln 2 - ln(1 + e^{+-2x}), exact where tanh saturates; the weight is exactly 0.0 from
    # |x| = 1e300 for every a, b > -1, so the clamp is exact and keeps 2x finite at the top of the float range
    x = np.clip(x, -1e300, 1e300)
    return 0.5 * (params.alpha + 1.0) * (_LN2 - np.logaddexp(0.0, 2.0 * x)) + 0.5 * (params.beta + 1.0) * (
        _LN2 - np.logaddexp(0.0, -2.0 * x)
    )


@dataclass(frozen=True)
class BasisSpec:
    """A basis family: Jacobi parameters plus full- or half-range mode."""

    params: JacobiParams
    mode: str = "full"

    def __post_init__(self):
        if self.mode not in ("full", "half"):
            raise ValueError(f"mode must be 'full' or 'half' (got {self.mode!r})")
        if self.mode == "half" and self.params.alpha != self.params.beta:
            raise ValueError("half mode requires alpha = beta")


@dataclass(frozen=True, eq=False)
class Expansion:
    """Coefficients c_0..c_{N-1} against a tanh-Jacobi basis.

    The coefficient array is copied and frozen at construction; expansions
    are immutable and safe to share.
    """

    spec: BasisSpec
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float, copy=True)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coefficients must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    def __len__(self) -> int:
        return self.coeffs.size


@dataclass(frozen=True, eq=False)
class DiffOp:
    """The coupling sequence b_0, b_1, ... of the skew-symmetric tridiagonal differentiation
    matrix for one parameter pair; diff_coeffs gives a read-only view of the cached couplings."""

    b: np.ndarray
    params: JacobiParams

    def __len__(self) -> int:
        return self.b.size


def diff_coeffs(params: JacobiParams, count: int) -> DiffOp:
    """First `count` differentiation couplings: b is a read-only view of the b of the pair's cached 'jacobi' table."""
    return DiffOp(b=recurrence(params, count).b, params=params)


def _shaped(values: np.ndarray, x):
    """The values at the flattened x, shaped like x: a Python number for a scalar x."""
    values = values.reshape(np.shape(x))
    return values.item() if values.ndim == 0 else values


def _full_sum(params: JacobiParams, coeffs: np.ndarray, x):
    """sum_m coeffs[m] phi_m(x) over the full-range functions of params, shaped like x: one jacobi.forward_sum
    in t = tanh x of (-1)^m coeffs[m] (coeffs is not modified) on the flattened points, whose log scale starts
    at the boundary weight: each block of rows p_m adds one matrix-vector product."""
    pts = np.asarray(x, dtype=float).ravel()
    if np.isnan(pts).any():
        raise ValueError("x must not be NaN")
    v = np.array(coeffs, dtype=float)
    v[1::2] *= -1.0
    log_start = _log_weight_full(params, pts) - 0.5 * log_jacobi_norm(params)
    return _shaped(forward_sum(recurrence(params, v.size), v, np.tanh(pts), log_start), x)


def phi_full(spec: BasisSpec, m: int, x):
    """Full-range basis function phi_m at x (scalar or array).

    (-1)^m q_m(tanh x) times the boundary weight: the sum of the unit
    coefficient vector e_m, whose weight is assembled in log space so that
    no intermediate product underflows before the final exponential.  A
    half-mode spec names the same functions.
    """
    return _full_sum(spec.params, np.eye(1, _count(m, "degree", least=0) + 1, m)[0], x)


def derivative_pointwise(spec: BasisSpec, m: int, x):
    """phi_m'(x) through the tridiagonal coupling:
    -b_{m-1} phi_{m-1}(x) + b_m phi_{m+1}(x), with b_{-1} = 0, as one sum over degrees 0..m+1."""
    b = diff_coeffs(spec.params, _count(m, "degree", least=0) + 1).b
    v = np.zeros(m + 2)
    v[m + 1] = b[m]
    if m:
        v[m - 1] = -b[m - 1]
    return _full_sum(spec.params, v, x)


def clenshaw_eval(e: Expansion, x):
    """Evaluate sum_m c_m phi_m(x) as one jacobi.forward_sum of the coefficients (-1)^m c_m.

    Works in the mapped variable t = tanh x, with the log scale started at
    the boundary weight.  Half-mode expansions use the identical full-range
    functions of the (alpha, alpha) pair.
    """
    return _full_sum(e.spec.params, e.coeffs, x)
