"""Orthonormal tanh-Jacobi basis functions on the real line.

The full-range functions are

    phi_m(x) = (-1)^m g_m^{-1/2} (1-tanh x)^{(a+1)/2} (1+tanh x)^{(b+1)/2}
               P_m^{(a,b)}(tanh x),

orthonormal and complete in L2(R) for a, b > -1.  For a = b the same
functions have an even/odd ("half-range") form built from the parameter
pairs (a, -1/2) and (a, 1/2) in the variable 1 - 2 sech^2 x; both forms are
provided because their coefficient transforms differ operationally.

Differentiation acts tridiagonally: phi_m' = -b_{m-1} phi_{m-1} + b_m phi_{m+1}
with a positive coupling sequence b_m shared by every module downstream.
"""

import math
from dataclasses import dataclass

import numpy as np

from .jacobi import couplings, jacobi_eval_batch, jacobi_matrix
from .special import JacobiParams, log_jacobi_norm

__all__ = [
    "BasisSpec",
    "Expansion",
    "DiffOp",
    "diff_coeffs",
    "phi_full",
    "phi_half",
    "derivative_pointwise",
    "clenshaw_eval",
]

_LN2 = math.log(2.0)


def _softplus(u: np.ndarray) -> np.ndarray:
    # log(1 + e^u) without overflow
    return np.maximum(u, 0.0) + np.log1p(np.exp(-np.abs(u)))


def _log_one_minus_tanh(x: np.ndarray) -> np.ndarray:
    # 1 - tanh x = 2 / (1 + e^{2x}); tanh saturates in floats near |x| ~ 19,
    # this form stays exact to full precision for all x.
    return _LN2 - _softplus(2.0 * x)


def _log_one_plus_tanh(x: np.ndarray) -> np.ndarray:
    return _LN2 - _softplus(-2.0 * x)


def _log_sech(x: np.ndarray) -> np.ndarray:
    ax = np.abs(x)
    return _LN2 - ax - np.log1p(np.exp(-2.0 * ax))


def _log_weight_full(params: JacobiParams, x: np.ndarray) -> np.ndarray:
    return 0.5 * (params.alpha + 1.0) * _log_one_minus_tanh(x) + 0.5 * (
        params.beta + 1.0
    ) * _log_one_plus_tanh(x)


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
    """The coupling sequence b_0, b_1, ... of the skew-symmetric tridiagonal
    differentiation matrix for one parameter pair."""

    b: np.ndarray
    params: JacobiParams

    def __len__(self) -> int:
        return self.b.size


def diff_coeffs(params: JacobiParams, count: int) -> DiffOp:
    """First `count` differentiation couplings (closed form: jacobi.couplings)."""
    return DiffOp(b=couplings(params, count), params=params)


def _as_points(x):
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    scalar = np.ndim(x) == 0
    return arr, scalar


def _ret(vals: np.ndarray, scalar: bool):
    return float(vals[0]) if scalar else vals


def phi_full(spec: BasisSpec, m: int, x):
    """Full-range basis function phi_m at x (scalar or array).

    The boundary weight is assembled in log space so that no intermediate
    product underflows before the final exponential.
    """
    if spec.mode != "full":
        raise ValueError("phi_full requires a full-mode basis spec")
    if m < 0:
        raise ValueError(f"degree must be nonnegative (got {m})")
    pts, scalar = _as_points(x)
    t = np.tanh(pts)
    poly = jacobi_eval_batch(spec.params, m, t)[m]
    logw = _log_weight_full(spec.params, pts) - 0.5 * log_jacobi_norm(spec.params, m)
    vals = poly * np.exp(logw)
    if m % 2:
        vals = -vals
    return _ret(vals, scalar)


def phi_half(spec: BasisSpec, m: int, x):
    """Half-range (even/odd split) form of the same basis, alpha = beta.

    Even index 2k:  2^{(2a+1)/4} g_k^{(a,-1/2)-1/2} sech^{1+a} x
                    P_k^{(a,-1/2)}(1 - 2 sech^2 x);
    odd index 2k+1 carries a leading minus sign, an extra tanh x factor and
    the (a, 1/2) parameter pair.
    """
    if spec.mode != "half":
        raise ValueError("phi_half requires a half-mode basis spec")
    if m < 0:
        raise ValueError(f"degree must be nonnegative (got {m})")
    a = spec.params.alpha
    pts, scalar = _as_points(x)
    ls = _log_sech(pts)
    u = 1.0 - 2.0 * np.exp(2.0 * ls)
    if m % 2 == 0:
        k = m // 2
        par = JacobiParams(a, -0.5)
        poly = jacobi_eval_batch(par, k, u)[k]
        log_amp = (0.25 * (2.0 * a + 1.0)) * _LN2 + (1.0 + a) * ls - 0.5 * log_jacobi_norm(par, k)
        vals = poly * np.exp(log_amp)
    else:
        k = (m - 1) // 2
        par = JacobiParams(a, 0.5)
        poly = jacobi_eval_batch(par, k, u)[k]
        log_amp = (0.25 * (2.0 * a + 3.0)) * _LN2 + (1.0 + a) * ls - 0.5 * log_jacobi_norm(par, k)
        vals = -np.tanh(pts) * poly * np.exp(log_amp)
    return _ret(vals, scalar)


def _phi(spec: BasisSpec, m: int, x):
    return phi_full(spec, m, x) if spec.mode == "full" else phi_half(spec, m, x)


def derivative_pointwise(spec: BasisSpec, m: int, x):
    """phi_m'(x) through the tridiagonal coupling:
    -b_{m-1} phi_{m-1}(x) + b_m phi_{m+1}(x), with b_{-1} = 0."""
    if m < 0:
        raise ValueError(f"degree must be nonnegative (got {m})")
    b = diff_coeffs(spec.params, m + 1).b
    pts, scalar = _as_points(x)
    vals = b[m] * np.atleast_1d(_phi(spec, m + 1, pts))
    if m >= 1:
        vals = vals - b[m - 1] * np.atleast_1d(_phi(spec, m - 1, pts))
    return _ret(vals, scalar)


def clenshaw_eval(e: Expansion, x):
    """Evaluate sum_m c_m phi_m(x) by backward Clenshaw recurrence.

    Works in the mapped variable t = tanh x against the signed orthonormal
    polynomials, so the boundary weight is evaluated exactly once per point.
    Half-mode expansions use the identical full-range functions of the
    (alpha, alpha) pair.
    """
    params = e.spec.params
    n = len(e)
    pts, scalar = _as_points(x)
    t = np.tanh(pts)
    # signed orthonormal recurrence q~_{m+1} = ((B_m - t) q~_m - e_{m-1} q~_{m-1}) / e_m
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
    logw = _log_weight_full(params, pts) - 0.5 * log_jacobi_norm(params, 0)
    vals = u1 * np.exp(logw)
    return _ret(vals, scalar)
