"""Jacobi and Chebyshev polynomial evaluation and Gauss-Jacobi quadrature.

The quadrature rules double as the slow, fully general transform path and
as the oracle against which the fast trigonometric paths are tested.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .special import JacobiParams, log_jacobi_norm

__all__ = [
    "Recurrence",
    "QuadratureRule",
    "recurrence_coefficients",
    "jacobi_eval",
    "jacobi_eval_batch",
    "orthonormal_eval_batch",
    "couplings",
    "jacobi_matrix",
    "orthonormal_rows",
    "chebyshev_eval",
    "gauss_jacobi",
]


@dataclass(frozen=True, eq=False)
class Recurrence:
    """Three-term coefficients: t P_m = A[m] P_{m-1} + B[m] P_m + C[m] P_{m+1}.

    A[0] is set to zero (it multiplies P_{-1} = 0).
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    params: JacobiParams


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Jacobi nodes/weights for the weight (1-t)^alpha (1+t)^beta."""

    nodes: np.ndarray
    weights: np.ndarray
    params: JacobiParams

    @property
    def size(self) -> int:
        return self.nodes.size


def recurrence_coefficients(params: JacobiParams, count: int) -> Recurrence:
    """First `count` three-term coefficients for the Jacobi family.

    The m = 0 entries use the cancelled forms B_0 = (beta-alpha)/(a+b+2),
    C_0 = 2/(a+b+2): the generic formulas are 0/0 there when a+b = 0
    (for B) or a+b = -1 (for C), both removable.
    """
    if count < 1:
        raise ValueError(f"count must be positive (got {count})")
    a, b = params.alpha, params.beta
    s = a + b
    m = np.arange(count, dtype=float)
    A = np.zeros(count)
    B = np.empty(count)
    C = np.empty(count)
    B[0] = (b - a) / (s + 2.0)
    C[0] = 2.0 / (s + 2.0)
    if count > 1:
        mm = m[1:]
        A[1:] = 2.0 * (a + mm) * (b + mm) / ((s + 2.0 * mm) * (s + 2.0 * mm + 1.0))
        B[1:] = (b - a) * (b + a) / ((s + 2.0 * mm) * (s + 2.0 * mm + 2.0))
        C[1:] = 2.0 * (mm + 1.0) * (s + mm + 1.0) / ((s + 2.0 * mm + 1.0) * (s + 2.0 * mm + 2.0))
    return Recurrence(A=A, B=B, C=C, params=params)


def couplings(params: JacobiParams, count: int) -> np.ndarray:
    """First `count` differentiation couplings b_0, b_1, ...

    b_m = sqrt[(m+1)(a+m+1)(b+m+1)(a+b+m+1) / ((a+b+2m+1)(a+b+2m+3))].

    The factor (a+b+m+1)/(a+b+2m+1) equals 1 identically at m = 0, which
    resolves the removable 0/0 at a+b = -1 and yields
    b_0 = sqrt((a+1)(b+1)/(a+b+3)) there (e.g. b_0 = sqrt(2)/4 for the
    Chebyshev-T pair, where the naive closed form breaks down).
    """
    if count < 1:
        raise ValueError(f"count must be positive (got {count})")
    a, b = params.alpha, params.beta
    s = a + b
    m = np.arange(count, dtype=float)
    factor = np.empty(count)
    factor[0] = 1.0
    factor[1:] = (s + m[1:] + 1.0) / (s + 2.0 * m[1:] + 1.0)
    return np.sqrt((m + 1.0) * (a + m + 1.0) * (b + m + 1.0) / (s + 2.0 * m + 3.0) * factor)


def jacobi_matrix(params: JacobiParams, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal B_m and off-diagonal e_m, m < count, of the orthonormal Jacobi matrix.

    The orthonormal polynomials satisfy t q_m = e_{m-1} q_{m-1} + B_m q_m
    + e_m q_{m+1} with e_m = C_m sqrt(g_{m+1}/g_m) = 2 b_m / (a+b+2m+2),
    b_m the differentiation couplings.
    """
    m = np.arange(count, dtype=float)
    e = 2.0 * couplings(params, count) / (params.alpha + params.beta + 2.0 * m + 2.0)
    return recurrence_coefficients(params, count).B, e


def orthonormal_rows(params: JacobiParams, count: int, points):
    """Yield q_0(t), ..., q_{count-1}(t) at `points`, one row at a time.

    Same values as the rows of orthonormal_eval_batch, in O(len(points))
    memory: the symmetric recurrence of jacobi_matrix keeps two rows.
    """
    t = np.asarray(points, dtype=float)
    B, e = jacobi_matrix(params, count)
    prev, q = np.zeros_like(t), np.full_like(t, math.exp(-0.5 * log_jacobi_norm(params, 0)))
    yield q
    for m in range(count - 1):
        prev, q = q, ((t - B[m]) * q - (e[m - 1] if m else 0.0) * prev) / e[m]
        yield q


def jacobi_eval_batch(params: JacobiParams, m_max: int, points) -> np.ndarray:
    """P_m^(alpha,beta) at `points` for all m = 0..m_max, by forward recurrence.

    Returns an array of shape (m_max+1, len(points)); column j holds the
    values at points[j].
    """
    if m_max < 0:
        raise ValueError(f"m_max must be nonnegative (got {m_max})")
    t = np.atleast_1d(np.asarray(points, dtype=float))
    out = np.empty((m_max + 1, t.size))
    out[0] = 1.0
    if m_max >= 1:
        rec = recurrence_coefficients(params, m_max)
        out[1] = (t - rec.B[0]) / rec.C[0]
        for k in range(1, m_max):
            out[k + 1] = ((t - rec.B[k]) * out[k] - rec.A[k] * out[k - 1]) / rec.C[k]
    return out


def jacobi_eval(params: JacobiParams, m: int, t: float) -> float:
    """P_m^(alpha,beta)(t) by forward recurrence (stable on [-1, 1])."""
    return float(jacobi_eval_batch(params, m, [t])[m, 0])


def orthonormal_eval_batch(params: JacobiParams, m_max: int, points) -> np.ndarray:
    """Rows of jacobi_eval_batch scaled to unit weighted L2 norm."""
    vals = jacobi_eval_batch(params, m_max, points)
    scale = np.exp([-0.5 * log_jacobi_norm(params, m) for m in range(m_max + 1)])
    return vals * scale[:, None]


def chebyshev_eval(kind: str, m: int, theta: float) -> float:
    """Chebyshev polynomial of the given kind at t = cos(theta), theta in [0, pi].

    Trigonometric closed forms are used throughout:
      T: cos(m theta)              U: sin((m+1) theta)/sin(theta)
      V: sin((m+1/2) theta)/sin(theta/2)
      W: cos((m+1/2) theta)/cos(theta/2)
    with the analytic limit substituted at the removable endpoints.
    """
    if m < 0:
        raise ValueError(f"degree must be nonnegative (got {m})")
    k = kind.upper()
    if k == "T":
        return math.cos(m * theta)
    if k == "U":
        if theta == 0.0:
            return float(m + 1)
        if theta == math.pi:
            return float((-1) ** m * (m + 1))
        return math.sin((m + 1) * theta) / math.sin(theta)
    if k == "V":
        if theta == 0.0:
            return float(2 * m + 1)
        return math.sin((m + 0.5) * theta) / math.sin(0.5 * theta)
    if k == "W":
        if theta == math.pi:
            return float((-1) ** m * (2 * m + 1))
        return math.cos((m + 0.5) * theta) / math.cos(0.5 * theta)
    raise ValueError(f"kind must be one of T, U, V, W (got {kind!r})")


def gauss_jacobi(params: JacobiParams, n: int) -> QuadratureRule:
    """n-point Gauss-Jacobi rule by Golub-Welsch.

    Nodes are the eigenvalues of the symmetrised recurrence (Jacobi) matrix;
    weights come from the first components of the normalised eigenvectors
    scaled by the total weight mass g_0.  The tridiagonal eigenproblem is
    solved with LAPACK's implicit-shift QL (dstev).

    Raises
    ------
    RuntimeError
        If the eigensolver fails to converge.
    """
    if n < 1:
        raise ValueError(f"rule size must be positive (got {n})")
    B, e = jacobi_matrix(params, n)
    try:
        nodes = eigh_tridiagonal(B, e[:-1], eigvals_only=True, lapack_driver="stev")
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Gauss-Jacobi eigensolver failed to converge: {exc}") from exc
    # The eigenvector of node t_k is proportional to (q_0(t_k),..,q_{n-1}(t_k)),
    # where q_m is the orthonormal recurrence; evaluating it directly keeps the
    # first-component weight formula g_0 v_{0k}^2 = 1/sum_m q_m(t_k)^2 accurate
    # to machine precision, where accumulated QL rotations lose several digits.
    weights = 1.0 / sum(q * q for q in orthonormal_rows(params, n, nodes))
    return QuadratureRule(nodes=nodes, weights=weights, params=params)
