"""Jacobi polynomial evaluation and Gauss-Jacobi quadrature.

One recurrence kernel, orthonormal_blocks, streams the orthonormal
polynomials q_m in blocks of rescaled rows at one multiply and one subtract
per degree and point.  The Gauss weights here, the quadrature projections
(transforms) and the synthesis (basis.clenshaw_eval) each reduce a block
with one product, and the basis functions (basis.phi_full, basis.phi_half)
take the last row of one sweep.  The quadrature rules double as the slow,
fully general transform path and as the oracle against which the fast
trigonometric paths are tested.
"""

import math
from dataclasses import dataclass

import numpy as np

from .special import JacobiParams, log_jacobi_norm

__all__ = [
    "QuadratureRule",
    "couplings",
    "jacobi_matrix",
    "orthonormal_blocks",
    "gauss_jacobi",
]


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Jacobi nodes/weights for the weight (1-t)^alpha (1+t)^beta."""

    nodes: np.ndarray
    weights: np.ndarray
    params: JacobiParams


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
    b_m the differentiation couplings.  B_0 = (b-a)/(a+b+2) is the cancelled
    form of B_m = (b^2-a^2)/((a+b+2m)(a+b+2m+2)), which is 0/0 at m = 0 when
    a+b = 0.
    """
    a, b = params.alpha, params.beta
    s = a + b
    m = np.arange(count, dtype=float)
    e = 2.0 * couplings(params, count) / (s + 2.0 * m + 2.0)
    B = np.empty(count)
    B[0] = (b - a) / (s + 2.0)
    B[1:] = (b - a) * (b + a) / ((s + 2.0 * m[1:]) * (s + 2.0 * m[1:] + 2.0))
    return B, e


#: Byte budget of one K-row block of orthonormal_blocks; K is clamped to
#: 8..64 rows, so small point sets still get long blocks and large ones stay
#: within a few hundred KiB.
_BLOCK_BYTES = 256 * 1024


def _block_rows(size: int) -> int:
    """Rows K per block of orthonormal_blocks at `size` points."""
    return min(64, max(8, _BLOCK_BYTES // (8 * max(size, 1)) - 1))


def orthonormal_blocks(params: JacobiParams, count: int, points):
    """Yield q_0(t), ..., q_{count-1}(t) at `points` as blocks (s, P): q_m = s_m p_m.

    p_m = sigma_m q_m runs the recurrence of jacobi_matrix rescaled so that
    each degree costs one multiply and one subtract,

        p_{m+1} = g_m (t - B_m) p_m - p_{m-1},   g_m = sigma_{m+1} / (sigma_m e_m),

    with sigma_0 = sigma_1 = 1, sigma_{m+1} = sigma_{m-1} e_m / e_{m-1}: products
    of ratios of consecutive e_m -> 1/2, so they stay bounded.  One broadcast
    per block of K rows writes the factors g_m (t - B_m) into the rows they
    produce.  P is a (K, len(points)) view of one reused buffer, overwritten
    by the next block, and the caller's to overwrite until then; the last
    block may be shorter.  s = 1 / sigma are the block's scales.
    """
    t = np.asarray(points, dtype=float)
    k = _block_rows(t.size)
    B, e = jacobi_matrix(params, count)
    sigma = np.ones(count + 1)
    ratio = e[1:] / e[:-1]
    sigma[2::2] = np.cumprod(ratio[0::2])
    sigma[3::2] = np.cumprod(ratio[1::2])
    g = sigma[1:] / (sigma[:-1] * e)
    s = 1.0 / sigma[:count]
    # rows[0], rows[1] carry p_{lo-2}, p_{lo-1} into the block of degrees
    # lo..lo+size-1, which lives in rows[2:] = buf: the caller may overwrite it
    carry = np.zeros((2, t.size))  # p_{-2} (unused), p_{-1} = 0
    buf = np.empty((k, t.size))
    rows = [*carry, *buf]
    buf[0] = math.exp(-0.5 * log_jacobi_norm(params, 0))
    for lo in range(0, count, k):
        size = min(k, count - lo)
        j = 1 if lo == 0 else 0  # p_0 is set, not computed
        # each computed row p_m starts as g_{m-1} (t - B_{m-1})
        new = buf[j:size]
        np.subtract(t, B[lo + j - 1 : lo + size - 1, None], out=new)
        new *= g[lo + j - 1 : lo + size - 1, None]
        for i in range(j + 2, size + 2):
            rows[i] *= rows[i - 1]
            rows[i] -= rows[i - 2]
        carry[0] = rows[size]
        carry[1] = rows[size + 1]
        yield s[lo : lo + size], buf[:size]


def eigh_tridiagonal(d, e, **kwargs):
    """scipy.linalg.eigh_tridiagonal, imported at first call rather than with the package.

    A module-level name, so that a profiler can time the eigensolve on its own.
    """
    from scipy import linalg

    return linalg.eigh_tridiagonal(d, e, **kwargs)


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
    total = np.zeros(n)
    for s, P in orthonormal_blocks(params, n, nodes):
        total += (s * s) @ np.square(P, out=P)
    weights = 1.0 / total
    return QuadratureRule(nodes=nodes, weights=weights, params=params)
