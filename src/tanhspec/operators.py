"""Coefficient-space operator algebra.

Differentiation acts on coefficient vectors by

    (D c)_m = b_{m-1} c_{m-1} - b_m c_{m+1},

the transpose of the matrix whose columns hold phi_m' (the two differ by a
sign because that matrix is skew); this is the convention under which
synthesize(diff_apply(c)) equals the pointwise derivative, and the one
every test below pins.  Multiplication by a(x) = sum a_m T~_m(tanh x) in
the Chebyshev-T basis is the symmetric, banded Toeplitz-plus-Hankel
operator; its entries are the exact Gram integrals int a phi_i phi_j dx,
which fixes the T~_0 = 1/sqrt 2 scaling on row/column 0 and a checkerboard
sign carried over from the (-1)^m in the basis functions.

Every operator is built from that closed form over index arrays: one entry
rule fills the band diagonal by diagonal, and band storage is read and
applied one stored diagonal at a time.  The banded QR hands LAPACK one
dense panel of columns at a time (numpy.linalg.qr) and back-substitutes
panel by panel, so no Python loop runs per column.
"""

import math
from dataclasses import dataclass

import numpy as np

from .basis import DiffOp, Expansion

__all__ = [
    "BandedMatrix",
    "MultOp",
    "SolveResult",
    "diff_apply",
    "diff_squared_apply",
    "dense_diff",
    "mult_op",
    "assemble_first_order",
    "solve_first_order",
]

_SQRT1_2 = 1.0 / math.sqrt(2.0)
_PANEL = 32  # columns per QR panel of banded_qr_lstsq


def diff_apply(d: DiffOp, c) -> np.ndarray:
    """Apply the differentiation operator to a coefficient window.

    Length-n input produces length-n output with the one-slot lookahead
    c_n = 0; pad with trailing zeros when the output must match the
    infinite operator exactly.
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    if n == 0:
        return np.zeros(0)
    if len(d) < n:
        raise ValueError(f"DiffOp holds {len(d)} couplings, need at least {n}")
    b = d.b
    out = np.zeros(n)
    out[1:] += b[: n - 1] * c[: n - 1]
    out[:-1] -= b[: n - 1] * c[1:]
    return out


def diff_squared_apply(d: DiffOp, c) -> np.ndarray:
    """Apply D twice with two-slot zero padding.

    The padded window makes the result equal to the infinite-matrix D^2
    restricted to the first n entries, so the window never sees truncation
    (and the quadratic form c . D^2 c = -|Dc|^2 stays nonpositive).
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    if n == 0:
        return np.zeros(0)
    padded = np.concatenate([c, [0.0, 0.0]])
    return diff_apply(d, diff_apply(d, padded))[:n]


def dense_diff(d: DiffOp, n: int) -> np.ndarray:
    """Dense n-by-n window of the coefficient-space differentiation matrix.

    Sub/super diagonals hold +-b_m built from shared values, so the
    skew-symmetry D + D^T = 0 is bitwise.
    """
    if len(d) < n - 1:
        raise ValueError(f"DiffOp holds {len(d)} couplings, need at least {n - 1}")
    out = np.zeros((n, n))
    idx = np.arange(n - 1)
    out[idx + 1, idx] = d.b[: n - 1]
    out[idx, idx + 1] = -d.b[: n - 1]
    return out


def _entries(a: np.ndarray, i, j):
    """The MultOp entry rule over broadcast index arrays (i, j): a_k/sqrt 2
    on row/column 0, a_0/sqrt 2 + a_{2i}/2 on the diagonal and
    (a_|i-j| + a_{i+j})/2 elsewhere, times the checkerboard sign."""

    def coeff(m):
        return np.where(m < a.size, a[np.minimum(m, a.size - 1)], 0.0)

    k, s = np.abs(i - j), i + j
    a_k, a_s = coeff(k), coeff(s)
    value = np.where(
        np.minimum(i, j) == 0,
        a_k * _SQRT1_2,
        np.where(k == 0, a[0] * _SQRT1_2 + 0.5 * a_s, 0.5 * (a_k + a_s)),
    )
    return np.where(s % 2, -value, value)


class MultOp:
    """Multiplication by a(x) = sum_{m<=M} a_m T~_m(tanh x) in coefficient space.

    Entries (i, j >= 1):
        i != j : (-1)^{i+j} (a_{|i-j|} + a_{i+j}) / 2
        i == j : a_0/sqrt(2) + a_{2i}/2
    row/column 0:
        (0, 0) : a_0/sqrt(2)
        (0, k) : (-1)^k a_k/sqrt(2)
    Symmetric, bandwidth M.  On the block i, j >= 1 this is exactly
    Toeplitz + Hankel with t_0 = a_0/sqrt 2, t_k = (-1)^k a_k/2 and
    h_s = (-1)^s a_s/2.
    """

    def __init__(self, a_coeffs, size: int):
        a = np.asarray(a_coeffs, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("coefficient sequence must be nonempty and 1-d")
        if not np.all(np.isfinite(a)):
            raise ValueError("coefficients must be finite")
        if size < 1:
            raise ValueError(f"size must be positive (got {size})")
        self.a_coeffs = a.copy()
        self.a_coeffs.flags.writeable = False
        self.size = size
        self.bandwidth = a.size - 1

    def entry(self, i: int, j: int) -> float:
        if i < 0 or j < 0:
            raise ValueError("indices must be nonnegative")
        return float(_entries(self.a_coeffs, i, j))

    def _band(self, rows: int, cols: int, bw: int) -> "BandedMatrix":
        """The rows x cols window in band storage with bandwidth bw on both sides."""
        band = BandedMatrix(rows, cols, bw, bw, np.zeros((2 * bw + 1, cols)))
        for k, lo, hi in band._diagonals():
            j = np.arange(lo, hi)
            band.data[k + bw, lo:hi] = _entries(self.a_coeffs, j + k, j)
        return band

    def apply(self, c) -> np.ndarray:
        """Exact banded action on a coefficient window (no truncation error
        for windows at least as long as the input support plus M)."""
        c = np.asarray(c, dtype=float)
        return self._band(c.size, c.size, self.bandwidth).matvec(c)

    def dense(self, rows: int | None = None, cols: int | None = None) -> np.ndarray:
        rows = self.size if rows is None else rows
        cols = self.size if cols is None else cols
        return self._band(rows, cols, self.bandwidth).to_dense()

    def toeplitz_hankel_parts(self):
        """Sequences (t, h) with entry(i, j) = t_|i-j| + h_{i+j} on i, j >= 1."""
        a, top = self.a_coeffs, min(2 * self.size, self.bandwidth + 1)
        half = np.where(np.arange(a.size) % 2, -0.5, 0.5) * a
        t = np.concatenate([[a[0] * _SQRT1_2], half[1:]])
        h = np.zeros(2 * self.size)
        h[2:top] = half[2:top]
        return t, h


def mult_op(a_coeffs, bandwidth: int, size: int) -> MultOp:
    """Assemble the multiplication operator for a_0..a_M (M = bandwidth).

    Raises
    ------
    ValueError
        If bandwidth >= size, or nonzero coefficients lie beyond bandwidth.
    """
    a = np.asarray(a_coeffs, dtype=float)
    if bandwidth < 0:
        raise ValueError(f"bandwidth must be nonnegative (got {bandwidth})")
    if bandwidth >= size:
        raise ValueError(f"bandwidth must be smaller than size (got M={bandwidth}, N={size})")
    if a.size > bandwidth + 1:
        if np.any(a[bandwidth + 1 :] != 0.0):
            raise ValueError("nonzero coefficients beyond the declared bandwidth")
        a = a[: bandwidth + 1]
    elif a.size < bandwidth + 1:
        a = np.concatenate([a, np.zeros(bandwidth + 1 - a.size)])
    return MultOp(a, size)


@dataclass(eq=False)
class BandedMatrix:
    """Rectangular matrix in band storage: data[i - j + upper_bw, j] = A[i, j]."""

    rows: int
    cols: int
    lower_bw: int
    upper_bw: int
    data: np.ndarray

    @classmethod
    def zeros(cls, rows: int, cols: int, lower_bw: int, upper_bw: int) -> "BandedMatrix":
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        data = np.zeros((lower_bw + upper_bw + 1, cols))
        return cls(rows=rows, cols=cols, lower_bw=lower_bw, upper_bw=upper_bw, data=data)

    def _inband(self, i: int, j: int) -> bool:
        return 0 <= i < self.rows and 0 <= j < self.cols and -self.upper_bw <= i - j <= self.lower_bw

    def get(self, i: int, j: int) -> float:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) out of range")
        if not self._inband(i, j):
            return 0.0
        return float(self.data[i - j + self.upper_bw, j])

    def set(self, i: int, j: int, value: float) -> None:
        if not self._inband(i, j):
            raise IndexError(f"({i}, {j}) lies outside the stored band")
        self.data[i - j + self.upper_bw, j] = value

    def _diagonals(self):
        """Each stored diagonal k = i - j that meets the matrix, with the
        column range lo <= j < hi where it lies inside."""
        for k in range(max(-self.upper_bw, 1 - self.cols), min(self.lower_bw, self.rows - 1) + 1):
            yield k, max(0, -k), min(self.cols, self.rows - k)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        for k, lo, hi in self._diagonals():
            j = np.arange(lo, hi)
            out[j + k, j] = self.data[k + self.upper_bw, lo:hi]
        return out

    def matvec(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.size != self.cols:
            raise ValueError(f"vector length {v.size} does not match {self.cols} columns")
        out = np.zeros(self.rows)
        for k, lo, hi in self._diagonals():
            out[lo + k : hi + k] += self.data[k + self.upper_bw, lo:hi] * v[lo:hi]
        return out


def assemble_first_order(d: DiffOp, mult: MultOp, n: int) -> BandedMatrix:
    """Rectangular banded truncation of L = D + A for u' + a(x) u.

    The truncation keeps n columns and n + bandwidth rows, so every
    equation touching the retained coefficients is present; bandwidth is
    max(1, M) on both sides.
    """
    if n < 1:
        raise ValueError(f"truncation size must be positive (got {n})")
    bw = max(1, mult.bandwidth)
    rows = n + bw
    if len(d) < rows:
        raise ValueError(f"DiffOp holds {len(d)} couplings, need at least {rows}")
    out = mult._band(rows, n, bw)
    out.data[bw + 1, :] += d.b[:n]  # (j + 1, j): +b_j
    out.data[bw - 1, 1:] -= d.b[: n - 1]  # (j - 1, j): -b_{j-1}
    return out


def banded_qr_lstsq(mat: BandedMatrix, rhs, rank_tol: float = 1e-13):
    """Least-squares solve of a banded rectangular system by blocked QR.

    Columns are factored _PANEL at a time: the panel's dense block (its
    rows down to lower_bw below it, its columns out to the fill-in width
    lower_bw + upper_bw) is factored by numpy.linalg.qr, and Q^T is
    applied to the rest of the block and to b.  The rows below the panel
    carry into the next block; the panel's rows are finished rows of R,
    kept for a back-substitution that solves one panel's triangle at a
    time.  Returns the solution and the projected residual norm
    |Q^T b|_tail.

    Raises
    ------
    numpy.linalg.LinAlgError
        If a diagonal of R falls below rank_tol relative to the largest.
    """
    m, n = mat.rows, mat.cols
    if m < n:
        raise ValueError("system must have at least as many rows as columns")
    b = np.asarray(rhs, dtype=float).copy()
    if b.size != m:
        raise ValueError(f"rhs length {b.size} does not match {m} rows")
    lb, ub = mat.lower_bw, mat.upper_bw
    ubw = lb + ub  # upper bandwidth of R after fill-in
    data = np.pad(mat.data, ((0, 0), (0, ubw)))
    i, k = np.ogrid[: _PANEL + lb, : _PANEL + ubw]
    d = i - k + ub  # row in mat.data of the block entry A[j + i, j + k]
    inband, d = (d >= 0) & (d <= ubw), np.clip(d, 0, ubw)
    panels, carry = [], np.zeros((0, ubw))
    for j in range(0, n, _PANEL):
        w = min(_PANEL, n - j)
        h, cols = min(w + lb, m - j), w + ubw
        block = np.where(inband[:h, :cols], data[d[:h, :cols], j + k[:, :cols]], 0.0)
        block[: len(carry), :ubw] = carry
        q, r = np.linalg.qr(block[:, :w], mode="complete")
        rest = q.T @ np.column_stack([block[:, w:], b[j : j + h]])
        b[j : j + h] = rest[:, -1]
        panels.append((j, r[:w], rest[:w, :-1]))
        carry = rest[w:, :-1]

    rdiag = np.abs(np.concatenate([np.diag(r) for _, r, _ in panels]))
    biggest = rdiag.max()
    if biggest == 0.0 or rdiag.min() < rank_tol * biggest:
        worst = int(rdiag.argmin())
        raise np.linalg.LinAlgError(
            f"rank-deficient system: |R[{worst},{worst}]| = {rdiag.min():.3e} "
            f"below {rank_tol:.1e} of max {biggest:.3e}"
        )
    x = np.zeros(n + ubw)
    for j, r, c in reversed(panels):
        e = j + len(r)
        x[j:e] = np.linalg.solve(r, b[j:e] - c @ x[e : e + ubw])
    tail = b[n:]
    return x[:n], math.sqrt(float(tail @ tail))


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Least-squares solution of the first-order operator with its residual."""

    expansion: Expansion
    residual: float


def solve_first_order(d: DiffOp, mult: MultOp, rhs: Expansion, n: int) -> SolveResult:
    """Solve u' + a(x) u = f in coefficient space on an n-column window.

    The rectangular banded truncation of L = D + A is factored by
    Householder QR; the reported residual is |L u - f| on the retained
    window.  A multiplication operator that is identically zero is
    rejected (u' = f alone has no unique solution in L2), and so is a
    right-hand side that is not a full-mode expansion in the basis of d.
    """
    if rhs.spec.mode != "full":
        raise ValueError("the solver works on full-mode expansions")
    if d.params != rhs.spec.params:
        raise ValueError(f"DiffOp is for {d.params}, right-hand side is in {rhs.spec.params}")
    if not np.any(mult.a_coeffs != 0.0):
        raise ValueError("singular operator: a(x) = 0 leaves u' = f without a unique solution")
    mat = assemble_first_order(d, mult, n)
    b = np.zeros(mat.rows)
    take = min(len(rhs), mat.rows)
    b[:take] = rhs.coeffs[:take]
    x, _ = banded_qr_lstsq(mat, b)
    residual = float(np.linalg.norm(mat.matvec(x) - b))
    return SolveResult(expansion=Expansion(spec=rhs.spec, coeffs=x), residual=residual)
