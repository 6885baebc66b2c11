"""Coefficient-space operator algebra.

Differentiation acts on coefficient vectors by

    (D c)_m = b_{m-1} c_{m-1} - b_m c_{m+1},

the transpose of the matrix whose columns hold phi_m' (the two differ by a
sign because that matrix is skew); this is the convention under which
synthesize(diff_apply(c)) equals the pointwise derivative, and the one
every test below pins.  Multiplication by a(x) = sum a_m T~_m(tanh x) has
the Gram integrals int a phi_i phi_j dx = (-1)^{i+j} [a(J)]_{ij} as entries
on every pair, J the pair's orthonormal Jacobi matrix (Olver & Townsend,
SIAM Rev. 55(3), 2013); its band comes from the Chebyshev Clenshaw
recurrence in J, a few whole-array products per step.

Band storage, one half-width on both sides, is read and applied one stored
diagonal at a time.  The banded QR hands LAPACK one dense panel of columns
with its right-hand side at a time (numpy.linalg.qr, triangle only) and
back-substitutes panel by panel, so no Python loop runs per column.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .basis import DiffOp, Expansion
from .jacobi import recurrence
from .special import JacobiParams, _count

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
_RANK_TOL = 1e-13  # smallest |R_jj| / max |R_jj| that banded_qr_lstsq accepts


def _window(c) -> np.ndarray:
    """c as a float array; raises ValueError unless it is 1-d."""
    c = np.asarray(c, dtype=float)
    if c.ndim != 1:
        raise ValueError(f"coefficients must form a 1-d sequence (got shape {c.shape})")
    return c


def diff_apply(d: DiffOp, c) -> np.ndarray:
    """Apply the differentiation operator to a coefficient window.

    Length-n input produces length-n output with the one-slot lookahead
    c_n = 0, from the n - 1 couplings b_0..b_{n-2}; pad with trailing zeros
    when the output must match the infinite operator exactly.
    """
    c = _window(c)
    n = c.size
    if n == 0:
        return np.zeros(0)
    b = d.b[: n - 1]
    _count(b.size, "DiffOp coupling count", least=n - 1)
    out = np.zeros(n)
    out[1:] += b * c[: n - 1]
    out[:-1] -= b * c[1:]
    return out


def diff_squared_apply(d: DiffOp, c) -> np.ndarray:
    """Apply D twice with two-slot zero padding.

    The padded window makes the result equal to the infinite-matrix D^2
    restricted to the first n entries, so the window never sees truncation
    (and the quadratic form c . D^2 c = -|Dc|^2 stays nonpositive).
    """
    c = _window(c)
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
    _count(n, "window size", least=0)
    b = d.b[: max(n - 1, 0)]
    _count(b.size, "DiffOp coupling count", least=n - 1)
    out = np.zeros((n, n))
    idx = np.arange(n - 1)
    out[idx + 1, idx] = b
    out[idx, idx + 1] = -b
    return out


class MultOp:
    """Multiplication by a(x) = a_0/sqrt 2 + sum_{1<=k<=M} a_k T_k(tanh x).

    A MultOp holds only the coefficients; the basis is the operand's, passed
    as `params` to apply and dense (Chebyshev-T by default) and taken from
    the DiffOp by assemble_first_order.  In the basis of a pair its matrix is
    (-1)^{i+j} [a(J)]_{ij} = int a phi_i phi_j dx, J the pair's Jacobi matrix:
    symmetric, bandwidth M, Toeplitz-plus-Hankel on the half-integer pairs.
    """

    def __init__(self, a_coeffs, size: int):
        a = np.asarray(a_coeffs, dtype=float)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("coefficient sequence must be nonempty and 1-d")
        if not np.all(np.isfinite(a)):
            raise ValueError("coefficients must be finite")
        self.size = _count(size, "size")
        self.a_coeffs = a.copy()
        self.a_coeffs.flags.writeable = False
        self.bandwidth = a.size - 1

    def _band(self, rows: int, cols: int, bw: int, params: JacobiParams) -> "BandedMatrix":
        """The rows x cols window in band storage, bandwidth bw >= M on both sides.

        Clenshaw in Jt = tridiag(-e, B, -e), whose signs carry the (-1)^{i+j}:
        b_k = a_k I + 2 Jt b_{k+1} - b_{k+2} (k = M..1), a(Jt) = (a_0/sqrt 2) I
        + Jt b_1 - b_2.  The b_k are symmetric: row d + 1 keeps diagonal d >= 0
        (0 past the live band), row 0 the mirrored diagonal -1 that Jt reads.
        Jt of size max(rows, cols) + M keeps the window exact.
        """
        _count((2 * bw + 1) * cols, "band size")  # the Clenshaw arrays below come before BandedMatrix.zeros
        a = self.a_coeffs
        m = a.size - 1
        B, e = recurrence(params, max(rows, cols) + m)[:2]

        def views(B, e):  # [s, j] -> B_{j+s-1} and e_{j+s-2}, 0 at index -1
            return (sliding_window_view(np.concatenate(([0.0], B)), cols),
                    sliding_window_view(np.concatenate(([0.0, 0.0], e)), cols))

        def jt_minus(Bv, ev, x, prev, hi, out):  # diagonals 0..hi-2 of Jt x - prev, into out
            x[0, 1:] = x[2, :-1]
            y = out[1:hi]
            np.multiply(Bv[1:hi], x[1:hi], out=y)
            y -= ev[1:hi] * x[: hi - 1]
            y -= ev[2 : hi + 1] * x[2 : hi + 1]
            y -= prev[1:hi]
            return y

        twice = views(2.0 * B, 2.0 * e)
        b1, b2, spare = (np.zeros((m + 3, cols)) for _ in range(3))
        for k in range(m, 0, -1):
            jt_minus(*twice, b1, b2, m - k + 2, spare)
            spare[1] += a[k]
            b1, b2, spare = spare, b1, b2
        low = jt_minus(*views(B, e), b1, b2, m + 2, spare)
        low[0] += a[0] * _SQRT1_2
        band = BandedMatrix.zeros(rows, cols, bw)
        band.data[bw : bw + m + 1] = low
        for d in range(1, min(m + 1, cols)):  # A[j - d, j] = A[j, j - d]
            band.data[bw - d, d:] = low[d, : cols - d]
        return band

    def apply(self, c, *, params: JacobiParams = JacobiParams(-0.5, -0.5)) -> np.ndarray:
        """Banded action in the basis of `params`, exact on windows at least as
        long as the input support plus M; an empty window maps to an empty one."""
        c = _window(c)
        return self._band(c.size, c.size, self.bandwidth, params).matvec(c) if c.size else np.zeros(0)

    def dense(self, rows: int | None = None, cols: int | None = None, *,
              params: JacobiParams = JacobiParams(-0.5, -0.5)) -> np.ndarray:
        rows = self.size if rows is None else rows
        cols = self.size if cols is None else cols
        return self._band(rows, cols, self.bandwidth, params).to_dense()


def mult_op(a_coeffs, bandwidth: int, size: int) -> MultOp:
    """Assemble the multiplication operator for a_0..a_M (M = bandwidth).

    Raises
    ------
    ValueError
        If bandwidth >= size, or nonzero coefficients lie beyond bandwidth.
    """
    a = np.asarray(a_coeffs, dtype=float)
    if _count(bandwidth, "bandwidth", least=0) >= _count(size, "size"):
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
    """Rectangular matrix in band storage, half-width bw on both sides:
    data[i - j + bw, j] = A[i, j] (a one-sided band is stored with zeros)."""

    rows: int
    cols: int
    bw: int
    data: np.ndarray

    @classmethod
    def zeros(cls, rows: int, cols: int, bw: int) -> "BandedMatrix":
        return cls(rows=_count(rows, "row count"), cols=_count(cols, "column count"),
                   bw=_count(bw, "half-width", least=0), data=np.zeros((2 * bw + 1, cols)))

    def _diagonals(self):
        """Each stored diagonal k = i - j that meets the matrix, with the
        column range lo <= j < hi where it lies inside."""
        for k in range(max(-self.bw, 1 - self.cols), min(self.bw, self.rows - 1) + 1):
            yield k, max(0, -k), min(self.cols, self.rows - k)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols))
        for k, lo, hi in self._diagonals():
            j = np.arange(lo, hi)
            out[j + k, j] = self.data[k + self.bw, lo:hi]
        return out

    def matvec(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.size != self.cols:
            raise ValueError(f"vector length {v.size} does not match {self.cols} columns")
        out = np.zeros(self.rows)
        for k, lo, hi in self._diagonals():
            out[lo + k : hi + k] += self.data[k + self.bw, lo:hi] * v[lo:hi]
        return out


def assemble_first_order(d: DiffOp, mult: MultOp, n: int) -> BandedMatrix:
    """Rectangular banded truncation of L = D + A for u' + a(x) u.

    The truncation keeps n columns and n + bandwidth rows, so every
    equation touching the retained coefficients is present; bandwidth is
    max(1, M) on both sides.  D reads the n couplings b_0..b_{n-1}.
    """
    b = d.b[: _count(n, "truncation size")]
    _count(b.size, "DiffOp coupling count", least=n)
    bw = max(1, mult.bandwidth)
    out = mult._band(n + bw, n, bw, d.params)
    out.data[bw + 1, :] += b  # (j + 1, j): +b_j
    out.data[bw - 1, 1:] -= b[:-1]  # (j - 1, j): -b_{j-1}
    return out


def banded_qr_lstsq(mat: BandedMatrix, rhs):
    """Least-squares solve of a banded rectangular system by blocked QR.

    Columns are factored _PANEL at a time: the panel's dense block (its
    rows down to bw below it, its columns out to the fill-in width 2 bw)
    is factored with b appended by one numpy.linalg.qr that forms no Q.
    The panel's rows of the triangle are finished rows of R and of Q^T b,
    kept for a back-substitution that solves one panel's triangle at a
    time; the rows below, an orthogonal transform of the rows under the
    panel, carry into the next block.  Returns the solution.

    Raises
    ------
    numpy.linalg.LinAlgError
        If a diagonal of R falls below _RANK_TOL relative to the largest.
    """
    m, n = mat.rows, mat.cols
    if m < n:
        raise ValueError("system must have at least as many rows as columns")
    b = np.asarray(rhs, dtype=float).copy()
    if b.size != m:
        raise ValueError(f"rhs length {b.size} does not match {m} rows")
    bw = mat.bw
    ubw = 2 * bw  # upper bandwidth of R after fill-in
    data = np.pad(mat.data, ((0, 0), (0, ubw)))
    i, k = np.ogrid[: _PANEL + bw, : _PANEL + ubw]
    d = i - k + bw  # row in mat.data of the block entry A[j + i, j + k]
    inband, d = (d >= 0) & (d <= ubw), np.clip(d, 0, ubw)
    panels, carry = [], np.zeros((0, ubw))
    for j in range(0, n, _PANEL):
        w = min(_PANEL, n - j)
        h, cols = min(w + bw, m - j), w + ubw
        block = np.where(inband[:h, :cols], data[d[:h, :cols], j + k[:, :cols]], 0.0)
        block[: len(carry), :ubw] = carry
        r = np.linalg.qr(np.column_stack([block, b[j : j + h]]), mode="r")
        b[j : j + h] = r[:, -1]
        panels.append((j, r[:w, :w], r[:w, w:-1]))
        carry = r[w:, w:-1]

    rdiag = np.abs(np.concatenate([np.diag(r) for _, r, _ in panels]))
    biggest = rdiag.max()
    if biggest == 0.0 or rdiag.min() < _RANK_TOL * biggest:
        worst = int(rdiag.argmin())
        raise np.linalg.LinAlgError(
            f"rank-deficient system: |R[{worst},{worst}]| = {rdiag.min():.3e} "
            f"below {_RANK_TOL:.1e} of max {biggest:.3e}"
        )
    x = np.zeros(n + ubw)
    for j, r, c in reversed(panels):
        e = j + len(r)
        x[j:e] = np.linalg.solve(r, b[j:e] - c @ x[e : e + ubw])
    return x[:n]


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Least-squares solution of the first-order operator with its residual."""

    expansion: Expansion
    residual: float


def solve_first_order(d: DiffOp, mult: MultOp, rhs: Expansion, n: int) -> SolveResult:
    """Solve u' + a(x) u = f in coefficient space on an n-column window.

    The rectangular banded truncation of L = D + A is factored by the
    blocked panel QR of banded_qr_lstsq; the reported residual is
    |L u - f| on the retained window.  A multiplication operator that is
    identically zero is rejected (u' = f alone has no unique solution in
    L2), and so is a right-hand side in another parameter pair than d.  A
    half-mode right-hand side names the same function as the full-mode one
    with its coefficients; the solution keeps its spec.
    """
    if d.params != rhs.spec.params:
        raise ValueError(f"DiffOp is for {d.params}, right-hand side is in {rhs.spec.params}")
    if not np.any(mult.a_coeffs != 0.0):
        raise ValueError("singular operator: a(x) = 0 leaves u' = f without a unique solution")
    mat = assemble_first_order(d, mult, n)
    b = np.zeros(mat.rows)
    take = min(len(rhs), mat.rows)
    b[:take] = rhs.coeffs[:take]
    x = banded_qr_lstsq(mat, b)
    residual = float(np.linalg.norm(mat.matvec(x) - b))
    return SolveResult(expansion=Expansion(spec=rhs.spec, coeffs=x), residual=residual)
