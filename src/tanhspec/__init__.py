"""Spectral approximation on the real line with tanh-Jacobi bases.

Orthonormal bases of L2(R) whose differentiation matrix is skew-symmetric,
tridiagonal and irreducible, with O(N log N) coefficient transforms for the
four half-integer Chebyshev parameter pairs, banded multiplication
operators a(J) on every pair (Toeplitz-plus-Hankel on the four half-integer
ones), a banded least-squares solver for first-order operators, and Fourier
transforms evaluated through Gamma-product weights.
"""

from .basis import BasisSpec, DiffOp, Expansion, clenshaw_eval, derivative_pointwise, diff_coeffs, phi_full
from .fourier import carlitz_eval, fourier_transform, g_weight, measure_density, normalisation_constant
from .jacobi import QuadratureRule, gauss_jacobi
from .operators import (
    BandedMatrix,
    MultOp,
    SolveResult,
    assemble_first_order,
    dense_diff,
    diff_apply,
    diff_squared_apply,
    mult_op,
    solve_first_order,
)
from .special import JacobiParams
from .transforms import SampleGrid, analyze_full, analyze_half, analyze_unweighted, dct, sample_grid, synthesize

__version__ = "0.1.0"

__all__ = [
    "BandedMatrix",
    "BasisSpec",
    "DiffOp",
    "Expansion",
    "JacobiParams",
    "MultOp",
    "QuadratureRule",
    "SampleGrid",
    "SolveResult",
    "analyze_full",
    "analyze_half",
    "analyze_unweighted",
    "assemble_first_order",
    "carlitz_eval",
    "clenshaw_eval",
    "dct",
    "dense_diff",
    "derivative_pointwise",
    "diff_apply",
    "diff_coeffs",
    "diff_squared_apply",
    "fourier_transform",
    "g_weight",
    "gauss_jacobi",
    "measure_density",
    "mult_op",
    "normalisation_constant",
    "phi_full",
    "sample_grid",
    "solve_first_order",
    "synthesize",
]
