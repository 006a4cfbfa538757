"""Asymptotic spectral equivalents of symmetric analytic matrix perturbations.

Given a symmetric matrix series K(eps), this package computes the leading
terms of every eigenvalue group and the limiting eigenvectors, using diagonal
eps-power scalings, Schur-complement chains, block rank-revealing QR of
generalized kernel forms, and an iterative reduction for degenerate cases.
The kernel pipeline specializes this to radial kernel matrices in the flat
limit; a numerical eigendecomposition oracle verifies the predictions.
"""

from .series import (
    Exponent,
    INFINITY,
    MatrixSeries,
    ScalarSeries,
    SingularLeadingTermError,
    ValuationMatrix,
    series_matrix_inverse,
    valuation_matrix,
)
from .scaling import (
    DiagonalScaling,
    ScaledForm,
    auto_scale,
    auto_scale_exponents,
    auto_scale_with_permutation,
    check_valid,
    extract_H,
)
from .ase import (
    Ase,
    SchurChain,
    SpectralGroup,
    ase_from_scaled,
    eigen_readout,
    schur_chain,
)
from .gkf import BlockQr, GkfForm, ase_from_gkf, block_rrqr, build_H
from .kernels import (
    KernelModel,
    MonomialBasis,
    NodeSet,
    distance_matrix,
    generate_nodes,
    kernel_ase,
    kernel_matrix,
    kernel_model,
    monomials_of_degree,
    num_monomials_exact,
    num_monomials_upto,
    regularity_index,
    wronskian,
)
from .degenerate import iterative_ase
from .oracle import (
    MatchReport,
    SweepResult,
    ValuationFit,
    eigen_sweep,
    estimate_valuations,
    match_ase,
)
from .pipeline import analyze_series

__version__ = "0.1.0"
