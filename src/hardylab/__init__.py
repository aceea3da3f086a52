"""Numerical laboratory for dilation semigroups on truncated Hardy-space series.

The package computes, at explicit finite truncation, every quantity the
weighted dilation semigroup on square-summable Maclaurin coefficients
exposes to direct verification: the coefficient transforms and their
adjoints, kernel bases, explicit adjoint eigenvectors and their residuals,
the h_k special functions with a mutual-oracle generator pair, local
Dirichlet energies at the boundary point 1, and least-squares distances
from targets to finite spans (the Baez-Duarte style distance sequence and
cyclicity experiments).
"""

from .errors import (
    DegenerateBasis,
    HardyLabError,
    HypothesisViolated,
    IndexOutOfRange,
    NearZeroConstantTerm,
    OutsideSpectralBall,
    ResidualMismatch,
    TruncationTooShort,
)
from .projection import (
    DistanceReport,
    baez_duarte_sequence,
    cyclicity_scan,
    distance_to_span,
    nested_distances,
    non_cyclicity_witness,
)
from .semigroup import (
    dilation,
    kernel_intersection_basis,
    kernel_vector,
    semiconjugacy_residual,
    weighted_dilation,
    weighted_dilation_adjoint,
    weighted_dilation_adjoint_array,
    weighted_dilation_array,
)
from .series import (
    CoeffSeries,
    axpy,
    cumsum,
    formal_log,
    from_coeffs,
    inner,
    monomial,
    norm,
    one,
    pad,
    truncate,
    zero,
)
from .special import (
    dirichlet_energy_at_one,
    dirichlet_energy_at_one_array,
    hk_closed_form,
    hk_oracle,
    truncation_certificate,
)
from .spectral import (
    DiskScanReport,
    EigenPair,
    adjoint_eigenvector,
    eigenvector_norm_sq,
    level_for_degree,
    shift_decay,
    spectral_disk_scan,
)

__version__ = "0.1.0"

__all__ = [
    "CoeffSeries",
    "DegenerateBasis",
    "DiskScanReport",
    "DistanceReport",
    "EigenPair",
    "HardyLabError",
    "HypothesisViolated",
    "IndexOutOfRange",
    "NearZeroConstantTerm",
    "OutsideSpectralBall",
    "ResidualMismatch",
    "TruncationTooShort",
    "adjoint_eigenvector",
    "axpy",
    "baez_duarte_sequence",
    "cumsum",
    "cyclicity_scan",
    "dilation",
    "dirichlet_energy_at_one",
    "dirichlet_energy_at_one_array",
    "distance_to_span",
    "eigenvector_norm_sq",
    "formal_log",
    "from_coeffs",
    "hk_closed_form",
    "hk_oracle",
    "inner",
    "kernel_intersection_basis",
    "kernel_vector",
    "level_for_degree",
    "monomial",
    "nested_distances",
    "non_cyclicity_witness",
    "norm",
    "one",
    "pad",
    "semiconjugacy_residual",
    "shift_decay",
    "spectral_disk_scan",
    "truncate",
    "truncation_certificate",
    "weighted_dilation",
    "weighted_dilation_adjoint",
    "weighted_dilation_adjoint_array",
    "weighted_dilation_array",
    "zero",
]
