"""Least-squares distances from a target series to finite function spans.

This is the quantitative engine of the laboratory: distances from the
constant 1 to growing spans of the h_k family (the Nyman-Beurling /
Baez-Duarte style distance sequence in the disk model), orthogonality
measurements for spans of h_k differences, and cyclicity experiments for
the weighted dilation orbit of a given series.

Least squares is solved by Householder QR rather than Gram normal
equations: adjacent h_k are nearly dependent and normal equations would
square the condition number.  The d_K sequence and the cyclicity scans,
like any family of nested spans, come from one engine: one QR of the
augmented matrix [b_1 .. b_m | target], built once in column-major order
with the basis and the target as views of it.  The distance to
span{b_1..b_j} is the norm of R's last column below row j (Golub & Van
Loan, Matrix Computations, sec. 5.3).  The residual norms of all m
prefixes are then re-checked in one pass over row blocks of the basis,
from the coefficients and the basis alone, never from Q or R.  Pivoted QR
(:func:`distance_to_span`) is kept only as the oracle of that engine.
Every report carries the optimal coefficients, an independently recomputed
residual norm (enforced to agree with the distance), and a conditioning
estimate so a genuine distance plateau can be told apart from numerical
rank collapse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateBasis, HypothesisViolated, IndexOutOfRange, ResidualMismatch
from .semigroup import weighted_dilation
from .series import CoeffSeries, axpy, fit_degree, from_coeffs, inner, norm
from .special import _check_hk_args, _fill_hk_columns, hk_closed_form

__all__ = [
    "SpanProblem",
    "DistanceReport",
    "distance_to_span",
    "nested_distances",
    "baez_duarte_sequence",
    "difference_span_orthogonality",
    "cyclicity_scan",
    "non_cyclicity_witness",
]

RANK_TOLERANCE = 1e-10
# |distance - residual_norm_check| may not exceed this times max(1, ||target||).
RESIDUAL_AGREEMENT = 1e-10
# Rows per block of the nested residual re-check: a 2048 x 50 real block
# of temporaries is about 0.8 MiB.
_RESIDUAL_BLOCK_ROWS = 2048


@dataclass(frozen=True)
class SpanProblem:
    """A target series, a finite basis, and the common truncation degree.

    Target and basis are refitted to degree ``n_trunc`` on construction.
    Members shorter than ``n_trunc`` are zero-padded, which is exact only
    for polynomials; for h_k-type bases generate directly at ``n_trunc``
    and make sure the tail bound at that degree is negligible against the
    distances of interest.
    """

    target: CoeffSeries
    basis: list[CoeffSeries]
    n_trunc: int

    def __post_init__(self) -> None:
        if not self.basis:
            raise ValueError("basis must be nonempty")
        if self.n_trunc < 0:
            raise ValueError("n_trunc must be >= 0")
        object.__setattr__(self, "target", fit_degree(self.target, self.n_trunc))
        object.__setattr__(
            self, "basis", [fit_degree(b, self.n_trunc) for b in self.basis]
        )


@dataclass(frozen=True)
class DistanceReport:
    """Outcome of one least-squares projection.

    ``distance`` is the residual norm from the QR path;
    ``residual_norm_check`` recomputes it from the coefficients by direct
    arithmetic on the basis and agrees to 1e-10 * max(1, ||target||), or
    the report is never made (:class:`ResidualMismatch`).
    ``condition_estimate`` is the diagonal ratio of the pivoted R factor,
    a cheap lower bound on the basis matrix's true condition number.
    ``coefficients`` is the engine's read-only coefficient vector, float64
    when the target and the basis are real and complex128 otherwise.
    Reports come from :func:`nested_distances` or its oracle
    :func:`distance_to_span`.
    """

    distance: float
    coefficients: np.ndarray
    residual_norm_check: float
    condition_estimate: float

    def to_json_dict(self) -> dict:
        return {
            "distance": self.distance,
            "coefficients_re": self.coefficients.real.tolist(),
            "coefficients_im": self.coefficients.imag.tolist(),
            "residual_norm_check": self.residual_norm_check,
            "condition_estimate": self.condition_estimate,
        }


def distance_to_span(problem: SpanProblem) -> DistanceReport:
    """Distance from the target to the span of the basis at the fixed truncation.

    The oracle of :func:`nested_distances`: solves min_c ||target - sum_i
    c_i basis_i|| over coefficients 0..n_trunc via pivoted Householder QR
    and re-checks the residual summed by :func:`axpy`.  The matrix is real
    when the target and every basis member are real, complex otherwise.

    Raises:
        DegenerateBasis: when the basis has more members than coefficients,
            or the pivoted R diagonal decays below RANK_TOLERANCE relative
            to its largest entry.
        ResidualMismatch: when the residual re-check disagrees with the
            QR distance.
    """
    aug = _augmented(problem)
    a, rhs = aug[:, :-1], aug[:, -1]
    if a.shape[1] > a.shape[0]:
        raise DegenerateBasis(f"{a.shape[1]} basis members exceed {a.shape[0]} coefficients")
    q, r, piv = scipy.linalg.qr(a, mode="economic", pivoting=True)
    condition_estimate = _condition_estimate(r)

    qtb = q.conj().T @ rhs
    c_piv = scipy.linalg.solve_triangular(r, qtb)
    coeffs = np.empty_like(c_piv)
    coeffs[piv] = c_piv
    distance = float(np.linalg.norm(rhs - q @ qtb))

    residual = problem.target
    for c, b in zip(coeffs, problem.basis):
        residual = axpy(-c, b, residual)
    return _checked_report(distance, coeffs, norm(residual), np.linalg.norm(rhs), condition_estimate)


def nested_distances(problem: SpanProblem) -> list[DistanceReport]:
    """One report per prefix ``basis[:j]``, j = 1..len(basis), from one QR.

    Each report agrees with ``distance_to_span`` on the same prefix: the
    distance through R of the augmented matrix, the coefficients by
    back-substitution in R's leading block, and the rank gate and condition
    estimate from a pivoted QR of that j x j block, which has the same
    pivoted diagonal as the N x j basis (they differ by an orthogonal
    factor).  The residual norms of every prefix are re-checked together,
    as ``target - basis @ C`` over row blocks of the basis, where column
    j - 1 of the upper-triangular m x m matrix C holds the coefficients of
    prefix j.  This is the laboratory's one least-squares engine.

    Raises:
        DegenerateBasis: at the first prefix whose pivoted diagonal decays
            below RANK_TOLERANCE relative to its largest entry.
        ResidualMismatch: when a residual re-check disagrees with its
            distance.
    """
    return _nested_reports(_augmented(problem))


def baez_duarte_sequence(k_max: int, n_trunc: int) -> list[tuple[int, DistanceReport]]:
    """Distances d_K from the constant 1 to span{h_2, ..., h_K} for K = 2..k_max.

    The spans are nested, so the sequence is nonincreasing and one QR of
    [h_2 .. h_kmax | 1] gives all of it; each entry carries its full report
    so conditioning can be inspected alongside the distance.
    """
    if k_max < 2:
        raise IndexOutOfRange(f"k_max must be >= 2, got {k_max}")
    _check_hk_args(k_max, n_trunc)
    aug = np.zeros((n_trunc + 1, k_max), order="F")
    _fill_hk_columns(aug[:, :-1])
    aug[0, -1] = 1.0
    return list(zip(range(2, k_max + 1), _nested_reports(aug)))


def _augmented(problem: SpanProblem) -> np.ndarray:
    """Column-major [b_1 .. b_m | target], complex when any input is complex."""
    columns = problem.basis + [problem.target]
    dtype = complex if any(np.iscomplexobj(c.coeffs) for c in columns) else float
    aug = np.empty((problem.n_trunc + 1, len(columns)), dtype=dtype, order="F")
    for i, c in enumerate(columns):
        aug[:, i] = c.coeffs
    return aug


def _condition_estimate(r: np.ndarray) -> float:
    """Diagonal ratio of a pivoted R factor, after the rank gate."""
    diag = np.abs(np.diag(r))
    if diag[0] == 0.0 or diag[-1] < RANK_TOLERANCE * diag[0]:
        raise DegenerateBasis(
            f"basis is numerically rank deficient: pivoted diagonal ratio "
            f"{diag[-1] / diag[0] if diag[0] else 0.0:.3e} below {RANK_TOLERANCE:.0e}"
        )
    return float(diag[0] / diag[-1])


def _nested_reports(aug: np.ndarray) -> list[DistanceReport]:
    """One report per prefix b_1..b_j, j = 1..m, of ``aug`` = [b_1 .. b_m | target]."""
    rows, m = aug.shape[0], aug.shape[1] - 1
    a, rhs = aug[:, :m], aug[:, m]
    (r_aug,) = scipy.linalg.qr(aug, mode="r")
    # With fewer than m + 1 rows, R is padded with zero rows, so every
    # prefix longer than the row count fails the rank gate.
    r = np.zeros((m + 1, m + 1), dtype=r_aug.dtype)
    r[: min(rows, m + 1)] = r_aug[: m + 1]
    distances = np.sqrt(np.cumsum(np.abs(r[::-1, m]) ** 2))[::-1]

    coeffs = np.zeros((m, m), dtype=r.dtype)
    condition_estimates = []
    for j in range(1, m + 1):
        block = r[:j, :j]
        pivoted_r, _ = scipy.linalg.qr(block, mode="r", pivoting=True)
        condition_estimates.append(_condition_estimate(pivoted_r))
        coeffs[:j, j - 1] = scipy.linalg.solve_triangular(block, r[:j, m])
    checks = _residual_norms(a, rhs, coeffs)

    target_norm = np.linalg.norm(rhs)
    return [
        _checked_report(
            float(distances[j]),
            coeffs[:j, j - 1],
            float(checks[j - 1]),
            target_norm,
            condition_estimates[j - 1],
        )
        for j in range(1, m + 1)
    ]


def _residual_norms(a: np.ndarray, rhs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """||rhs - a @ coeffs[:, j]|| for every column j, one GEMM per block of rows of ``a``."""
    sum_sq = np.zeros(coeffs.shape[1])
    for lo in range(0, len(rhs), _RESIDUAL_BLOCK_ROWS):
        hi = lo + _RESIDUAL_BLOCK_ROWS
        block = rhs[lo:hi, None] - a[lo:hi] @ coeffs
        sum_sq += np.sum(np.abs(block) ** 2, axis=0)
    return np.sqrt(sum_sq)


def _checked_report(
    distance: float,
    coeffs: np.ndarray,
    check: float,
    target_norm: float,
    condition_estimate: float,
) -> DistanceReport:
    """The report, once ``check`` agrees with ``distance``; ``coeffs`` is made read-only."""
    bound = RESIDUAL_AGREEMENT * max(1.0, target_norm)
    if not abs(distance - check) <= bound:
        raise ResidualMismatch(
            f"distance {distance:.17g} and residual re-check {check:.17g} "
            f"differ by {abs(distance - check):.3e} > {bound:.3e}"
        )
    coeffs.setflags(write=False)
    return DistanceReport(
        distance=distance,
        coefficients=coeffs,
        residual_norm_check=check,
        condition_estimate=condition_estimate,
    )


def difference_span_orthogonality(k_max: int) -> float:
    """max over 2 <= k < l <= k_max of |<h_k - h_l, 1 - z>|.

    Every difference h_k - h_l is orthogonal to 1 - z because the first
    two coefficients of each h_k differ by exactly 1 regardless of k; the
    returned maximum is zero up to rounding (<= 1e-12).
    """
    if k_max < 3:
        raise IndexOutOfRange(f"k_max must be >= 3, got {k_max}")
    one_minus_z = from_coeffs([1.0, -1.0])
    hs = {k: hk_closed_form(k, 1) for k in range(2, k_max + 1)}
    worst = 0.0
    for k in range(2, k_max + 1):
        for ell in range(k + 1, k_max + 1):
            diff = from_coeffs(hs[k].coeffs - hs[ell].coeffs)
            worst = max(worst, abs(inner(diff, one_minus_z)))
    return worst


def cyclicity_scan(
    f: CoeffSeries,
    n_max: int,
    targets: list[CoeffSeries],
    n_trunc: int,
) -> list[DistanceReport]:
    """Distances from each target to span of the dilation orbit of ``f``.

    The basis is the orbit [weighted_dilation(n, f) for n = 1..n_max],
    refitted to the common truncation degree.  Padding the orbit members
    is exact when f is a polynomial, the intended use.  Each report is the
    last of :func:`nested_distances`, so every orbit prefix passes its rank
    gate or :class:`DegenerateBasis` is raised.
    """
    if n_max < 2:
        raise IndexOutOfRange(f"n_max must be >= 2, got {n_max}")
    orbit = [weighted_dilation(n, f) for n in range(1, n_max + 1)]
    return [nested_distances(SpanProblem(t, orbit, n_trunc))[-1] for t in targets]


def non_cyclicity_witness(f: CoeffSeries, n_max: int) -> float:
    """max over 1 <= n <= n_max of |<weighted_dilation(n, f), 1 - z>|.

    Requires the first two coefficients of f to coincide (checked to
    1e-14 * max(1, |f_0|)).  Under that hypothesis every orbit member is
    orthogonal to 1 - z: for n >= 2 the first two output coefficients are
    both f_0, and for n = 1 the hypothesis itself applies.  The returned maximum is
    bounded by ~1e-13 times ||f||.
    """
    if n_max < 1:
        raise IndexOutOfRange(f"n_max must be >= 1, got {n_max}")
    if f.valid_degree < 1:
        raise HypothesisViolated("need at least coefficients 0 and 1")
    gap = abs(f.coeffs[0] - f.coeffs[1])
    tol = 1e-14 * max(1.0, abs(f.coeffs[0]))
    if gap > tol:
        raise HypothesisViolated(f"first two coefficients differ by {gap:.3e} > {tol:.3e}")
    one_minus_z = from_coeffs([1.0, -1.0])
    return max(
        abs(inner(weighted_dilation(n, f), one_minus_z)) for n in range(1, n_max + 1)
    )
