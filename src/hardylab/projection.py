"""Least-squares distances from a target series to finite function spans.

This is the quantitative engine of the laboratory: distances from the
constant 1 to growing spans of the h_k family (the Nyman-Beurling /
Baez-Duarte style distance sequence in the disk model) and cyclicity
experiments for the weighted dilation orbit of a given series.

Least squares is solved by Householder QR rather than Gram normal
equations: adjacent h_k are nearly dependent and normal equations would
square the condition number.  The d_K sequence and the cyclicity scans,
like any family of nested spans, come from one engine: one QR of the
column-major matrix [b_1 .. b_m | t_1 .. t_r], the basis followed by every
target.  That QR is LAPACK's recursive compact-WY Householder
factorization ``?geqrt`` (Elmroth & Gustavson), level-3 BLAS throughout;
``?geqrf``, behind ``scipy.linalg.qr``, falls back to the unblocked
level-2 ``?geqr2`` below 128 columns.  The distance from t_i to
span{b_1..b_j} is the norm of R's column m + i below row j (Golub & Van
Loan, Matrix Computations, sec. 5.3): Q's columns past j are orthogonal to
b_1..b_j, whatever the columns between the basis and t_i hold.  The
leading blocks of R^-1 are the inverses of the leading blocks of R, so one
inversion of R's basis block gives the coefficients of every prefix and
target and the exact 1-norm condition number of every R[:j,:j], and the
rank gate runs once, on that block.  Each target's residual norms are
re-checked in one pass over row blocks of the basis, from the coefficients
and the basis, never from Q or R.  Every BLAS call of the engine goes to
scipy's OpenBLAS (``?geqrt``, ``?trtrs``, ``?gemm``) and target norms are
summed elementwise: the numpy and scipy wheels each bundle their own
OpenBLAS with its own thread pool, and a numpy BLAS call right after a
scipy one wakes the second pool while the first still spins, three busy
threads on two cores.  Pivoted QR (:func:`distance_to_span`) is kept only
as the oracle of that engine.  Every report carries the optimal
coefficients, an independently recomputed residual norm (enforced to agree
with the distance), and a condition figure so a genuine distance plateau
can be told apart from numerical rank collapse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateBasis, HypothesisViolated, IndexOutOfRange, ResidualMismatch
from .semigroup import weighted_dilation
from .series import CoeffSeries, axpy, fit_degree, from_coeffs, inner, norm
from .special import _check_hk_args, _fill_hk_columns

__all__ = [
    "SpanProblem",
    "DistanceReport",
    "distance_to_span",
    "nested_distances",
    "baez_duarte_sequence",
    "cyclicity_scan",
    "non_cyclicity_witness",
]

RANK_TOLERANCE = 1e-10
# |distance - residual_norm_check| may not exceed this times max(1, ||target||).
RESIDUAL_AGREEMENT = 1e-10
# Rows per block of the nested residual re-check, one scipy ``?gemm`` per
# block (never numpy's ``@``, which runs on numpy's own OpenBLAS pool): a
# 2048 x 50 real block of temporaries is about 0.8 MiB.
_RESIDUAL_BLOCK_ROWS = 2048
# Column block size of the engine's ``?geqrt``, capped by the matrix shape.
_QR_BLOCK_COLUMNS = 32


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
    ``condition_estimate`` is, in the reports of :func:`nested_distances`,
    the exact 1-norm condition number of the basis' triangular factor,
    which lies within a factor j (the number of basis members) of the
    2-norm condition number of the basis; in the reports of the oracle
    :func:`distance_to_span` it is the diagonal ratio of the pivoted R
    factor, a cheap lower bound on the 2-norm condition number.
    ``coefficients`` is read-only, float64 when the whole factored matrix
    (the basis and every target) is real and complex128 otherwise.
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
    aug = _augmented(problem.basis + [problem.target])
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

    Each report agrees with ``distance_to_span`` on the same prefix in its
    distance and its coefficients ``R[:j,:j]^-1 R[:j,m]``, from one inverse
    of R's leading m x m block.  The condition estimate of prefix j is the
    exact 1-norm condition number of ``R[:j,:j]``, nondecreasing in j, so
    the rank gate runs once, on the whole basis.  The residual norms of
    every prefix are re-checked together as ``target - basis @ C`` over row
    blocks of the basis; column j - 1 of the upper-triangular m x m matrix
    C holds the coefficients of prefix j.

    Raises:
        DegenerateBasis: when R has an exact zero on its diagonal (a zero
            member, or more members than coefficients), or when the
            reciprocal condition of the whole basis is below RANK_TOLERANCE.
        ResidualMismatch: when a residual re-check disagrees with its
            distance.
    """
    aug = _augmented(problem.basis + [problem.target])
    return _nested_reports(aug, len(problem.basis))[0]


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
    return list(zip(range(2, k_max + 1), _nested_reports(aug, k_max - 1)[0]))


def _augmented(columns: list[CoeffSeries]) -> np.ndarray:
    """Column-major matrix of fitted, equal-length series, complex when any is complex."""
    dtype = complex if any(np.iscomplexobj(c.coeffs) for c in columns) else float
    aug = np.empty((len(columns[0].coeffs), len(columns)), dtype=dtype, order="F")
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


def _nested_reports(aug: np.ndarray, m: int) -> list[list[DistanceReport]]:
    """For each t_i of ``aug`` = [b_1 .. b_m | t_1 .. t_r], one report per prefix b_1..b_j."""
    rows, cols = aug.shape
    # ?geqrt returns a factored copy (R on and above the diagonal): the
    # residual re-checks below read the original basis from ``aug``.
    (geqrt,) = scipy.linalg.lapack.get_lapack_funcs(("geqrt",), (aug,))
    factored, _, _ = geqrt(min(_QR_BLOCK_COLUMNS, rows, cols), aug)
    # With fewer rows than columns, R is padded with zero rows; in the
    # basis block they put zeros on the diagonal, which the gate refuses.
    r = np.zeros((cols, cols), dtype=aug.dtype)
    r[: min(rows, cols)] = np.triu(factored[:cols])
    # distances[j, i] = ||R[j:, m + i]||, the distance from t_i to span{b_1..b_j}.
    distances = np.sqrt(np.cumsum(np.abs(r[::-1, m:]) ** 2, axis=0))[::-1]

    # Only the basis block is gated and inverted: a zero, repeated or
    # in-span target leaves zeros in its own rows of R.
    block = r[:m, :m]
    if not np.all(np.diag(block)):
        raise DegenerateBasis("basis is rank deficient: R has an exact zero on its diagonal")
    # The leading blocks of R^-1 are the inverses of the leading blocks of
    # R, and both are upper triangular, so column sums over the first j
    # columns give the 1-norms of every R[:j,:j] and its inverse at once.
    rinv = scipy.linalg.solve_triangular(block, np.eye(m))
    condition = (np.maximum.accumulate(np.abs(block).sum(axis=0))
                 * np.maximum.accumulate(np.abs(rinv).sum(axis=0)))
    # The figure is nondecreasing in j: if any prefix fails the gate, the
    # whole basis does.
    if not condition[-1] * RANK_TOLERANCE <= 1.0:
        raise DegenerateBasis(
            f"basis is numerically rank deficient: reciprocal condition "
            f"{1.0 / condition[-1]:.3e} below {RANK_TOLERANCE:.0e}"
        )
    reports = []
    for i in range(cols - m):
        rhs = aug[:, m + i]
        # Column j - 1 is R[:j,:j]^-1 R[:j,m+i]: the first j columns of
        # R^-1, weighted by R[:j,m+i] and summed.
        coeffs = np.cumsum(rinv * r[:m, m + i], axis=1)
        checks = _residual_norms(aug[:, :m], rhs, coeffs)
        # Summed elementwise, not by numpy's BLAS ``dot``: see the module docstring.
        target_norm = float(np.sqrt(np.sum(np.abs(rhs) ** 2)))
        reports.append([
            _checked_report(float(distances[j, i]), coeffs[:j, j - 1], float(checks[j - 1]),
                            target_norm, float(condition[j - 1]))
            for j in range(1, m + 1)
        ])
    return reports


def _residual_norms(a: np.ndarray, rhs: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """||rhs - a @ coeffs[:, j]|| for every column j, one scipy ``?gemm`` per row block of ``a``."""
    (gemm,) = scipy.linalg.blas.get_blas_funcs(("gemm",), (a, coeffs))
    sum_sq = np.zeros(coeffs.shape[1])
    for lo in range(0, len(rhs), _RESIDUAL_BLOCK_ROWS):
        hi = min(lo + _RESIDUAL_BLOCK_ROWS, len(rhs))
        start = np.broadcast_to(rhs[lo:hi, None], (hi - lo, coeffs.shape[1]))
        block = gemm(-1.0, a[lo:hi], coeffs, beta=1.0, c=start)
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


def cyclicity_scan(
    f: CoeffSeries,
    n_max: int,
    targets: list[CoeffSeries],
    n_trunc: int,
) -> list[DistanceReport]:
    """Distances from each target to span of the dilation orbit of ``f``.

    The orbit W_n f, n = 1..n_max, and the targets are refitted to the
    common truncation degree (exact padding for a polynomial f, the
    intended use).  One factorization of [W_1 f .. W_m f | t_1 .. t_r]
    gives each target the last report of :func:`nested_distances`, all
    complex128 when the orbit or any target is complex.  The orbit passes
    one rank gate, even with no targets, or :class:`DegenerateBasis` is raised.
    """
    if n_max < 2:
        raise IndexOutOfRange(f"n_max must be >= 2, got {n_max}")
    orbit = [weighted_dilation(n, f) for n in range(1, n_max + 1)]
    aug = _augmented([fit_degree(c, n_trunc) for c in [*orbit, *targets]])
    return [reports[-1] for reports in _nested_reports(aug, n_max)]


def non_cyclicity_witness(f: CoeffSeries, n_max: int) -> float:
    """max over 1 <= n <= n_max of |<weighted_dilation(n, f), 1 - z>|.

    Requires the first two coefficients of f to coincide (checked to
    1e-14 * max(1, |f_0|)).  Under that hypothesis every orbit member is
    orthogonal to 1 - z: for n >= 2 the first two output coefficients are
    both f_0, and for n = 1 the hypothesis itself applies.  The returned
    maximum is exactly |f_0 - f_1|, the n = 1 term: every n >= 2 term is an
    exact 0.
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
