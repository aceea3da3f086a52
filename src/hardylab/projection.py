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
rank gate runs once, on that block.  The engine's one input is a row
source ``rows(lo, hi)``, which gives any block of rows of the matrix bit
for bit.  Its one builder, :func:`_augmented`, takes one column generator
per column: the members themselves for :func:`nested_distances`, the h_k
of one harmonic table for :func:`baez_duarte_sequence`, and W_n f read
straight from f's coefficients for :func:`cyclicity_scan`, which builds no
orbit member.  The engine builds the whole matrix from the row source and
``?geqrt`` factors that in place, so the engine holds one (N+1) x (m+r)
matrix, and frees it once R's top rows are copied out, before the
2048-row blocks of its residual re-check: 8·(N+1)·K bytes for the d_K
sequence, 200 MiB at K = 200, N = 2^17, where a whole run peaks at 261 MiB
of resident memory, its growth 1.02 times the matrix (274 MiB with the
blocks read beside the matrix, 469 MiB with a factored copy beside it;
2-core x86-64, OpenBLAS).  Every target's residual norms are re-checked in
one pass over the row blocks, read from the row source again: from the
coefficients and the original rows, never from Q or R.  Every BLAS call of
the engine goes to scipy's OpenBLAS (``?geqrt``, ``?trtrs``, ``?gemm``)
and target norms are summed elementwise: the numpy and scipy wheels each
bundle their own OpenBLAS with its own thread pool, and a numpy BLAS call
right after a scipy one wakes the second pool while the first still spins,
three busy threads on two cores.  Pivoted QR (:func:`distance_to_span`) is
kept only as the oracle of that engine.  Every report carries the optimal
coefficients, an independently recomputed residual norm (enforced to agree
with the distance), and a condition figure so a genuine distance plateau
can be told apart from numerical rank collapse.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np
import scipy.linalg

from .errors import DegenerateBasis, IndexOutOfRange, ResidualMismatch
from .series import CoeffSeries, _check_array_bytes, _check_valid_degree, axpy, from_coeffs, norm
from .special import _check_hk_args, _floor_runs, _harmonic_table, _hk_coeffs

__all__ = [
    "DistanceReport",
    "distance_to_span",
    "nested_distances",
    "baez_duarte_sequence",
    "cyclicity_scan",
]

RANK_TOLERANCE = 1e-10
# |distance - residual_norm_check| may not exceed this times max(1, ||target||).
RESIDUAL_AGREEMENT = 1e-10
# Rows per block of the nested residual re-check, one scipy ``?gemm`` per
# block and target (never numpy's ``@``, which runs on numpy's own OpenBLAS
# pool): at K = 50 the block of rows and the residual buffer are 0.8 MiB each.
_RESIDUAL_BLOCK_ROWS = 2048
# Column block size of the engine's ``?geqrt``, capped by the matrix shape.
_QR_BLOCK_COLUMNS = 32
# rows(lo, hi): rows lo..hi-1 of an unfactored engine matrix, column-major.
RowSource = Callable[[int, int], np.ndarray]
# column(lo, hi): at most hi - lo entries of one matrix column, from row lo on.
Column = Callable[[int, int], np.ndarray]


@dataclass(frozen=True)
class DistanceReport:
    """Outcome of one least-squares projection.

    ``distance`` is the residual norm from the QR path;
    ``residual_norm_check`` recomputes it from the coefficients by direct
    arithmetic on the basis and agrees to 1e-10 * max(1, ||target||), or
    the report is never made (:class:`ResidualMismatch`).
    ``condition_estimate`` is, in the reports of the nested engine, the
    exact 1-norm condition number of the basis' triangular factor, which
    lies within a factor j (the number of basis members) of the 2-norm
    condition number of the basis; in the reports of the oracle
    :func:`distance_to_span` it is the diagonal ratio of the pivoted R
    factor, a cheap lower bound on the 2-norm condition number.
    ``coefficients`` is read-only, float64 when the whole factored matrix
    (the basis and every target) is real and complex128 otherwise.
    Reports come from the nested engine (:func:`nested_distances`,
    :func:`cyclicity_scan`, :func:`baez_duarte_sequence`) or from its
    oracle :func:`distance_to_span`.
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


def distance_to_span(target: CoeffSeries, basis: list[CoeffSeries],
                     n_trunc: int) -> DistanceReport:
    """Distance from ``target`` to the span of ``basis`` at truncation degree ``n_trunc``.

    The oracle of :func:`nested_distances`: solves min_c ||target - sum_i
    c_i basis_i|| over coefficients 0..n_trunc via pivoted Householder QR
    and re-checks the residual summed by :func:`axpy`.  The matrix is real
    when the target and every basis member are real, complex otherwise.

    Raises:
        ValueError: when the basis is empty or ``n_trunc`` is negative.
        DegenerateBasis: when the basis has more members than coefficients,
            or the pivoted R diagonal decays below RANK_TOLERANCE relative
            to its largest entry.
        ResidualMismatch: when the residual re-check disagrees with the
            QR distance.
    """
    aug = _series_rows(basis, [target], n_trunc)(0, n_trunc + 1)
    a, rhs = aug[:, :-1], aug[:, -1]
    q, r, piv = scipy.linalg.qr(a, mode="economic", pivoting=True)
    condition_estimate = _condition_estimate(r)

    qtb = q.conj().T @ rhs
    c_piv = scipy.linalg.solve_triangular(r, qtb)
    coeffs = np.empty_like(c_piv)
    coeffs[piv] = c_piv
    distance = float(np.linalg.norm(rhs - q @ qtb))

    residual = from_coeffs(rhs)
    for c, b in zip(coeffs, a.T):
        residual = axpy(-c, from_coeffs(b), residual)
    return _checked_report(distance, coeffs, norm(residual), np.linalg.norm(rhs), condition_estimate)


def nested_distances(basis: list[CoeffSeries], targets: list[CoeffSeries],
                     n_trunc: int) -> list[list[DistanceReport]]:
    """For each target, one report per prefix ``basis[:j]``, j = 1..len(basis), from one QR.

    Basis and targets are refitted to degree ``n_trunc``: members shorter
    than that are zero-padded, which is exact only for polynomials, so an
    h_k-type basis is generated at ``n_trunc`` directly.  Each report agrees
    with ``distance_to_span`` on the same prefix and target in its distance
    and its coefficients ``R[:j,:j]^-1 R[:j,m+i]``, from one inverse of R's
    leading m x m block.  The condition estimate of prefix j is the exact
    1-norm condition number of ``R[:j,:j]``, nondecreasing in j, so the
    rank gate runs once, on the whole basis, even with no targets.  The
    residual norms of every prefix are re-checked together as ``target -
    basis @ C`` over 2048-row blocks of the basis; column j - 1 of the
    upper-triangular m x m matrix C holds the coefficients of prefix j.
    The engine holds one (n_trunc + 1) x (m + r) matrix, factored in place,
    and copies each block of the re-check out of the members' own
    coefficients, so no refitted copy of a member is made.

    Raises:
        ValueError: when the basis is empty or ``n_trunc`` is negative.
        DegenerateBasis: when the basis has more members than coefficients,
            when R has an exact zero on its diagonal (a zero member), or
            when the reciprocal condition of the whole basis is below
            RANK_TOLERANCE.
        ResidualMismatch: when a residual re-check disagrees with its
            distance.
    """
    return _nested_reports(_series_rows(basis, targets, n_trunc), n_trunc + 1, len(basis))


def baez_duarte_sequence(k_max: int, n_trunc: int) -> list[tuple[int, DistanceReport]]:
    """Distances d_K from the constant 1 to span{h_2, ..., h_K} for K = 2..k_max.

    The spans are nested, so the sequence is nonincreasing and one QR of
    [h_2 .. h_kmax | 1] gives all of it; each entry carries its full report
    so conditioning can be inspected alongside the distance.  That QR runs
    in place on the one float64 matrix, 8 * (n_trunc + 1) * k_max bytes,
    and the residual re-check regenerates its rows 2048 at a time from the
    same harmonic table.
    """
    _check_hk_args(k_max, n_trunc)

    def columns() -> Iterator[Column]:
        h = _harmonic_table(n_trunc)
        yield from (partial(_hk_coeffs, h, k) for k in range(2, k_max + 1))
        yield partial(_floor_runs, np.ones(1), 1)  # the target, the constant 1

    rows = _augmented(n_trunc, k_max - 1, k_max, [], columns(), "the d_K matrix")
    reports = _nested_reports(rows, n_trunc + 1, k_max - 1)[0]
    return list(zip(range(2, k_max + 1), reports))


def _augmented(n_trunc: int, m: int, width: int, sources: list[CoeffSeries],
               columns: Iterable[Column], name: str = "a matrix") -> RowSource:
    """Row source of the ``width`` columns [b_1 .. b_m | t_1 .. t_r] at degree ``n_trunc``.

    ``rows(lo, hi)`` zero-fills each column past what its generator gives
    (exact truncation and padding), complex when any of ``sources`` is.  Its
    first call, once its block is allocated, draws ``columns``; every refusal
    (empty basis, negative degree, size past numpy's limit, m > N + 1) is earlier.
    """
    if m == 0:
        raise ValueError("basis must be nonempty")
    _check_valid_degree(n_trunc)
    dtype = np.dtype(complex if any(np.iscomplexobj(s.coeffs) for s in sources) else float)
    _check_array_bytes(dtype.itemsize * (n_trunc + 1) * width,
                       f"{name} of {n_trunc + 1} x {width} {dtype} entries")
    if m > n_trunc + 1:
        raise DegenerateBasis(f"{m} basis members exceed {n_trunc + 1} coefficients")
    columns, drawn = iter(columns), []

    def rows(lo: int, hi: int) -> np.ndarray:
        block = np.zeros((hi - lo, width), dtype=dtype, order="F")
        drawn.extend(columns)  # all of them on the first call, none after
        for i, column in enumerate(drawn):
            part = column(lo, hi)
            block[: len(part), i] = part
        return block

    return rows


def _series_rows(basis: list[CoeffSeries], targets: list[CoeffSeries],
                 n_trunc: int) -> RowSource:
    """Row source of [b_1 .. b_m | t_1 .. t_r], each column its member's own coefficients."""
    members = [*basis, *targets]
    return _augmented(n_trunc, len(basis), len(members), members,
                      (partial(_floor_runs, s.coeffs, 1) for s in members))


def _condition_estimate(r: np.ndarray) -> float:
    """Diagonal ratio of a pivoted R factor, after the rank gate."""
    diag = np.abs(np.diag(r))
    if diag[0] == 0.0 or diag[-1] < RANK_TOLERANCE * diag[0]:
        raise DegenerateBasis(
            f"basis is numerically rank deficient: pivoted diagonal ratio "
            f"{diag[-1] / diag[0] if diag[0] else 0.0:.3e} below {RANK_TOLERANCE:.0e}"
        )
    return float(diag[0] / diag[-1])


def _nested_reports(rows: RowSource, n_rows: int, m: int) -> list[list[DistanceReport]]:
    """For each t_i of [b_1 .. b_m | t_1 .. t_r], one report per prefix b_1..b_j.

    ``rows(lo, hi)`` gives rows lo..hi-1 of that matrix, column-major.  The
    engine builds the whole matrix, ``rows(0, n_rows)``, and factors it in
    place; the residual re-check reads the unfactored rows from ``rows``
    again, bit for bit.  Its builder, :func:`_augmented`, has refused m > n_rows.
    """
    aug = rows(0, n_rows)
    cols = aug.shape[1]
    # Summed elementwise, not by numpy's BLAS ``dot``: see the module docstring.
    target_norms = [float(np.sqrt(np.sum(np.abs(aug[:, j]) ** 2))) for j in range(m, cols)]
    # ?geqrt overwrites ``aug`` with R on and above the diagonal: f2py
    # copies no column-major array of the routine's own dtype.
    (geqrt,) = scipy.linalg.lapack.get_lapack_funcs(("geqrt",), (aug,))
    factored, _, _ = geqrt(min(_QR_BLOCK_COLUMNS, n_rows, cols), aug, overwrite_a=1)
    # With fewer rows than columns, R is padded with zero rows; as m <=
    # n_rows, they lie below the basis block, in the target columns only.
    r = np.zeros((cols, cols), dtype=aug.dtype)
    r[: min(n_rows, cols)] = np.triu(factored[:cols])
    # R is all the engine reads of the factored matrix: the re-check's row
    # blocks reuse its memory instead of sitting beside it.
    del aug, factored
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
    if cols == m:
        return []
    # Column j - 1 of coeffs[i] is R[:j,:j]^-1 R[:j,m+i]: the first j
    # columns of R^-1, weighted by R[:j,m+i] and summed.
    coeffs = [np.cumsum(rinv * r[:m, j], axis=1) for j in range(m, cols)]
    checks = _residual_norms(rows, n_rows, coeffs)
    return [
        [_checked_report(float(distances[j, i]), c[:j, j - 1], float(check[j - 1]),
                         target_norm, float(condition[j - 1]))
         for j in range(1, m + 1)]
        for i, (c, check, target_norm) in enumerate(zip(coeffs, checks, target_norms))
    ]


def _residual_norms(rows: RowSource, n_rows: int, coeffs: list[np.ndarray]) -> np.ndarray:
    """||t_i - [b_1 .. b_m] @ coeffs[i][:, j]|| for every target i and column j.

    Reads each block of ``rows`` once and runs one scipy ``?gemm`` per
    target on it, into one buffer that then holds the squared moduli.
    """
    m = coeffs[0].shape[0]
    (gemm,) = scipy.linalg.blas.get_blas_funcs(("gemm",), coeffs)
    sum_sq = np.zeros((len(coeffs), m))
    for lo in range(0, n_rows, _RESIDUAL_BLOCK_ROWS):
        hi = min(lo + _RESIDUAL_BLOCK_ROWS, n_rows)
        block = rows(lo, hi)
        for i, c in enumerate(coeffs):
            # f2py copies the broadcast target into a column-major buffer,
            # and ?gemm writes the residuals over it.
            start = np.broadcast_to(block[:, m + i, None], (hi - lo, m))
            res = gemm(-1.0, block[:, :m], c, beta=1.0, c=start)
            # np.square(np.abs(x)) rounds as np.abs(x) ** 2; a real |x| fits in res.
            sq = np.abs(res, out=res if res.dtype.kind == "f" else None)
            sum_sq[i] += np.sum(np.square(sq, out=sq), axis=0)
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

    Each target gets the last of its nested reports on the orbit W_n f,
    n = 1..n_max, from one factorization of [W_1 f .. W_m f | t_1 .. t_r]
    at degree ``n_trunc`` (exact padding for a polynomial f, the intended
    use), all complex128 when f or any target is complex.  Row j of W_n f
    is read straight from f as f_(floor(j/n)), so no orbit member is built;
    the reports are those of :func:`nested_distances` on the explicit
    orbit, bit for bit.  The orbit passes one rank gate, even with no
    targets, or :class:`DegenerateBasis` is raised.  An orbit longer than
    n_trunc + 1, or a matrix past numpy's array size limit
    (:class:`IndexOutOfRange`), is refused before any column is read.
    """
    if n_max < 2:
        raise IndexOutOfRange(f"n_max must be >= 2, got {n_max}")
    _check_valid_degree(n_trunc)
    if n_max > n_trunc + 1:
        raise DegenerateBasis(f"an orbit of {n_trunc + 2} or more members is rank deficient "
                              f"in {n_trunc + 1} coefficients")
    orbit = (partial(_floor_runs, f.coeffs, n) for n in range(1, n_max + 1))
    plain = (partial(_floor_runs, t.coeffs, 1) for t in targets)
    rows = _augmented(n_trunc, n_max, n_max + len(targets), [f, *targets], chain(orbit, plain))
    return [reports[-1] for reports in _nested_reports(rows, n_trunc + 1, n_max)]
