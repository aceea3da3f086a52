"""Least-squares distances from a target series to finite function spans.

This is the quantitative engine of the laboratory: distances from the
constant 1 to growing spans of the h_k family (the Nyman-Beurling /
Baez-Duarte style distance sequence in the disk model) and cyclicity
experiments for the weighted dilation orbit of a given series.

Every family of nested spans (the d_K sequence, the cyclicity scans, any
basis given as series) comes from one engine and one report path: one
upper-triangular factor R of the column-major matrix A = [b_1 .. b_m |
t_1 .. t_r], the basis followed by every target.  The distance from t_i
to span{b_1..b_j} is the norm of R's column m + i below row j (Golub &
Van Loan, Matrix Computations, sec. 5.3).  The leading blocks of R^-1 are
the inverses of the leading blocks of R, so one inversion of R's basis
block gives the coefficients of every prefix and target and the exact
1-norm condition number of every R[:j,:j], and the rank gate runs once,
on that block.  The engine's one input is a row source ``rows(lo, hi,
out)``, which writes any block of rows of A bit for bit.  Its one
builder, :func:`_augmented`, takes one column generator per column: the
members themselves for :func:`nested_distances`, the h_k of one harmonic
table for :func:`baez_duarte_sequence`, and W_n f read straight from f's
coefficients for :func:`cyclicity_scan`, which builds no orbit member.

R comes from one of two factor sources.  :func:`_qr_factor` builds the
whole of A and factors it in place with LAPACK's recursive compact-WY
Householder QR ``?geqrt`` (Elmroth & Gustavson), level-3 BLAS throughout
(``?geqrf``, behind ``scipy.linalg.qr``, falls back to the unblocked
level-2 ``?geqr2`` below 128 columns); it holds one (N+1) x (m+r) matrix
and frees it once R's top rows are copied out.  :func:`_gram_factor`
never builds A: one ``?syrk`` (``?herk`` if complex) per 8192-row block
sums the Gram matrix G = A^H A, ``?potrf`` factors its basis block as
R11^H R11, and R's target rows are R11^-H G[:m,m:].  The Gram squares
the condition number, so Cholesky resolves no rank below sqrt(u) and no
distance below about sqrt(u) ||t||: a target inside the span (h_2 + h_3/2
over [h_2, h_3, h_4] at N = 512) gets a Gram distance of 4.9e-8 that
fails its residual re-check, where QR gives 7.9e-17, and a cyclicity
scan (f = 1 - z/2, n_max = 256) drifts 2.0e-11 relative at d = 1.1e-3,
growing like 1/d.  So the series callers, :func:`nested_distances` and
:func:`cyclicity_scan`, keep QR, and :func:`baez_duarte_sequence` takes
the Gram: d_K stays above 0.08, R's condition figure is 171 at K = 50,
887 at K = 200 and 8977 at K = 1000, and the two sources agree to
6.7e-14 (K = 50, N = 2^14), 2.1e-13 (K = 200, N = 2^17) and 2.2e-13
(K = 1000, N = 2^16) relative.  The rank gate applies to the matrix that
was factored: cond(R) for A, cond(R)^2 for G.  When m = N + 1 the basis
spans every row, and the Gram's squared distance to the whole span is
set to exactly 0, as QR's zero-padded R gives it.  For d_K the Gram cuts
the memory from 8·(N+1)·K bytes to O(K^2) and one block: at K = 200,
N = 2^17, a run's resident memory grows by 204 MiB in 1.84 s on QR, and
by 17.4 MiB in 0.39 s on the Gram; N = 2^20 takes 2.6 s and 31.5 MiB,
where A alone would take 1.6 GiB (2-core x86-64, OpenBLAS).

Each target's residual norms are re-checked in its own pass over
8192-row blocks, read from the row source again: from the coefficients
and the original rows, never from Q, R or G.  The prefix coefficients
form an upper-triangular C, so ``?trmm`` overwrites a block's basis
columns B with B C in place and needs no second buffer: every pass over
the rows reads into one block per engine call, since glibc trims the
heap once such a block is freed and a block allocated afresh faults its
pages in again.  Every BLAS call of the engine goes to scipy's OpenBLAS
(``?geqrt``, ``?syrk``, ``?potrf``, ``?trtrs``, ``?trmm``): the numpy and
scipy wheels each bundle their own OpenBLAS with its own thread pool, and
a numpy BLAS call right after a scipy one wakes the second pool while the
first still spins, three busy threads on two cores.  Pivoted QR
(:func:`distance_to_span`) is kept only as the oracle of that engine.
Every report carries the optimal coefficients, an independently
recomputed residual norm (enforced to agree with the distance), and a
condition figure so a genuine distance plateau can be told apart from
numerical rank collapse.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property, partial
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
# Rows per block of the Gram pass (one scipy ``?syrk`` per block) and of the
# residual re-check (one scipy ``?trmm`` per block and target; never numpy's
# ``@``, which runs on numpy's own OpenBLAS pool): at K = 50 the block of
# rows is 3.1 MiB, the engine's whole workspace.
_BLOCK_ROWS = 8192
# Column block size of the engine's ``?geqrt``, capped by the matrix shape.
_QR_BLOCK_COLUMNS = 32
# column(lo, hi): at most hi - lo entries of one matrix column, from row lo on.
Column = Callable[[int, int], np.ndarray]


@dataclass(frozen=True)
class DistanceReport:
    """Outcome of one least-squares projection.

    ``distance`` is the residual norm read from a triangular factor R, of
    the matrix itself (QR) or of its Gram matrix (Cholesky, for the d_K
    sequence); ``residual_norm_check`` recomputes it from the coefficients
    by direct arithmetic on the basis and agrees to 1e-10 * max(1,
    ||target||), or the report is never made (:class:`ResidualMismatch`).
    ``condition_estimate`` is, in the reports of the nested engine, the
    exact 1-norm condition number of the basis block of R, from either
    source, which lies within a factor j (the number of basis members) of
    the 2-norm condition number of the basis; in the reports of the oracle
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
    basis @ C`` over 8192-row blocks of the basis; column j - 1 of the
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
    return _nested_reports(_series_rows(basis, targets, n_trunc), _qr_factor)


def baez_duarte_sequence(k_max: int, n_trunc: int) -> list[tuple[int, DistanceReport]]:
    """Distances d_K from the constant 1 to span{h_2, ..., h_K} for K = 2..k_max.

    The spans are nested, so the sequence is nonincreasing and one
    triangular factor of [h_2 .. h_kmax | 1] gives all of it; each entry
    carries its full report so conditioning can be inspected alongside the
    distance.  That factor is the Cholesky factor of the Gram matrix,
    summed over 8192-row blocks regenerated from one harmonic table (see
    the module docstring), so the engine holds O(k_max^2 + 8192 k_max)
    numbers, never the 8 * (n_trunc + 1) * k_max bytes of the matrix; the
    residual re-check reads the same blocks again, into the same memory.

    Raises:
        DegenerateBasis: when k_max - 1 > n_trunc + 1, when a Cholesky pivot
            of the Gram matrix is not positive, or when the reciprocal of
            cond(R)^2, the Gram's figure, is below RANK_TOLERANCE.
    """
    _check_hk_args(k_max, n_trunc)

    def columns() -> Iterator[Column]:
        h = _harmonic_table(n_trunc)
        yield from (partial(_hk_coeffs, h, k) for k in range(2, k_max + 1))
        yield partial(_floor_runs, np.ones(1), 1)  # the target, the constant 1

    rows = _augmented(n_trunc, k_max - 1, k_max, [], columns(), "the d_K matrix")
    reports = _nested_reports(rows, _gram_factor)[0]
    return list(zip(range(2, k_max + 1), reports))


@dataclass
class RowSource:
    """The rows of [b_1 .. b_m | t_1 .. t_r], ``width`` = m + r columns, one generator each.

    ``rows(lo, hi, out)`` writes rows lo..hi-1 into ``out``, a column-major
    (hi - lo) x width array, or a new one, and returns it: each column's
    generator gives its first entries, and the rest of the column is zero
    (exact truncation and padding).  The first call draws ``columns``.
    """

    n_rows: int
    m: int
    width: int
    dtype: np.dtype
    columns: Iterable[Column]

    @cached_property
    def _drawn(self) -> list[Column]:
        return list(self.columns)

    @cached_property
    def _work(self) -> np.ndarray:
        # One workspace for every pass; the module docstring says why.
        return np.empty(min(_BLOCK_ROWS, self.n_rows) * self.width, self.dtype)

    def __call__(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty((hi - lo, self.width), self.dtype, order="F")
        for i, column in enumerate(self._drawn):
            part = column(lo, hi)
            out[: len(part), i] = part
            out[len(part) :, i] = 0
        return out

    def blocks(self) -> Iterator[np.ndarray]:
        """Each block of up to ``_BLOCK_ROWS`` rows, a column-major view of one workspace.

        Every pass over the row source reuses it; a caller may overwrite a block.
        """
        for lo in range(0, self.n_rows, _BLOCK_ROWS):
            size = min(_BLOCK_ROWS, self.n_rows - lo)
            block = self._work[: size * self.width].reshape((size, self.width), order="F")
            yield self(lo, lo + size, block)


def _augmented(n_trunc: int, m: int, width: int, sources: list[CoeffSeries],
               columns: Iterable[Column], name: str = "a matrix") -> RowSource:
    """Row source of the ``width`` columns [b_1 .. b_m | t_1 .. t_r] at degree ``n_trunc``.

    Complex when any of ``sources`` is.  Every refusal (empty basis,
    negative degree, size past numpy's limit, m > N + 1) comes before any
    column is drawn.
    """
    if m == 0:
        raise ValueError("basis must be nonempty")
    _check_valid_degree(n_trunc)
    dtype = np.dtype(complex if any(np.iscomplexobj(s.coeffs) for s in sources) else float)
    _check_array_bytes(dtype.itemsize * (n_trunc + 1) * width,
                       f"{name} of {n_trunc + 1} x {width} {dtype} entries")
    if m > n_trunc + 1:
        raise DegenerateBasis(f"{m} basis members exceed {n_trunc + 1} coefficients")
    return RowSource(n_trunc + 1, m, width, dtype, columns)


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


# factor(rows) -> (R11, R12, s, p): the triangular factor R of the row
# source's matrix, split as its basis block R[:m,:m] and the target rows
# R[:m,m:], with s[0, i] the squared distance from t_i to the whole span;
# cond(R)^p is the condition of the matrix that was factored.
Factor = Callable[[RowSource], tuple[np.ndarray, np.ndarray, np.ndarray, int]]


def _qr_factor(rows: RowSource) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """R from ``?geqrt`` of the whole matrix, built from ``rows`` and factored in place."""
    n_rows, m, cols = rows.n_rows, rows.m, rows.width
    aug = rows(0, n_rows)
    # ?geqrt overwrites ``aug`` with R on and above the diagonal: f2py
    # copies no column-major array of the routine's own dtype.
    (geqrt,) = scipy.linalg.lapack.get_lapack_funcs(("geqrt",), (aug,))
    factored, _, _ = geqrt(min(_QR_BLOCK_COLUMNS, n_rows, cols), aug, overwrite_a=1)
    # With fewer rows than columns, R is padded with zero rows; as m <=
    # n_rows, they lie below the basis block, in the target columns only.
    r = np.zeros((cols, cols), dtype=aug.dtype)
    r[: min(n_rows, cols)] = np.triu(factored[:cols])
    # s sums the rows below the basis from the bottom up, the order in
    # which the prefix distances go on to sum the rows above.
    return r[:m, :m], r[:m, m:], np.cumsum(np.abs(r[m:, m:][::-1]) ** 2, axis=0)[-1:], 1


def _gram_factor(rows: RowSource) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """R from ``?potrf`` of the Gram matrix G = A^H A, summed over the blocks of ``rows``.

    R11 is the Cholesky factor of G[:m,:m], R12 = R11^-H G[:m,m:], and s is
    G's target diagonal less the squared column norms of R12, clamped at 0;
    it is exactly 0 when m = n_rows, where the basis spans every row.

    Raises:
        DegenerateBasis: when a pivot of the Cholesky factorization is not
            positive.
    """
    m, herm = rows.m, rows.dtype.kind == "c"
    (rank_k,) = scipy.linalg.blas.get_blas_funcs(("herk" if herm else "syrk",), dtype=rows.dtype)
    g = np.zeros((rows.width, rows.width), rows.dtype, order="F")
    # The upper triangle of G += block^H block, in place; trans=2 is A^H A.
    for block in rows.blocks():
        g = rank_k(1.0, block, beta=1.0, c=g, trans=2, overwrite_c=1)
    potrf, trtrs = scipy.linalg.lapack.get_lapack_funcs(("potrf", "trtrs"), (g,))
    r11, info = potrf(g[:m, :m])
    if info > 0:
        raise DegenerateBasis(
            f"basis is numerically rank deficient: reciprocal condition below "
            f"{RANK_TOLERANCE:.0e}, Cholesky pivot {info} of its Gram matrix is not positive"
        )
    r12, _ = trtrs(r11, g[:m, m:], trans=2)
    s = np.maximum(np.diag(g).real[m:] - np.sum(np.abs(r12) ** 2, axis=0), 0.0)
    if m == rows.n_rows:  # the basis spans every row, as QR's zero-padded R says
        s[:] = 0.0
    return r11, r12, s[None], 2


def _nested_reports(rows: RowSource, factor: Factor) -> list[list[DistanceReport]]:
    """For each t_i of [b_1 .. b_m | t_1 .. t_r], one report per prefix b_1..b_j.

    ``factor`` gives R from the row source (:func:`_qr_factor` or
    :func:`_gram_factor`); the rank gate, R^-1, the condition figures, the
    prefix distances and the coefficients are read from it alike.  The
    residual re-check reads the unfactored rows from ``rows`` again, bit for
    bit, so it is independent of both R and the Gram matrix.  The builder
    of ``rows``, :func:`_augmented`, has refused m > n_rows.
    """
    block, r12, s, power = factor(rows)
    m = rows.m
    # Only the basis block is gated and inverted: a zero, repeated or
    # in-span target leaves zeros in its own rows of R.
    if not np.all(np.diag(block)):
        raise DegenerateBasis("basis is rank deficient: R has an exact zero on its diagonal")
    # The leading blocks of R^-1 are the inverses of the leading blocks of
    # R, and both are upper triangular, so column sums over the first j
    # columns give the 1-norms of every R[:j,:j] and its inverse at once.
    # A condition number is at least 1; one member's |r| |1/r| may round below.
    rinv = scipy.linalg.solve_triangular(block, np.eye(m))
    condition = np.maximum(np.maximum.accumulate(np.abs(block).sum(axis=0))
                           * np.maximum.accumulate(np.abs(rinv).sum(axis=0)), 1.0)
    # The figure is nondecreasing in j: if any prefix fails the gate, the
    # whole basis does.  It is gated on the matrix that was factored: a
    # Gram matrix squares the condition of R.
    figure = condition[-1] ** power
    if not figure * RANK_TOLERANCE <= 1.0:
        raise DegenerateBasis(
            f"basis is numerically rank deficient: reciprocal condition "
            f"{1.0 / figure:.3e} below {RANK_TOLERANCE:.0e}"
        )
    # distances[j, i] = sqrt(s_i + sum_{l >= j} |R[l, m + i]|^2), the
    # distance from t_i to span{b_1..b_j}; distances[0, i] is ||t_i||.
    distances = np.sqrt(np.cumsum(np.vstack([np.abs(r12) ** 2, s])[::-1], axis=0))[::-1]
    # Column j - 1 of coeffs[i] is R[:j,:j]^-1 R[:j,m+i]: the first j
    # columns of R^-1, weighted by R[:j,m+i] and summed.
    coeffs = [np.cumsum(rinv * r12[:, i], axis=1) for i in range(r12.shape[1])]
    checks = _residual_norms(rows, coeffs)
    return [
        [_checked_report(float(distances[j, i]), c[:j, j - 1], float(check[j - 1]),
                         float(distances[0, i]), float(condition[j - 1]))
         for j in range(1, m + 1)]
        for i, (c, check) in enumerate(zip(coeffs, checks))
    ]


def _residual_norms(rows: RowSource, coeffs: list[np.ndarray]) -> np.ndarray:
    """||t_i - [b_1 .. b_m] @ coeffs[i][:, j]|| for every target i and column j.

    Each coeffs[i] is upper triangular, so one scipy ``?trmm`` per block
    overwrites its basis columns B with B @ coeffs[i], t_i is subtracted
    there in place, and each target reads the blocks of ``rows`` again.
    """
    m = rows.m
    (trmm,) = scipy.linalg.blas.get_blas_funcs(("trmm",), coeffs)
    sum_sq = np.zeros((len(coeffs), m))
    for i, c in enumerate(coeffs):
        # c is column-major, a cumsum of R^-1, so f2py hands ?trmm both operands uncopied.
        for block in rows.blocks():
            out = trmm(1.0, c, block[:, :m], side=1, overwrite_b=1)
            np.subtract(block[:, m + i, None], out, out=out)
            # np.square(np.abs(x)) rounds as np.abs(x) ** 2; a real |x| fits in out.
            sq = np.abs(out, out=out if out.dtype.kind == "f" else None)
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
    return [reports[-1] for reports in _nested_reports(rows, _qr_factor)]
