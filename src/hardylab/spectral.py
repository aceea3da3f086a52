"""Explicit adjoint eigenvectors, spectral-disk scans, and shift-decay diagnostics.

For every lam with |lam| < sqrt(n) the index-n adjoint has the explicit
eigenvector with coefficient 1 at degree 0 and the constant value
(lam/n)^l * (lam-1)/(n-1) on the whole degree band [n^l, n^{l+1}).  The
band structure makes the block-sum equation exact at any truncation that
ends on a power of n, which is why truncation levels are specified as the
exponent L (series built through degree n^L - 1): a ragged cut would break
the outermost block identity.

One builder, ``_eigen_rows``, makes these vectors as rows of a complex
array.  :func:`spectral_disk_scan` calls it per row block of at most 1 MiB
and returns a columnar :class:`DiskScanReport`.  Its oracle
:func:`adjoint_eigenvector` takes one row but keeps its own adjoint
(:func:`~hardylab.semigroup.weighted_dilation_adjoint`) and its own norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, OutsideSpectralBall
from .semigroup import weighted_dilation_adjoint
from .series import CoeffSeries, array_norm, norm

__all__ = [
    "EigenPair",
    "adjoint_eigenvector",
    "eigenvector_norm_sq",
    "level_for_degree",
    "DiskScanReport",
    "spectral_disk_scan",
    "shift_decay",
]

# Upper bound on the bytes of one row block of the batched disk scan.
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class EigenPair:
    """An explicit eigenvector of the index-n adjoint at eigenvalue ``lam``.

    ``vector`` is truncated at degree n^level - 1; ``residual`` is the norm
    of (adjoint applied to vector) - lam*vector over the adjoint's valid
    window (degrees 0 .. n^{level-1} - 1), where the construction satisfies
    the block equation exactly.  ``tail_mass`` is the norm of the vector's
    outermost degree band [n^{level-1}, n^level), the part whose block
    equation the truncation cannot certify.
    """

    n: int
    lam: complex
    level: int
    vector: CoeffSeries
    residual: float
    tail_mass: float


def _check_level(level: int) -> None:
    if level < 1:
        raise IndexOutOfRange(f"truncation level must be >= 1, got {level}")


def _check_ball(n: int, lam: complex) -> None:
    if n < 2:
        raise IndexOutOfRange(f"adjoint eigenvectors exist for index >= 2, got {n}")
    if not abs(lam) < np.sqrt(n):
        raise OutsideSpectralBall(
            f"|lam| = {abs(lam):.6g} is not inside the open ball of radius sqrt({n})"
        )


def _eigen_rows(n: int, lams, level: int) -> np.ndarray:
    """The eigenvectors at ``lams`` as the rows of a complex (len(lams), n^level) array."""
    for lam in lams:
        _check_ball(n, lam)
    _check_level(level)
    bands = np.empty((len(lams), level), dtype=np.complex128)
    for i, lam in enumerate(map(complex, lams)):
        band_value = (lam - 1) / (n - 1)
        for ell in range(level):
            bands[i, ell] = band_value
            band_value *= lam / n
    rows = np.empty((len(lams), n**level), dtype=np.complex128)
    rows[:, 0] = 1.0
    for ell in range(level):
        rows[:, n**ell : n ** (ell + 1)] = bands[:, ell : ell + 1]
    return rows


def adjoint_eigenvector(n: int, lam: complex, level: int) -> EigenPair:
    """Construct the explicit adjoint eigenvector at ``lam``, |lam| < sqrt(n).

    Coefficients: 1 at degree 0, then (lam/n)^l * (lam-1)/(n-1) on the band
    [n^l, n^{l+1}) for l = 0..level-1.  Each length-n block of the result
    sums to lam times the coefficient it reports to, so the residual over
    the adjoint's window is at machine-precision scale.
    """
    v = _eigen_rows(n, [lam], level)[0]
    lam = complex(lam)
    vec = CoeffSeries(v)
    adj = weighted_dilation_adjoint(n, vec)
    window = n ** (level - 1)
    residual = float(np.linalg.norm(adj.coeffs - lam * v[:window]))
    tail_mass = float(np.linalg.norm(v[window:]))
    return EigenPair(n=n, lam=lam, level=level, vector=vec, residual=residual, tail_mass=tail_mass)


def eigenvector_norm_sq(n: int, lam: complex | np.ndarray, level: int) -> float | np.ndarray:
    """Closed form for the squared norm of :func:`adjoint_eigenvector`.

    Band l contributes n^l (n-1) entries of squared modulus
    |lam/n|^{2l} |lam-1|^2/(n-1)^2, i.e. (|lam-1|^2/(n-1)) * (|lam|^2/n)^l, so

        ||v||^2 = 1 + |lam-1|^2/(n-1) * sum_{l=0}^{level-1} (|lam|^2/n)^l.

    The geometric sum stays finite as level grows exactly when
    |lam| < sqrt(n); the power sum is evaluated termwise so near-unit
    ratios lose nothing to cancellation.  ``lam`` is a scalar (the result
    is a float) or a 1-d array of points (the result is an array, one
    entry per point, each equal to the scalar call at that point).
    """
    lams = [complex(x) for x in np.atleast_1d(lam)]
    for x in lams:
        _check_ball(n, x)
    _check_level(level)
    q = np.array([abs(x) ** 2 / n for x in lams])
    scale = np.array([abs(x - 1) ** 2 / (n - 1) for x in lams])
    norm_sq = 1.0 + scale * (q[:, None] ** np.arange(level)).sum(axis=1)
    return float(norm_sq[0]) if np.ndim(lam) == 0 else norm_sq


def level_for_degree(n: int, min_degree_count: int = 4096) -> int:
    """Smallest level L with n^L >= min_degree_count coefficients; needs n >= 2."""
    if n < 2:
        raise IndexOutOfRange(f"level_for_degree needs index >= 2, got {n}")
    level = 1
    while n**level < min_degree_count:
        level += 1
    return level


@dataclass(frozen=True)
class DiskScanReport:
    """Residuals and norm diagnostics for a polar grid inside the spectral ball.

    ``lam``, ``residual``, ``vector_norm`` and ``norm_closed_form`` are 1-d
    arrays with one entry per grid point, in grid order.
    """

    n: int
    level: int
    lam: np.ndarray
    residual: np.ndarray
    vector_norm: np.ndarray
    norm_closed_form: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(self.residual.max())

    @property
    def max_norm_mismatch(self) -> float:
        """Worst relative gap between summed and closed-form squared norms."""
        # Python-float powers: numpy's squares differ in the last bit at some points
        pairs = zip(self.vector_norm.tolist(), self.norm_closed_form.tolist())
        return max(abs(v**2 - c**2) / c**2 for v, c in pairs)

    @property
    def all_norms_finite(self) -> bool:
        return bool(np.isfinite(self.vector_norm).all())


def spectral_disk_scan(
    n: int,
    radii,
    angles_count: int,
    min_degree_count: int = 4096,
) -> DiskScanReport:
    """Construct eigenvectors on the polar grid lam = r*sqrt(n)*e^{i theta}.

    ``radii`` are relative to sqrt(n) and must satisfy r < 1 so every grid
    point stays inside the open spectral ball; ``angles_count`` equally
    spaced angles are used.  The truncation level is chosen so the vector
    carries at least ``min_degree_count`` coefficients.

    The grid is walked in blocks of rows, each block a complex
    (rows x n^level) array of at most 1 MiB from one ``_eigen_rows`` call.
    The adjoint block sums of the whole block are the sum of the n strided
    slices ``block[:, j::n]``, and each point's residual and vector norm are
    the ``np.linalg.norm`` formula (:func:`~hardylab.series.array_norm`) on
    its row, so the report columns equal the per-point
    :func:`adjoint_eigenvector` construction (bit for bit for n <= 3; for
    larger n the block sums may differ in summation order).
    ``norm_closed_form`` is one :func:`eigenvector_norm_sq` call on all the
    points.
    """
    if n < 2:
        raise IndexOutOfRange(f"spectral scan needs index >= 2, got {n}")
    if angles_count < 1:
        raise IndexOutOfRange(f"angles_count must be >= 1, got {angles_count}")
    radii = [float(r) for r in radii]
    if not radii:
        raise IndexOutOfRange("radii must be nonempty")
    for r in radii:
        if not 0.0 <= r < 1.0:
            raise OutsideSpectralBall(f"relative radius {r} is outside [0, 1)")
    level = level_for_degree(n, min_degree_count)
    sqrt_n = float(np.sqrt(n))
    lams = np.array([
        r * sqrt_n * np.exp(2j * np.pi * t / angles_count)
        for r in radii
        for t in range(angles_count)
    ])

    width = n**level
    window = n ** (level - 1)
    rows_per_block = max(1, _BLOCK_BYTES // (16 * width))
    residual, vector_norm = [], []
    for start in range(0, len(lams), rows_per_block):
        chunk = lams[start : start + rows_per_block]
        block = _eigen_rows(n, chunk, level)
        # adjoint block sums, one strided slice per position inside a block
        adj = block[:, 0:width:n].copy()
        for j in range(1, n):
            adj += block[:, j:width:n]
        adj -= chunk[:, None] * block[:, :window]  # now the residual vectors
        residual += map(array_norm, adj)
        vector_norm += map(array_norm, block)
    closed = np.sqrt(eigenvector_norm_sq(n, lams, level))
    return DiskScanReport(n, level, lams, np.array(residual), np.array(vector_norm), closed)


def shift_decay(n: int, f: CoeffSeries, m_max: int) -> list[float]:
    """Norm decay d_m = ||adjoint^m f|| / n^{m/2} for m = 1..m_max.

    The rescaled adjoint is a contraction, so the sequence never increases
    and tends to zero.  Each application shrinks the valid window by a
    factor of n; a window that empties before m_max raises
    TruncationTooShort (pad polynomial inputs to degree n^m_max - 1 to keep
    every term exact).
    """
    if n < 2:
        raise IndexOutOfRange(f"shift decay needs index >= 2, got {n}")
    if m_max < 1:
        raise IndexOutOfRange(f"m_max must be >= 1, got {m_max}")
    out = []
    g = f
    for m in range(1, m_max + 1):
        g = weighted_dilation_adjoint(n, g)
        out.append(norm(g) / n ** (m / 2))
    return out
