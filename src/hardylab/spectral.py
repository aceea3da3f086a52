"""Explicit adjoint eigenvectors, spectral-disk scans, and shift-decay diagnostics.

For every lam with |lam| < sqrt(n) the index-n adjoint has the explicit
eigenvector with coefficient 1 at degree 0 and the constant value
(lam/n)^l * (lam-1)/(n-1) on the whole degree band [n^l, n^{l+1}).  The
band structure makes the block-sum equation exact at any truncation that
ends on a power of n, which is why truncation levels are specified as the
exponent L (series built through degree n^L - 1): a ragged cut would break
the outermost block identity.

One builder, ``_eigen_bands``, makes the band values, one row per point.
:func:`spectral_disk_scan` works on them alone and returns a columnar
:class:`DiskScanReport`; its oracle :func:`adjoint_eigenvector` expands one
row to the full vector and keeps its own adjoint and norms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

import numpy as np

from .errors import IndexOutOfRange, OutsideSpectralBall
from .semigroup import weighted_dilation_adjoint
from .series import CoeffSeries, norm

__all__ = [
    "EigenPair",
    "adjoint_eigenvector",
    "eigenvector_norm_sq",
    "level_for_degree",
    "DiskScanReport",
    "spectral_disk_scan",
    "shift_decay",
]


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


def _checked_points(n: int, lams, level: int) -> np.ndarray:
    """``lams`` as a 1-d complex array, once index, every point and the level are valid."""
    lams = np.asarray(lams, dtype=np.complex128).reshape(-1)
    if n < 2:
        raise IndexOutOfRange(f"adjoint eigenvectors exist for index >= 2, got {n}")
    # np.hypot rounds |lam| as Python's abs does; np.abs differs in the last bit
    inside = np.less(np.hypot(lams.real, lams.imag), math.sqrt(n))
    if np.count_nonzero(inside) < len(lams):
        raise OutsideSpectralBall(f"|lam| = {abs(lams[inside.argmin()]):.6g} is not inside "
                                  f"the open ball of radius sqrt({n})")
    # n^1024 overflows for every n >= 2, so n**level stays a small power
    if not 1 <= level < 1024 or n**level > sys.float_info.max:
        raise IndexOutOfRange(f"truncation level must be >= 1 with {n}^level a float, got {level}")
    return lams


def _eigen_bands(n: int, lams, level: int) -> np.ndarray:
    """Band values b_0 .. b_{level-1} of the eigenvectors at ``lams``, one row per point."""
    lams = _checked_points(n, lams, level)
    # Python complex arithmetic: numpy's complex / and * differ in the last bit
    rows = [list(accumulate(repeat(lam / n, level - 1), mul, initial=(lam - 1) / (n - 1)))
            for lam in lams.tolist()]
    return np.array(rows, dtype=np.complex128).reshape(len(lams), level)


def _band_vectors(n: int, lams, level: int) -> tuple[np.ndarray, list[int]]:
    """Eigenvectors as columns [1, b_0 .. b_{level-1}] and each column's entry count."""
    bands = _eigen_bands(n, lams, level)
    vector = np.concatenate([np.ones((len(bands), 1)), bands], axis=1)
    return vector, [1] + [n**ell * (n - 1) for ell in range(level)]


def _eigen_rows(n: int, lams, level: int) -> np.ndarray:
    """The eigenvectors at ``lams`` as the rows of a complex (len(lams), n^level) array."""
    return np.repeat(*_band_vectors(n, lams, level), axis=1)


def _residual_bands(n: int, lams: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """adjoint(v) - lam*v by window band, each block summed left to right as on full rows."""
    res = vector[:, 1:].copy()  # the first entry of each block: v_0 = 1, then b_(l+1)
    res[:, 0] = 1.0
    for _ in range(n - 1):
        res += vector[:, 1:]
    return res - lams[:, None] * vector[:, :-1]


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
    lams = _checked_points(n, lam, level)
    # libm hypot and pow round |lam| and its square as Python's abs and ** do
    d = lams - 1
    q = np.float_power(np.hypot(lams.real, lams.imag), 2) / n
    scale = np.float_power(np.hypot(d.real, d.imag), 2) / (n - 1)
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
        # float_power squares with libm pow, as Python's ** does; x*x differs
        v, c = np.float_power(self.vector_norm, 2), np.float_power(self.norm_closed_form, 2)
        return float(np.max(np.abs(v - c) / c))

    @property
    def all_norms_finite(self) -> bool:
        return bool(np.isfinite(self.residual).all() and np.isfinite(self.vector_norm).all())


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

    The eigenvectors and their residual vectors are constant on the bands
    [n^l, n^(l+1)), so the scan works on band values, in O(points * level)
    memory and O(points * level * n) time: each residual entry sums its
    block of n values as on full rows (equal to
    :func:`adjoint_eigenvector`'s for n <= 3), and each norm is
    sqrt(sum of count * |value|^2), within an ulp of the exactly rounded norm.
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
    turns = [np.exp(2j * np.pi * t / angles_count) for t in range(angles_count)]
    lams = np.array([r * sqrt_n * turn for r in radii for turn in turns])
    vector, counts = _band_vectors(n, lams, level)
    weights = np.array(counts, dtype=np.float64)
    residual = _band_norms(_residual_bands(n, lams, vector), weights[:-1])
    closed = np.sqrt(eigenvector_norm_sq(n, lams, level))
    return DiskScanReport(n, level, lams, residual, _band_norms(vector, weights), closed)


def _band_norms(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return np.sqrt((weights * (values.real**2 + values.imag**2)).sum(axis=1))


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
