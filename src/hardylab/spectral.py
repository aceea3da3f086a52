"""Explicit adjoint eigenvectors, spectral-disk scans, and shift-decay diagnostics.

For every lam with |lam| < sqrt(n) the index-n adjoint has the explicit
eigenvector with coefficient 1 at degree 0 and the constant value
(lam/n)^l * (lam-1)/(n-1) on the whole degree band [n^l, n^{l+1}).  The
band structure makes the block-sum equation exact at any truncation that
ends on a power of n, which is why truncation levels are specified as the
exponent L (series built through degree n^L - 1): a ragged cut would break
the outermost block identity.

:func:`spectral_disk_scan` works on the band values alone, one row per
point, and sums each residual block in closed form, in O(points * level)
time and memory whatever n.  It returns a columnar :class:`DiskScanReport`.
``_eigen_bands`` is the one builder of those values: a table of level + 1
columns, one row per point, in float64 arrays that round as CPython's
complex arithmetic does.  :func:`adjoint_eigenvector` and the spectral
identity suite expand rows of the same table to full vectors in
``_eigenvectors``, which takes their adjoint and residuals in one call
each; the per-point Python complex recurrence is kept in
``tests/oracles.py`` as the independent reference.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, OutsideSpectralBall
from .semigroup import weighted_dilation_adjoint, weighted_dilation_adjoint_array
from .series import CoeffSeries, _check_array_bytes, _row_norms, array_norm, norm

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


def _checked_level(n: int, level: int) -> None:
    """Raise unless n >= 2 and 1 <= level with n^level a finite float."""
    if n < 2:
        raise IndexOutOfRange(f"adjoint eigenvectors exist for index >= 2, got {n}")
    if n > sys.float_info.max:  # named by its size: str(n) may exceed Python's digit limit
        raise IndexOutOfRange(f"truncation level must be >= 1 with n^level a float, "
                              f"got an index of {n.bit_length()} bits")
    # n^1024 overflows for every n >= 2, so n**level stays a small power
    if not 1 <= level < 1024 or n**level > sys.float_info.max:
        raise IndexOutOfRange(f"truncation level must be >= 1 with {n}^level a float, got {level}")


def _checked_points(n: int, lams, level: int) -> np.ndarray:
    """``lams`` as a 1-d complex array, once index, level and every point are valid."""
    lams = np.asarray(lams, dtype=np.complex128).reshape(-1)
    _checked_level(n, level)
    # np.hypot rounds |lam| as Python's abs does; np.abs differs in the last bit
    inside = np.less(np.hypot(lams.real, lams.imag), math.sqrt(n))
    if np.count_nonzero(inside) < len(lams):
        raise OutsideSpectralBall(f"|lam| = {abs(lams[inside.argmin()]):.6g} is not inside "
                                  f"the open ball of radius sqrt({n})")
    return lams


def _eigen_bands(n: int, lams, level: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The checked ``lams``, the eigenvectors' band table, and each column's entry count.

    Row i of the table is [1, b_0 .. b_(level-1)] at ``lams[i]``: the value
    at degree 0, then the values on the bands [n^l, n^(l+1)), whose entry
    counts are 1 then n^l (n-1).  b_0 = (lam-1)/(n-1) and b_l = b_(l-1) *
    (lam/n), each rounded as CPython's complex / and * round them: numpy's
    complex / and * fuse multiply-adds and differ in the last bit.
    """
    lams = _checked_points(n, lams, level)
    re, im = lams.real, lams.imag
    # CPython divides by the real n as by the complex (n, 0.0): ratio 0.0, denominator n
    qr, qi = (re + im * 0.0) / float(n), (im - re * 0.0) / float(n)
    parts = np.empty((len(lams), level + 1, 2))
    parts[:, 0] = 1.0, 0.0
    br, bi = parts[:, 1:, 0], parts[:, 1:, 1]
    br[:, 0] = ((re - 1.0) + im * 0.0) / float(n - 1)
    bi[:, 0] = (im - (re - 1.0) * 0.0) / float(n - 1)
    for ell in range(1, level):
        # each product rounded on its own, then the sum, as CPython multiplies
        br[:, ell] = br[:, ell - 1] * qr - bi[:, ell - 1] * qi
        bi[:, ell] = br[:, ell - 1] * qi + bi[:, ell - 1] * qr
    counts = [1] + [n**ell * (n - 1) for ell in range(level)]
    return lams, parts.view(np.complex128)[..., 0], counts


def _residual_bands(n: int, lams: np.ndarray, bands: np.ndarray) -> np.ndarray:
    """adjoint(v) - lam*v by window band, each block of equal values summed in closed form.

    Degree 0 sums 1 and n-1 copies of b_0; every later block sums n copies
    of b_l.  One rounding each, so neither the cost nor the error grows with n.
    """
    res = np.empty_like(bands)
    res[:, 0] = 1.0 + float(n - 1) * bands[:, 0] - lams
    res[:, 1:] = float(n) * bands[:, 1:] - lams[:, None] * bands[:, :-1]
    return res


def _eigenvectors(n: int, lams: np.ndarray, bands: np.ndarray,
                  counts: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`adjoint_eigenvector`'s vectors and residuals, one row per point.

    ``lams`` and ``bands`` are rows of :func:`_eigen_bands`' points and
    table, and ``counts`` its entry counts, by which each column is
    repeated.  Each row is the same, bit for bit, as a one-row call gives.
    Raises IndexOutOfRange past numpy's array size limit.
    """
    level = len(counts) - 1
    _check_array_bytes(16 * len(lams) * n**level,
                       f"{len(lams)} eigenvectors of {n}^{level} coefficients each")
    v = np.repeat(bands, counts, axis=1)
    residual = weighted_dilation_adjoint_array(n, v)
    residual -= lams[:, None] * v[:, : n ** (level - 1)]
    return v, _row_norms(residual)


def adjoint_eigenvector(n: int, lam: complex, level: int) -> EigenPair:
    """Construct the explicit adjoint eigenvector at ``lam``, |lam| < sqrt(n).

    Coefficients: 1 at degree 0, then (lam/n)^l * (lam-1)/(n-1) on the band
    [n^l, n^{l+1}) for l = 0..level-1.  Each length-n block of the result
    sums to lam times the coefficient it reports to, so the residual over
    the adjoint's window is at machine-precision scale.
    """
    lams, bands, counts = _eigen_bands(n, lam, level)
    v, residual = _eigenvectors(n, lams, bands, counts)
    return EigenPair(n=n, lam=complex(lams[0]), level=level, vector=CoeffSeries(v[0]),
                     residual=float(residual[0]), tail_mass=array_norm(v[0, n ** (level - 1):]))


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
        raise IndexOutOfRange(f"index n must be >= 2, got {n}")
    if min_degree_count < 1:
        raise IndexOutOfRange(f"min_degree_count must be >= 1, got {min_degree_count}")
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
    time and memory whatever n and the truncation n^level.  Each residual
    entry sums its block of n equal values in closed form with one rounding
    (bit for bit :func:`adjoint_eigenvector`'s left-to-right block sums at
    n = 2, apart in the last bits for n >= 3), and each norm is
    sqrt(sum of count * |value|^2), within an ulp of the exactly rounded norm.
    """
    if angles_count < 1:
        raise IndexOutOfRange(f"angles_count must be >= 1, got {angles_count}")
    radii = [float(r) for r in radii]
    if not radii:
        raise IndexOutOfRange("radii must be nonempty")
    for r in radii:
        if not 0.0 <= r < 1.0:
            raise OutsideSpectralBall(f"relative radius {r} is outside [0, 1)")
    level = level_for_degree(n, min_degree_count)
    _checked_level(n, level)
    # the eigenvectors' band table, level + 1 complex values a point, is the largest array
    _check_array_bytes(16 * (level + 1) * len(radii) * angles_count,
                       f"a scan of {len(radii)} x {angles_count} points at level {level}")
    # e^(2j*pi*t/N) from 2j*pi*t/N as CPython's complex arithmetic rounds it:
    # its real part is exactly +0.0 and its imaginary part (2*pi*t)/N
    turns = np.zeros(angles_count, dtype=np.complex128)
    turns.imag = 2 * np.pi * np.arange(angles_count) / angles_count
    turns = np.exp(turns)
    f = np.array(radii)[:, None] * math.sqrt(n)
    # f * turn as numpy's float * complex rounds it, f taken as (f, 0.0); the
    # 0.0 terms set the signs of the zeros at r = 0
    lams = np.empty((len(radii), angles_count), dtype=np.complex128)
    lams.real = f * turns.real - 0.0 * turns.imag
    lams.imag = f * turns.imag + 0.0 * turns.real
    lams, vector, counts = _eigen_bands(n, lams.reshape(-1), level)
    weights = np.array(counts, dtype=np.float64)
    residual = _band_norms(_residual_bands(n, lams, vector[:, 1:]), weights[:-1])
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
