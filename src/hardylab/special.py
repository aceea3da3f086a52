"""The h_k family and the local Dirichlet energy at the boundary point 1.

h_k is the Hardy-space function (1-z)^{-1} log((1 + z + ... + z^{k-1})/k),
the k-th member of the family whose span's distance to the constant 1 the
projection module measures.  Two independent generators are kept side by
side on purpose: a vectorized closed form used in production and a formal
log/partial-sum pipeline used as its permanent cross-check.
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRange
from .series import CoeffSeries, cumsum, formal_log

__all__ = [
    "hk_closed_form",
    "hk_matrix",
    "hk_oracle",
    "hk_tail_norm_bound",
    "truncation_certificate",
    "dirichlet_energy_at_one",
]


def _check_hk_args(k: int, n_trunc: int) -> None:
    if k < 2:
        raise IndexOutOfRange(f"h_k is defined for k >= 2, got {k}")
    if n_trunc < 0:
        raise IndexOutOfRange(f"truncation degree must be >= 0, got {n_trunc}")


def hk_closed_form(k: int, n_trunc: int) -> CoeffSeries:
    """h_k through degree ``n_trunc`` via harmonic numbers.

    Coefficient j equals H_j - H_{floor(j/k)} - log k with H_m the m-th
    harmonic number (H_0 = 0).  This follows from splitting the logarithm,

        log((1 + ... + z^{k-1})/k) = log(1 - z^k) - log(1 - z) - log k,

    expanding both logs and taking coefficient partial sums.  Harmonic
    numbers are accumulated forward in double precision; for degrees up to
    2^16 the accumulated error stays below 1e-11.
    """
    _check_hk_args(k, n_trunc)
    return CoeffSeries(_hk_coeffs(_harmonic_table(n_trunc), k))


def hk_matrix(k_max: int, n_trunc: int) -> np.ndarray:
    """Real (n_trunc + 1) x (k_max - 1) matrix whose column k - 2 is h_k, k = 2..k_max.

    Every column comes from one shared harmonic table and is bit-identical
    to ``hk_closed_form(k, n_trunc).coeffs``.  The matrix
    is allocated in Fortran (column-major) order and filled one column at a
    time, so each column and every leading block of columns is contiguous.
    """
    _check_hk_args(k_max, n_trunc)
    return _fill_hk_columns(np.empty((n_trunc + 1, k_max - 1), order="F"))


def _fill_hk_columns(out: np.ndarray) -> np.ndarray:
    """Write h_{i+2} through degree ``len(out) - 1`` into column i of ``out``."""
    h = _harmonic_table(out.shape[0] - 1)
    for i in range(out.shape[1]):
        out[:, i] = _hk_coeffs(h, i + 2)
    return out


def _harmonic_table(n_trunc: int) -> np.ndarray:
    """H_0 .. H_{n_trunc}, accumulated forward in double precision."""
    h = np.zeros(n_trunc + 1)
    if n_trunc >= 1:
        h[1:] = np.cumsum(1.0 / np.arange(1, n_trunc + 1))
    return h


def _hk_coeffs(h: np.ndarray, k: int) -> np.ndarray:
    """H_j - H_{floor(j/k)} - log k for j < len(h); each H_{floor(j/k)} is a run of k copies."""
    n = len(h)
    return h - np.repeat(h[: (n - 1) // k + 1], k)[:n] - np.log(k)


def hk_oracle(k: int, n_trunc: int) -> CoeffSeries:
    """h_k through degree ``n_trunc`` via the formal-series pipeline.

    Builds the polynomial (1 + z + ... + z^{k-1})/k explicitly, takes its
    formal logarithm and then coefficient partial sums.  Independent of
    :func:`hk_closed_form`; the two must agree to ~1e-12.
    """
    _check_hk_args(k, n_trunc)
    p = np.zeros(n_trunc + 1)
    p[: min(k, n_trunc + 1)] = 1.0 / k
    return cumsum(formal_log(CoeffSeries(p)))


def hk_tail_norm_bound(k: int, n_trunc: int) -> float:
    """Upper bound on the norm of h_k beyond degree ``n_trunc``.

    The coefficients decay like |c_j| <= k/(j+1), so the tail norm is at
    most sqrt(sum_{j>N} k^2/(j+1)^2) <= k/sqrt(N+1).  Used to certify that
    a chosen truncation degree is deep enough for distance experiments.
    """
    _check_hk_args(k, n_trunc)
    return k / np.sqrt(n_trunc + 1)


def truncation_certificate(coefficients, n_trunc: int) -> float:
    """Upper bound on the norm of sum_k c_k h_k beyond degree ``n_trunc``.

    ``coefficients[i]`` multiplies h_{i+2}, as in the reports of the d_K
    sequence; the bound is sum_k |c_k| * hk_tail_norm_bound(k, n_trunc).
    It certifies how far the truncation can move a distance d_K.
    """
    _check_hk_args(2, n_trunc)
    root = np.sqrt(n_trunc + 1)
    return float(sum(abs(c) * (k / root) for k, c in enumerate(coefficients, start=2)))


def dirichlet_energy_at_one(f: CoeffSeries) -> float:
    """Tail-sum energy sum_i |sum_{j>i} f_j|^2 truncated at the valid degree.

    Equals the local Dirichlet energy at the boundary point 1 exactly
    whenever f is a polynomial of degree <= valid_degree.  Computed with a
    single cumulative pass, O(N).
    """
    partial = np.cumsum(f.coeffs)
    tails = partial[-1] - partial
    return float(np.sum(np.abs(tails) ** 2))
