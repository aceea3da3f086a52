"""The h_k family and the local Dirichlet energy at the boundary point 1.

h_k is the Hardy-space function (1-z)^{-1} log((1 + z + ... + z^{k-1})/k),
the k-th member of the family whose span's distance to the constant 1 the
projection module measures.  Two independent generators are kept side by
side on purpose: a vectorized closed form used in production and a formal
log/partial-sum pipeline used as its permanent cross-check.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import IndexOutOfRange
from .series import CoeffSeries, _check_array_bytes, cumsum, formal_log

__all__ = [
    "hk_closed_form",
    "hk_oracle",
    "truncation_certificate",
    "dirichlet_energy_at_one",
    "dirichlet_energy_at_one_array",
]


def _check_hk_args(k: int, n_trunc: int) -> None:
    if k < 2:
        raise IndexOutOfRange(f"h_k is defined for k >= 2, got {k}")
    if k > sys.float_info.max:
        raise IndexOutOfRange(
            f"h_k needs k within double precision, got a {k.bit_length()}-bit k"
        )
    if n_trunc < 0:
        raise IndexOutOfRange(f"truncation degree must be >= 0, got {n_trunc}")
    _check_array_bytes(8 * (n_trunc + 1), f"h_k through degree {n_trunc}")


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
    return CoeffSeries(_hk_coeffs(_harmonic_table(n_trunc), k, 0, n_trunc + 1))


def _harmonic_table(n_trunc: int) -> np.ndarray:
    """H_0 .. H_{n_trunc}, accumulated forward in double precision."""
    h = np.zeros(n_trunc + 1)
    if n_trunc >= 1:
        h[1:] = np.cumsum(1.0 / np.arange(1, n_trunc + 1))
    return h


def _hk_coeffs(h: np.ndarray, k: int, lo: int, hi: int) -> np.ndarray:
    """H_j - H_{floor(j/k)} - log k for lo <= j < hi."""
    return h[lo:hi] - _floor_runs(h, k, lo, hi) - np.log(float(k))


def _floor_runs(values: np.ndarray, k: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of W_k ``values``, values[floor(j/k)], as far as ``values`` reaches.

    Each values[q] is one of a run of copies, min(k, hi - lo) of them, and
    the window starts ``skip`` copies into the first run, so a run is never
    longer than the window however large k is: at most two runs if k > hi - lo.
    W_1 is the identity, so k = 1 gives the view values[lo:hi], copying nothing.
    """
    if k == 1:
        return values[lo:hi]
    q_lo, run = lo // k, min(k, hi - lo)
    skip = run - (min((q_lo + 1) * k, hi) - lo)
    return np.repeat(values[q_lo : (hi - 1) // k + 1], run)[skip : skip + hi - lo]


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


def truncation_certificate(coefficients, n_trunc: int) -> float:
    """Upper bound on the norm of sum_k c_k h_k beyond degree ``n_trunc``.

    ``coefficients[i]`` multiplies h_{i+2}, as in column K - 2 of the d_K
    report's coefficients.  The coefficients of h_k decay like |c_j| <=
    k/(j+1), so the tail of h_k beyond degree N has norm at most
    sqrt(sum_{j>N} k^2/(j+1)^2) <= k/sqrt(N+1), and the bound is
    sum_k |c_k| * k/sqrt(N+1), summed left to right in the order of the
    coefficients (the last partial sum of ``np.cumsum``, bit for bit
    Python's ``sum``).  It certifies how far the truncation can move a
    distance d_K.
    """
    _check_hk_args(2, n_trunc)
    c = np.asarray(coefficients)
    if c.size == 0:
        return 0.0
    # np.hypot rounds |c| as Python's abs does; np.abs differs in the last bit
    terms = np.hypot(c.real, c.imag) * (np.arange(2, c.size + 2) / np.sqrt(n_trunc + 1))
    return float(np.cumsum(terms)[-1])


def dirichlet_energy_at_one_array(c: np.ndarray) -> np.ndarray:
    """:func:`dirichlet_energy_at_one` of each coefficient row on the last axis of ``c``.

    One cumulative pass over the whole stack; each row's energy is the
    same, bit for bit, as the lone series gets.
    """
    partial = np.cumsum(c, axis=-1)
    tails = partial[..., -1:] - partial
    return np.sum(np.abs(tails) ** 2, axis=-1)


def dirichlet_energy_at_one(f: CoeffSeries) -> float:
    """Tail-sum energy sum_i |sum_{j>i} f_j|^2 truncated at the valid degree.

    Equals the local Dirichlet energy at the boundary point 1 exactly
    whenever f is a polynomial of degree <= valid_degree.  Computed with a
    single cumulative pass, O(N), by :func:`dirichlet_energy_at_one_array`.
    """
    return float(dirichlet_energy_at_one_array(f.coeffs))
