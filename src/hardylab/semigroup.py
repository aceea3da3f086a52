"""The weighted dilation semigroup, its adjoint, and the plain dilations.

The n-th weighted dilation sends f(z) to (1 + z + ... + z^{n-1}) f(z^n);
on coefficients it repeats each input coefficient n times, so the family
is multiplicative (index m followed by index n equals index mn) and scales
every norm by exactly sqrt(n).  Its adjoint replaces the coefficient
vector by sums over consecutive blocks of length n.  The plain dilation
f(z) -> f(z^n) spreads coefficients onto multiples of n.

Every transform states the valid degree of its output.  The adjoint keeps
complete blocks only: a partially known block is discarded rather than
partially summed, because a partial sum is simply not the block sum and
would silently corrupt duality tests downstream.

The weighted dilation and its adjoint are array kernels,
:func:`weighted_dilation_array` and :func:`weighted_dilation_adjoint_array`,
acting on the last axis of any ``(..., L)`` array, so one call transforms a
whole stack of coefficient rows.  :func:`weighted_dilation` and
:func:`weighted_dilation_adjoint` wrap them for one series, so the verify
suites that work on row stacks run the same code as the series API.  The
block sums are n strided adds, one per position in the block, over the
whole stack at once, in numpy's pairwise-reduction order and pinned to
``np.add.reduce`` by a test.  Each row of a stack therefore gets the same
values, bit for bit, as a lone series, and as ``np.add.reduce`` over the
row's blocks.  :func:`semiconjugacy_residual` takes one series.
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRange, TruncationTooShort
from .series import CoeffSeries, array_norm

__all__ = [
    "weighted_dilation",
    "weighted_dilation_adjoint",
    "weighted_dilation_array",
    "weighted_dilation_adjoint_array",
    "dilation",
    "adjoint_valid_degree",
    "semiconjugacy_residual",
    "kernel_vector",
    "kernel_intersection_basis",
]


# numpy's pairwise reduction splits a run of more than this many floats in two.
_PAIRWISE_FLOATS = 128


def _check_index(n: int, lower: int = 1) -> None:
    if n < lower:
        raise IndexOutOfRange(f"semigroup index must be >= {lower}, got {n}")


def weighted_dilation_array(n: int, c: np.ndarray) -> np.ndarray:
    """The n-th weighted dilation on the last axis of ``c``: each entry n times.

    A length-L axis becomes length n*L.  Index 1 returns ``c`` itself.
    """
    _check_index(n)
    if n == 1:
        return c
    return c.repeat(n, axis=-1)


def weighted_dilation(n: int, f: CoeffSeries) -> CoeffSeries:
    """Apply the n-th weighted dilation: output coefficient j is f_{floor(j/n)}.

    Output valid degree is n*valid + n - 1 (each of the valid+1 input
    coefficients occupies n output slots).  Index 1 is the identity.
    """
    out = weighted_dilation_array(n, f.coeffs)
    return f if n == 1 else CoeffSeries(out)


def adjoint_valid_degree(n: int, input_valid_degree: int) -> int:
    """Largest output degree whose full coefficient block is known."""
    return (input_valid_degree + 1) // n - 1


def weighted_dilation_adjoint_array(n: int, c: np.ndarray) -> np.ndarray:
    """Block sums of length n on the last axis of ``c``, complete blocks only.

    A length-L axis becomes length floor(L/n).  ``c`` is float64 or
    complex128.  The sums are strided adds of the n views ``c[..., i::n]``
    in numpy's pairwise-reduction order, pinned to ``np.add.reduce`` by a
    test: every block sum equals ``np.add.reduce`` over that block, bit for
    bit, whatever the layout of ``c``.  Index 1 returns ``c`` itself.

    Raises:
        TruncationTooShort: if not even one full block fits (L < n).
    """
    _check_index(n)
    if n == 1:
        return c
    valid = c.shape[-1] - 1
    m = adjoint_valid_degree(n, valid)
    if m < 0:
        raise TruncationTooShort(
            f"adjoint with index {n} needs valid degree >= {n - 1}, got {valid}"
        )
    window = c[..., : (m + 1) * n]
    lanes = 4 if window.dtype.kind == "c" else 8
    return _pairwise_sum([window[..., i::n] for i in range(n)], lanes)


def _pairwise_sum(cols: list[np.ndarray], lanes: int) -> np.ndarray:
    """Sum of ``cols`` as a new array, added in numpy's pairwise-reduction order.

    numpy adds a run of fewer than 8 floats left to right.  A longer run
    goes into 8 float accumulators (``lanes`` values, a complex value taking
    two floats) over its full groups; they are combined pairwise,
    ((a0 + a1) + (a2 + a3)) + ..., and the leftover values are added left to
    right.  A run of more than 128 floats is split in two at a multiple of
    8 floats.  The reduction starts from +0.0, hence ``cols[0] + 0.0``: a
    block of -0.0 alone sums to +0.0.
    """
    if len(cols) * 8 // lanes > _PAIRWISE_FLOATS:
        half = len(cols) // 2 - len(cols) // 2 % lanes
        return _pairwise_sum(cols[:half], lanes) + _pairwise_sum(cols[half:], lanes)
    width = lanes if len(cols) >= lanes else 1
    full = len(cols) - len(cols) % width
    acc = [cols[0] + 0.0, *cols[1:width]]
    for start in range(width, full, width):
        acc = [a + col for a, col in zip(acc, cols[start : start + width])]
    while len(acc) > 1:
        acc = [acc[i] + acc[i + 1] for i in range(0, len(acc), 2)]
    out = acc[0]
    for col in cols[full:]:
        out += col
    return out


def weighted_dilation_adjoint(n: int, f: CoeffSeries) -> CoeffSeries:
    """Adjoint of the n-th weighted dilation: block sums of length n.

    Output coefficient k is f_{nk} + f_{nk+1} + ... + f_{nk+n-1}; the output
    valid degree is floor((valid+1)/n) - 1, i.e. complete blocks only.

    Raises:
        TruncationTooShort: if not even one full block fits (valid < n - 1).
    """
    out = weighted_dilation_adjoint_array(n, f.coeffs)
    return f if n == 1 else CoeffSeries(out)


def dilation(n: int, f: CoeffSeries) -> CoeffSeries:
    """Plain dilation f(z) -> f(z^n): coefficient nk is f_k, the rest zero.

    Output valid degree is n*valid (degrees strictly between multiples of n
    are exactly zero, and degree n*valid is the last known multiple).
    """
    _check_index(n)
    if n == 1:
        return f
    c = np.zeros(n * f.valid_degree + 1, dtype=f.coeffs.dtype)
    c[::n] = f.coeffs
    return CoeffSeries(c)


def semiconjugacy_residual(n: int, f: CoeffSeries) -> float:
    """Norm of the defect in the intertwining of plain and weighted dilations.

    Both (1-z)-multiplications and the two dilations are applied on their
    exact windows and compared on the intersection, degrees 0 .. n*valid.
    The result is exactly zero for every input, because

        (1 - z^n) f(z^n)  =  (1 - z) * [(1 - z^n)/(1 - z)] f(z^n)

    holds coefficientwise and both sides place the same differences
    f_k - f_{k-1} at degree nk, and exact zeros elsewhere.
    """
    _check_index(n)
    m = n * f.valid_degree
    # np.diff(c, prepend=0) is c times (1 - z) on its valid window.
    lhs = np.zeros(m + 1, dtype=f.coeffs.dtype)
    lhs[::n] = np.diff(f.coeffs, prepend=0)
    rhs = np.diff(weighted_dilation_array(n, f.coeffs), prepend=0)[: m + 1]
    return array_norm(lhs - rhs)


def kernel_vector(n: int, k: int) -> CoeffSeries:
    """The k-th canonical vector annihilated by the index-n adjoint.

    Supported on one block: z^{nk} + z^{nk+1} + ... + z^{nk+n-2}
    - (n-1) z^{nk+n-1}.  Its block sum is (n-1) - (n-1) = 0, and distinct k
    give disjointly supported, hence orthogonal, vectors.
    """
    _check_index(n, lower=2)
    if k < 0:
        raise IndexOutOfRange(f"block index must be >= 0, got {k}")
    c = np.zeros(n * k + n)
    c[n * k : n * k + n - 1] = 1.0
    c[n * k + n - 1] = -(n - 1)
    return CoeffSeries(c)


def kernel_intersection_basis(k: int) -> list[CoeffSeries]:
    """The polynomials 1 - z^j for j = 1..k, padded to a common valid degree k.

    Every member is annihilated by the adjoint of every index n > k: the
    single complete block of 1 - z^j under such an n sums to zero.  For
    n <= j the member escapes the kernel (pad further and apply to see a
    nonzero image).
    """
    if k < 1:
        raise IndexOutOfRange(f"basis size must be >= 1, got {k}")
    out = []
    for j in range(1, k + 1):
        c = np.zeros(k + 1)
        c[0] = 1.0
        c[j] = -1.0
        out.append(CoeffSeries(c))
    return out
