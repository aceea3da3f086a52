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
"""

from __future__ import annotations

import numpy as np

from .errors import IndexOutOfRange, TruncationTooShort
from .series import CoeffSeries, norm, one_minus_shift

__all__ = [
    "weighted_dilation",
    "weighted_dilation_adjoint",
    "dilation",
    "adjoint_valid_degree",
    "semiconjugacy_residual",
    "kernel_vector",
    "kernel_intersection_basis",
]


def _check_index(n: int, lower: int = 1) -> None:
    if n < lower:
        raise IndexOutOfRange(f"semigroup index must be >= {lower}, got {n}")


def weighted_dilation(n: int, f: CoeffSeries) -> CoeffSeries:
    """Apply the n-th weighted dilation: output coefficient j is f_{floor(j/n)}.

    Output valid degree is n*valid + n - 1 (each of the valid+1 input
    coefficients occupies n output slots).  Index 1 is the identity.
    """
    _check_index(n)
    if n == 1:
        return f
    return CoeffSeries(f.coeffs.repeat(n))


def adjoint_valid_degree(n: int, input_valid_degree: int) -> int:
    """Largest output degree whose full coefficient block is known."""
    return (input_valid_degree + 1) // n - 1


def weighted_dilation_adjoint(n: int, f: CoeffSeries) -> CoeffSeries:
    """Adjoint of the n-th weighted dilation: block sums of length n.

    Output coefficient k is f_{nk} + f_{nk+1} + ... + f_{nk+n-1}; the output
    valid degree is floor((valid+1)/n) - 1, i.e. complete blocks only.

    Raises:
        TruncationTooShort: if not even one full block fits (valid < n - 1).
    """
    _check_index(n)
    if n == 1:
        return f
    m = adjoint_valid_degree(n, f.valid_degree)
    if m < 0:
        raise TruncationTooShort(
            f"adjoint with index {n} needs valid degree >= {n - 1}, got {f.valid_degree}"
        )
    blocks = f.coeffs[: (m + 1) * n].reshape(m + 1, n)
    return CoeffSeries(np.add.reduce(blocks, axis=1))


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
    exact windows and compared on the intersection; the result is zero to
    machine precision for every input because

        (1 - z^n) f(z^n)  =  (1 - z) * [(1 - z^n)/(1 - z)] f(z^n)

    holds coefficientwise.
    """
    _check_index(n)
    lhs = dilation(n, one_minus_shift(f))
    rhs = one_minus_shift(weighted_dilation(n, f))
    m = min(lhs.valid_degree, rhs.valid_degree)
    return norm(CoeffSeries(lhs.coeffs[: m + 1] - rhs.coeffs[: m + 1]))


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
