"""Truncated Maclaurin coefficient series and their exact-at-truncation arithmetic.

A :class:`CoeffSeries` stores the coefficients c_0 .. c_N of an analytic
function on the unit disk, together with the guarantee that every stored
coefficient is exact for the represented function.  N is the *valid degree*;
nothing past it may be read.  Every operation below documents the valid
degree of its output, which is the one piece of bookkeeping that keeps
truncation errors out of the downstream operator identities.

Coefficients are float64 for real (bool, int or float) input and
complex128 for complex input, and operations keep real data real.  Only
:func:`formal_log`, whose value can be complex (principal branch), always
returns complex coefficients.  Series values are immutable after
construction and safe to share.  The CLI's CSV format lives in
:mod:`hardylab.table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import get_lapack_funcs, toeplitz

from .errors import IndexOutOfRange, NearZeroConstantTerm

__all__ = [
    "CoeffSeries",
    "one",
    "from_coeffs",
    "pad",
    "inner",
    "norm",
    "array_norm",
    "axpy",
    "formal_log",
    "cumsum",
]

# Degrees solved per triangular block in formal_log; its complex block
# matrix takes 256 KiB.
_LOG_BLOCK = 128

# formal_log refuses a constant term of at most this modulus.
_MIN_CONSTANT = 1e-300

# numpy refuses an array of more bytes than this, intp's max.
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max


@dataclass(frozen=True)
class CoeffSeries:
    """Coefficient vector c_0 .. c_N with N = ``valid_degree``.

    Entry j is the coefficient of z^j.  All entries are finite; the
    backing array is a read-only float64 copy of real input and a
    complex128 copy of complex input, and anything else is refused.
    Finiteness is checked in one pass over the float64 view of the copy,
    which covers real and imaginary parts alike.
    """

    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs)
        if c.dtype.kind not in "biufc":
            raise ValueError(f"coefficients must be numeric, got dtype {c.dtype}")
        c = np.array(c, dtype=np.complex128 if c.dtype.kind == "c" else np.float64)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d array")
        parts = c.view(np.float64)
        if np.count_nonzero(np.isfinite(parts)) != parts.size:
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def valid_degree(self) -> int:
        return len(self.coeffs) - 1

    def __len__(self) -> int:
        return len(self.coeffs)

    def __getitem__(self, j: int) -> complex:
        return complex(self.coeffs[j])

    def __repr__(self) -> str:
        head = np.array2string(self.coeffs[:4], precision=6, separator=", ")
        return f"CoeffSeries(valid_degree={self.valid_degree}, coeffs={head}...)"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _check_valid_degree(valid_degree: int) -> None:
    if valid_degree < 0:
        raise ValueError(f"valid degree must be >= 0, got {valid_degree}")


def _check_array_bytes(nbytes: int, what: str) -> None:
    """Refuse, as a typed error, an array numpy refuses: one of more than intp's max bytes."""
    if nbytes > _MAX_ARRAY_BYTES:
        raise IndexOutOfRange(f"{what} is past numpy's array size limit")


def from_coeffs(values) -> CoeffSeries:
    """Series with the given coefficients; valid degree is len(values) - 1."""
    return CoeffSeries(values)


def one(valid_degree: int = 0) -> CoeffSeries:
    """The constant function 1, exact through ``valid_degree``."""
    _check_valid_degree(valid_degree)
    _check_array_bytes(8 * (valid_degree + 1), f"the constant 1 through degree {valid_degree}")
    c = np.zeros(valid_degree + 1)
    c[0] = 1.0
    return CoeffSeries(c)


def pad(f: CoeffSeries, valid_degree: int) -> CoeffSeries:
    """Zero-extend ``f`` to ``valid_degree``.

    Only exact when the represented function is a polynomial of degree
    <= f.valid_degree; the caller asserts that by calling this.
    """
    if valid_degree < f.valid_degree:
        raise ValueError("pad target below current valid degree")
    _check_array_bytes(f.coeffs.itemsize * (valid_degree + 1),
                       f"a series padded to degree {valid_degree}")
    c = np.zeros(valid_degree + 1, dtype=f.coeffs.dtype)
    c[: len(f.coeffs)] = f.coeffs
    return CoeffSeries(c)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def inner(f: CoeffSeries, g: CoeffSeries) -> complex:
    """Coefficient inner product sum_j f_j * conj(g_j) over the common window.

    The sum runs through min(f.valid_degree, g.valid_degree); the second
    argument is the conjugated one.
    """
    m = min(f.valid_degree, g.valid_degree) + 1
    return complex(np.vdot(g.coeffs[:m], f.coeffs[:m]))


def norm(f: CoeffSeries) -> float:
    """l2 norm of the coefficient vector; zero iff all coefficients are zero."""
    return array_norm(f.coeffs)


def array_norm(c: np.ndarray) -> float:
    """l2 norm of a 1-d float64 or complex128 array, equal to ``np.linalg.norm(c)``.

    It is :func:`_row_norms` of the one row.
    """
    return float(_row_norms(c))


def _row_norms(c: np.ndarray) -> np.ndarray:
    """l2 norm of each row on the last axis of ``c``, equal to ``np.linalg.norm`` of that row.

    This is the expression numpy's own 1-d fast path evaluates (one dot
    per real part), without its argument handling: ``np.vecdot`` runs the
    same BLAS dot per row as ``ndarray.dot`` does on one row, so the value
    is the same bit for bit.
    """
    if c.dtype.kind == "c":
        re, im = c.real, c.imag
        return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))
    return np.sqrt(np.vecdot(c, c))


def axpy(a: complex, f: CoeffSeries, g: CoeffSeries) -> CoeffSeries:
    """a*f + g coefficientwise; valid degree is the minimum of the inputs."""
    m = min(f.valid_degree, g.valid_degree) + 1
    return CoeffSeries(a * f.coeffs[:m] + g.coeffs[:m])


def formal_log(f: CoeffSeries) -> CoeffSeries:
    """Formal logarithm g = log f with g determined by g'*f = f'.

    g_0 = log f_0 (principal branch) and for j >= 1

        g_j = f_j/f_0 - (1/j) * sum_{i=1}^{j-1} i * g_i * f_{j-i} / f_0.

    With fn = f/f_0 and a_j = j*g_j this is the unit lower-triangular
    Toeplitz system sum_{i=1}^{j} fn_{j-i} a_i = j*fn_j.  It is solved by
    forward substitution in blocks of ``_LOG_BLOCK`` degrees: one
    triangular solve per block (LAPACK ``?trtrs``, called directly), then
    one convolution pushes the block into the later right-hand sides.  The
    solves take the arguments ``scipy.linalg.solve_triangular`` would pass,
    so the values are the same bit for bit.  Only fn_0 .. fn_d enter, d
    being the last nonzero coefficient, so the cost is O(N*(d+B)) with
    B = ``_LOG_BLOCK`` instead of O(N^2).  No composition-radius issues.
    Valid degree preserved.

    Raises:
        NearZeroConstantTerm: if |f_0| <= ``_MIN_CONSTANT``, or if f/f_0 or the
            logarithm overflows double precision.
    """
    f0 = complex(f.coeffs[0])
    if abs(f0) <= _MIN_CONSTANT:
        raise NearZeroConstantTerm(
            f"formal_log needs |constant term| > {_MIN_CONSTANT}, got {abs(f0)!r}"
        )
    n = f.valid_degree
    with np.errstate(all="ignore"):
        fn = np.trim_zeros(f.coeffs / f0, "b")
        d = len(fn) - 1
        # a holds the right-hand sides j*fn_j and is overwritten by the solution.
        a = np.zeros(n + 1, dtype=np.complex128)
        a[1 : d + 1] = np.arange(1, d + 1) * fn[1:]
        m = min(_LOG_BLOCK, max(n, 1))
        col = np.zeros(m, dtype=np.complex128)
        col[: min(m, d + 1)] = fn[:m]
        # LAPACK reads the transposed C-ordered factor as a Fortran upper
        # triangle and solves with its transpose, as solve_triangular does.
        upper = toeplitz(col, np.zeros(m)).T
        trtrs, = get_lapack_funcs(("trtrs",), (upper,))
        for s in range(1, n + 1, m):
            e = min(s + m, n + 1)
            a[s:e], info = trtrs(
                upper[: e - s, : e - s], a[s:e], lower=0, trans=1, unitdiag=1
            )
            if info:
                raise np.linalg.LinAlgError(f"?trtrs failed with info = {info}")
            push = np.convolve(a[s:e], fn[: n + 1 - s])[e - s : n + 1 - s]
            a[e : e + len(push)] -= push
        g = a / np.maximum(np.arange(n + 1), 1)
        g[0] = np.log(f0)
    if not np.all(np.isfinite(g)):
        raise NearZeroConstantTerm(
            f"formal_log overflows double precision: |f_0| = {abs(f0):.3e}, "
            f"max|f_j| = {np.max(np.abs(f.coeffs)):.3e}"
        )
    return CoeffSeries(g)


def cumsum(f: CoeffSeries) -> CoeffSeries:
    """Multiplication by 1/(1-z): output coefficient j = sum_{i<=j} f_i."""
    return CoeffSeries(np.cumsum(f.coeffs))
