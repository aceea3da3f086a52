"""Truncated Maclaurin coefficient series and their exact-at-truncation arithmetic.

A :class:`CoeffSeries` stores the coefficients c_0 .. c_N of an analytic
function on the unit disk, together with the guarantee that every stored
coefficient is exact for the represented function.  N is the *valid degree*;
nothing past it may be read.  Every operation below documents the valid
degree of its output, which is the one piece of bookkeeping that keeps
truncation errors out of the downstream operator identities.

Coefficients are float64 for real (bool, int or float) input and
complex128 for complex input, and operations keep real data real.  Values
that can be complex stay complex: :func:`formal_log` (principal branch) and
series read back from JSON or CSV, whose formats carry an imaginary part.
Series values are immutable after construction and safe to share.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular, toeplitz

from .errors import NearZeroConstantTerm

__all__ = [
    "CoeffSeries",
    "zero",
    "one",
    "monomial",
    "from_coeffs",
    "truncate",
    "pad",
    "fit_degree",
    "inner",
    "norm",
    "axpy",
    "cauchy_product",
    "formal_log",
    "cumsum",
    "shift_up",
    "one_minus_shift",
    "to_json_dict",
    "from_json_dict",
    "dumps",
    "loads",
    "write_columns",
    "write_csv",
    "read_csv",
]

# Degrees solved per triangular block in formal_log; its complex block
# matrix takes 256 KiB.
_LOG_BLOCK = 128

# formal_log refuses a constant term of at most this modulus.
_MIN_CONSTANT = 1e-300

# Rows formatted per `%` call in write_columns; bounds the formatted
# block to a few hundred KiB however long the table is.
_CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class CoeffSeries:
    """Coefficient vector c_0 .. c_N with N = ``valid_degree``.

    Entry j is the coefficient of z^j.  All entries are finite; the
    backing array is a read-only float64 copy of real input and a
    complex128 copy of complex input, and anything else is refused.
    """

    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.coeffs)
        if c.dtype.kind not in "biufc":
            raise ValueError(f"coefficients must be numeric, got dtype {c.dtype}")
        c = np.array(c, dtype=np.complex128 if c.dtype.kind == "c" else np.float64)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d array")
        if not np.all(np.isfinite(c)):
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


def from_coeffs(values) -> CoeffSeries:
    """Series with the given coefficients; valid degree is len(values) - 1."""
    return CoeffSeries(values)


def zero(valid_degree: int = 0) -> CoeffSeries:
    """The zero series, exact through ``valid_degree``."""
    _check_valid_degree(valid_degree)
    return CoeffSeries(np.zeros(valid_degree + 1))


def one(valid_degree: int = 0) -> CoeffSeries:
    """The constant function 1, exact through ``valid_degree``."""
    _check_valid_degree(valid_degree)
    c = np.zeros(valid_degree + 1)
    c[0] = 1.0
    return CoeffSeries(c)


def monomial(degree: int, valid_degree: int | None = None) -> CoeffSeries:
    """z^degree, exact through ``valid_degree`` (default: ``degree``)."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    n = degree if valid_degree is None else valid_degree
    if n < degree:
        raise ValueError("valid_degree must cover the monomial degree")
    c = np.zeros(n + 1)
    c[degree] = 1.0
    return CoeffSeries(c)


def truncate(f: CoeffSeries, valid_degree: int) -> CoeffSeries:
    """Restrict ``f`` to degrees 0..valid_degree (must shrink or keep)."""
    _check_valid_degree(valid_degree)
    if valid_degree > f.valid_degree:
        raise ValueError(
            f"cannot truncate to degree {valid_degree}: only {f.valid_degree} is valid"
        )
    return CoeffSeries(f.coeffs[: valid_degree + 1])


def pad(f: CoeffSeries, valid_degree: int) -> CoeffSeries:
    """Zero-extend ``f`` to ``valid_degree``.

    Only exact when the represented function is a polynomial of degree
    <= f.valid_degree; the caller asserts that by calling this.
    """
    if valid_degree < f.valid_degree:
        raise ValueError("pad target below current valid degree; use truncate")
    c = np.zeros(valid_degree + 1, dtype=f.coeffs.dtype)
    c[: len(f.coeffs)] = f.coeffs
    return CoeffSeries(c)


def fit_degree(f: CoeffSeries, valid_degree: int) -> CoeffSeries:
    """Truncate or zero-pad to the requested degree (pad assumes polynomial)."""
    if valid_degree <= f.valid_degree:
        return truncate(f, valid_degree)
    return pad(f, valid_degree)


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
    return float(np.linalg.norm(f.coeffs))


def axpy(a: complex, f: CoeffSeries, g: CoeffSeries) -> CoeffSeries:
    """a*f + g coefficientwise; valid degree is the minimum of the inputs."""
    m = min(f.valid_degree, g.valid_degree) + 1
    return CoeffSeries(a * f.coeffs[:m] + g.coeffs[:m])


def cauchy_product(f: CoeffSeries, g: CoeffSeries) -> CoeffSeries:
    """Coefficient convolution (fg)_j = sum_i f_i g_{j-i}.

    Valid degree is min of the inputs: coefficient j of the product needs
    both factors through degree j, so that window is truncation-safe.
    """
    m = min(f.valid_degree, g.valid_degree)
    return CoeffSeries(np.convolve(f.coeffs, g.coeffs)[: m + 1])


def formal_log(f: CoeffSeries) -> CoeffSeries:
    """Formal logarithm g = log f with g determined by g'*f = f'.

    g_0 = log f_0 (principal branch) and for j >= 1

        g_j = f_j/f_0 - (1/j) * sum_{i=1}^{j-1} i * g_i * f_{j-i} / f_0.

    With fn = f/f_0 and a_j = j*g_j this is the unit lower-triangular
    Toeplitz system sum_{i=1}^{j} fn_{j-i} a_i = j*fn_j.  It is solved by
    forward substitution in blocks of ``_LOG_BLOCK`` degrees: one
    triangular solve per block, then one convolution pushes the block into
    the later right-hand sides.  Only fn_0 .. fn_d enter, d being the last
    nonzero coefficient, so the cost is O(N*(d+B)) with B = ``_LOG_BLOCK``
    instead of O(N^2).  No composition-radius issues.  Valid degree preserved.

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
        lower = toeplitz(col, np.zeros(m))
        for s in range(1, n + 1, m):
            e = min(s + m, n + 1)
            a[s:e] = solve_triangular(
                lower[: e - s, : e - s], a[s:e], lower=True,
                unit_diagonal=True, check_finite=False,
            )
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


def shift_up(f: CoeffSeries) -> CoeffSeries:
    """Multiplication by z (the unilateral shift); valid degree grows by one."""
    c = np.empty(len(f.coeffs) + 1, dtype=f.coeffs.dtype)
    c[0] = 0.0
    c[1:] = f.coeffs
    return CoeffSeries(c)


def one_minus_shift(f: CoeffSeries) -> CoeffSeries:
    """Multiplication by (1-z); inverse of :func:`cumsum` on the shared window.

    Output coefficient j = f_j - f_{j-1}.  The difference at degree
    valid+1 would need the unknown coefficient f_{valid+1}, so the valid
    degree is preserved, not grown.
    """
    c = f.coeffs.copy()
    c[1:] -= f.coeffs[:-1]
    return CoeffSeries(c)


# ---------------------------------------------------------------------------
# serialization: JSON object {"valid_degree": N, "re": [...], "im": [...]}
# and CSV rows (index, re, im).  Floats carry 17 significant digits so the
# textual forms round-trip exactly in double precision.
# ---------------------------------------------------------------------------


def to_json_dict(f: CoeffSeries) -> dict:
    return {
        "valid_degree": f.valid_degree,
        "re": f.coeffs.real.tolist(),
        "im": f.coeffs.imag.tolist(),
    }


def from_json_dict(d: dict) -> CoeffSeries:
    n = int(d["valid_degree"])
    re = np.asarray(d["re"], dtype=np.float64)
    im = np.asarray(d["im"], dtype=np.float64)
    if len(re) != n + 1 or len(im) != n + 1:
        raise ValueError("coefficient arrays must have length valid_degree + 1")
    return CoeffSeries(re + 1j * im)


def dumps(f: CoeffSeries) -> str:
    return json.dumps(to_json_dict(f))


def loads(s: str) -> CoeffSeries:
    return from_json_dict(json.loads(s))


def write_columns(fh, columns, line_end: str = "\n") -> None:
    """Write equal-length ``columns`` to ``fh`` as comma-separated rows.

    ``columns`` is a list of ``(fmt, values)`` pairs: ``"%d"`` for integer
    columns and ``"%.17g"`` for floats, whose output is the same as
    ``format(x, ".17g")``.  Each block of at most ``_CSV_BLOCK_ROWS`` rows
    is formatted by one ``%`` call on a flat tuple and sent in one write.
    """
    ncols = len(columns)
    row_fmt = ",".join(fmt for fmt, _ in columns) + line_end
    values = [np.asarray(v) for _, v in columns]
    nrows = len(values[0])
    for start in range(0, nrows, _CSV_BLOCK_ROWS):
        block = [v[start:start + _CSV_BLOCK_ROWS].tolist() for v in values]
        rows = len(block[0])
        flat = [None] * (rows * ncols)
        for i, col in enumerate(block):
            flat[i::ncols] = col
        fh.write(row_fmt * rows % tuple(flat))


def write_csv(f: CoeffSeries, path) -> None:
    """Write ``f`` as CSV rows ``index,re,im`` with CRLF line ends, as ``csv.writer`` does."""
    with open(path, "w", newline="") as fh:
        fh.write("index,re,im\r\n")
        write_columns(
            fh,
            [("%d", np.arange(len(f.coeffs))), ("%.17g", f.coeffs.real),
             ("%.17g", f.coeffs.imag)],
            line_end="\r\n",
        )


def read_csv(path) -> CoeffSeries:
    """Read a file written by :func:`write_csv`.

    Raises ValueError unless every data row has the three fields index, re,
    im and the indices read exactly 0, 1, ..., N in order, so a malformed,
    shuffled or gapped file is never loaded as a wrong series.
    """
    rows = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r, [])
        if header[:1] != ["index"]:
            raise ValueError("expected header row starting with 'index'")
        for expected, row in enumerate(r):
            if len(row) != 3:
                raise ValueError(f"data row {expected + 1}: expected 3 fields, got {len(row)}")
            if row[0] != str(expected):
                raise ValueError(
                    f"data row {expected + 1}: expected index {expected}, got {row[0]!r}"
                )
            rows.append(float(row[1]) + 1j * float(row[2]))
    return CoeffSeries(np.asarray(rows, dtype=np.complex128))
