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
construction and safe to share.
"""

from __future__ import annotations

import functools
import math
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
    "write_columns",
]

# Degrees solved per triangular block in formal_log; its complex block
# matrix takes 256 KiB.
_LOG_BLOCK = 128

# formal_log refuses a constant term of at most this modulus.
_MIN_CONSTANT = 1e-300

# numpy refuses an array of more bytes than this, intp's max.
_MAX_ARRAY_BYTES = np.iinfo(np.intp).max

# Rows encoded per block by write_columns; a block's character matrix,
# at most 25 bytes a float cell and 21 an int cell, takes at most 200 KiB
# a float column and 168 KiB an int column however long the table is.
_CSV_BLOCK_ROWS = 8192


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

    This is the expression numpy's own 1-d fast path evaluates (one dot
    per real part), without its argument handling, so the value is the
    same bit for bit.
    """
    if c.dtype.kind == "c":
        re, im = c.real, c.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(c.dot(c))


def _row_norms(c: np.ndarray) -> np.ndarray:
    """:func:`array_norm` of each row on the last axis of ``c``, bit for bit.

    ``np.vecdot`` runs the same BLAS dot per row as ``ndarray.dot`` does on
    one row.
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


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def write_columns(fh, columns) -> None:
    """Write equal-length ``columns`` to the binary file ``fh`` as comma-separated rows.

    Each column's encoder follows from its dtype: the cells of a
    signed-integer column read ``str(v)`` and those of a float64 column
    ``format(x, ".17g")``; any other dtype raises :class:`TypeError`.
    Each block of at most ``_CSV_BLOCK_ROWS`` rows is laid out as one uint8
    character matrix, in which a 0 byte marks a position the cell leaves
    out (a leading digit zero, a trailing fraction zero, an absent sign or
    point), and is sent in one write with its 0 bytes dropped.  Only rows
    ending in a zero digit are masked in a float column, and only rows
    narrower than the widest in an int column; every other row keeps all
    its digits.  Every finite nonzero float is encoded exactly with
    integer arithmetic (:func:`_float_cells`) and zeros are laid out
    directly; nan, inf and the rare rows :func:`_scaled_decimal` leaves
    uncertain are formatted by ``format``, one cell at a time.  The float
    columns of a block share one encoder call.  Tests pin the bytes to the
    per-value formatting.  No columns, or columns of unequal length, raise
    :class:`ValueError`.
    """
    values = [(_cell_encoder(v.dtype), v) for v in map(np.asarray, columns)]
    lengths = sorted({len(v) for _, v in values})
    if len(lengths) != 1:
        raise ValueError(f"write_columns needs columns of one length, got lengths {lengths}")
    seps = [ord(",")] * (len(values) - 1) + [ord("\n")]
    nrows = lengths[0]
    for start in range(0, nrows, _CSV_BLOCK_ROWS):
        rows = min(_CSV_BLOCK_ROWS, nrows - start)
        block = [v[start:start + rows] for _, v in values]
        floats = [v for (encode, _), v in zip(values, block) if encode is _float_cells]
        float_cells = iter(_float_cells(np.concatenate(floats)).reshape(len(floats), rows, -1)
                           if floats else ())
        parts = []
        for (encode, _), v, sep in zip(values, block, seps):
            cells = next(float_cells) if encode is _float_cells else encode(v)
            parts += [cells, np.full((rows, 1), sep, dtype=np.uint8)]
        mat = np.concatenate(parts, axis=1)
        fh.write(mat.tobytes().translate(None, b"\0"))


def _cell_encoder(dtype: np.dtype):
    """:func:`_int_cells` for signed integers, :func:`_float_cells` for float64."""
    if np.issubdtype(dtype, np.signedinteger):
        return _int_cells
    if dtype == np.float64:
        return _float_cells
    raise TypeError(f"write_columns encodes signed-integer and float64 columns, not {dtype}")


@functools.cache
def _digits4() -> np.ndarray:
    """The strings "0000" .. "9999" as native uint32 words, so that one gather writes four digits.

    Built on first use and in place: digit i of each word is broadcast
    along its own axis of a (10, 10, 10, 10, 4) byte array, so no
    temporary outgrows the 40 KB table.
    """
    words = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for i in range(4):
        words[..., i] = digits.reshape([10 if axis == i else 1 for axis in range(4)])
    words.flags.writeable = False
    return words.view(np.uint32).ravel()


_POW10 = np.array([10**e for e in range(20)], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
_ONES64 = np.uint64(0xFFFFFFFFFFFFFFFF)
# Decimal exponents the encoder takes: those of every finite nonzero
# double, -324 .. 308, and one more decade each side for the fix-up loop.
_P_MIN, _P_MAX = -325, 309


@functools.cache
def _pow5_table():
    """5^q for q = 16 - p, p from ``_P_MAX`` down to ``_P_MIN``, as 128-bit truncations.

    Returns ``(hi, lo, s, inexact_hi, inexact)``: row i (q = 16 - _P_MAX +
    i) holds T = hi * 2^64 + lo in [2^127, 2^128), with 5^q = (T + delta) *
    2^s and 0 <= delta < 1.  ``inexact`` marks delta > 0, which holds
    outside 0 <= q <= 55, and ``inexact_hi`` marks lo + delta > 0, which
    holds outside 0 <= q <= 27.  For q < 0, T = floor(2^-s / 5^-q).  Built
    on first use by repeated division and multiplication by 5: floor(2^1024
    / 5^k) shifted right keeps the top 128 bits of 2^1024 / 5^k, because
    nested floors of quotients compose.
    """
    rows, exact = [], []
    r = 1 << 1024
    for _ in range(_P_MAX - 16):
        r //= 5
        j = r.bit_length() - 128
        rows.append((r >> j, j - 1024))
        exact.append(False)
    rows.reverse()
    f = 1
    for _ in range(17 - _P_MIN):
        j = f.bit_length() - 128
        rows.append((f >> j, j) if j > 0 else (f << -j, j))
        exact.append(j <= 0)
        f *= 5
    hi = np.array([t >> 64 for t, _ in rows], dtype=np.uint64)
    lo = np.array([t & 0xFFFFFFFFFFFFFFFF for t, _ in rows], dtype=np.uint64)
    s = np.array([j for _, j in rows], dtype=np.int64)
    inexact = ~np.array(exact)
    table = hi, lo, s, inexact | (lo != 0), inexact
    for column in table:
        column.flags.writeable = False
    return table


def _digit_groups(d: np.ndarray, groups: int) -> np.ndarray:
    """The ``4 * groups`` lowest decimal digits of each uint64 in ``d``, one ASCII row each."""
    g = np.empty((len(d), groups), dtype=np.intp)
    for i in range(groups - 1, -1, -1):
        rest = d // np.uint64(10000)
        g[:, i] = d - rest * np.uint64(10000)
        d = rest
    return _digits4()[g].view(np.uint8)


def _int_cells(v: np.ndarray) -> np.ndarray:
    """``str(v)`` of each int64 entry as one row, with 0 bytes in unused positions."""
    v = v.astype(np.int64, copy=False)
    u = v.view(np.uint64)
    neg = v < 0
    mag = np.where(neg, -u, u)  # uint64 negation wraps, so -2^63 gives 2^63
    ndig = np.maximum(np.searchsorted(_POW10, mag, side="right"), 1)
    width = int(ndig.max(initial=1))
    cells = np.empty((len(v), width + 1), dtype=np.uint8)
    cells[:, 0] = np.where(neg, ord("-"), 0)
    groups = -(-width // 4)
    digits = _digit_groups(mag, groups)[:, 4 * groups - width:]
    cells[:, 1:] = digits
    # Only rows narrower than the widest have leading zeros to mask.
    short = np.flatnonzero(ndig < width)
    cells[short, 1:] *= np.arange(width, 0, -1) <= ndig[short, None]
    return cells


def _mul64(m: np.ndarray, f: np.ndarray):
    """(hi, lo) with m * f = hi * 2^64 + lo, for uint64 arrays ``m`` < 2^53 and ``f``.

    The product is formed exactly from 32-bit limbs.
    """
    m0, m1 = m & _LOW32, m >> np.uint64(32)
    f0, f1 = f & _LOW32, f >> np.uint64(32)
    u = m0 * f0
    carry = (u >> np.uint64(32)) + m1 * f0  # below 2^54, as m1 < 2^21
    v = m0 * f1
    acc = (v & _LOW32) + carry
    hi = (v >> np.uint64(32)) + m1 * f1 + (acc >> np.uint64(32))
    return hi, (acc << np.uint64(32)) | (u & _LOW32)


def _scaled_decimal(m: np.ndarray, e: np.ndarray, p: np.ndarray):
    """Floor and round (ties to even) of m * 2^e * 10^(16 - p) for any p in ``_P_MIN .. _P_MAX``.

    ``m`` is a uint64 array in [2^52, 2^53).  With 5^(16 - p) = (hi * 2^64
    + lo + delta) * 2^s from :func:`_pow5_table`, floor(2 * m * 2^e *
    10^(16 - p)) is m * (hi + (lo + delta) / 2^64) shifted right by b = p
    - s - e - 81 bits, and b lies in 57 .. 63 when the floor is within a
    decade of [10^16, 10^17).  The 117-bit product m * hi is formed first.
    What it leaves out is below m < 2^53, so it can carry into bit b only
    where bits [53, b) of m * hi are all ones; only those rows, when lo or
    delta is nonzero, add the top 64 bits of m * lo.  What is then left
    out, the low 64 bits of m * lo and m * delta / 2^64, is below 2 units
    of bit 0: where delta > 0 and bits [0, b) are all ones it may still
    carry, and such a row is *uncertain* and reads floor 10^16 (so the
    fix-up loop leaves it) and round 0.  Every other row whose product is
    not exact has sticky bits below b and cannot be a tie, so rounding on
    bit b is exact.
    """
    hi, lo, s, inexact_hi, inexact = _pow5_table()
    i = _P_MAX - p
    top, low = _mul64(m, hi[i])
    b = (p - s[i] - e - 81).astype(np.uint64)
    up_shift = np.uint64(64) - b
    shifted = (top << up_shift) | (low >> b)
    tail = low << up_shift  # bits [0, b) at the top of the word
    rough = inexact_hi[i]
    sticky = rough | (tail != 0)
    near = np.flatnonzero(rough)
    near = near[(~tail[near] >> (np.uint64(117) - b[near])) == 0]
    uncertain = near
    if len(near):
        j, shift, up = i[near], b[near], up_shift[near]
        add, rest = _mul64(m[near], lo[j])
        low = low[near] + add
        top = top[near] + (low < add)
        shifted[near] = (top << up) | (low >> shift)
        tail = low << up
        sticky[near] = inexact[j] | (tail != 0) | (rest != 0)
        uncertain = near[inexact[j] & (tail == (_ONES64 << up))]
    floor = shifted >> np.uint64(1)
    # shifted is 2 * floor + the half bit; adding 1 where sticky or floor
    # is odd rounds half to even.
    d = (shifted + ((floor & np.uint64(1)) | sticky)) >> np.uint64(1)
    floor[uncertain] = _POW10[16]
    d[uncertain] = 0
    return floor, d


def _decimal(m: np.ndarray, e: np.ndarray, p: np.ndarray) -> np.ndarray:
    """D = round(m * 2^e * 10^(16 - p)), moving each p until 10^16 <= floor < 10^17.

    ``p`` is updated in place; each row that misses that range moves by one
    decade and is computed again.
    """
    floor, d = _scaled_decimal(m, e, p)
    # floor - 10^16 wraps round for floor < 10^16, so one test finds both misses.
    redo = np.flatnonzero(floor - _POW10[16] >= _POW10[17] - _POW10[16])
    while len(redo):
        p[redo] += np.where(floor[redo] < _POW10[16], -1, 1)
        floor[redo], d[redo] = _scaled_decimal(m[redo], e[redo], p[redo])
        redo = redo[floor[redo] - _POW10[16] >= _POW10[17] - _POW10[16]]
    return d


def _float_cells(x: np.ndarray) -> np.ndarray:
    """``format(x, ".17g")`` of each float64 entry as one row, with 0 bytes in unused positions.

    For finite nonzero x the 17 significant digits are D = round(|x| *
    10^(16 - p)), with p = floor(log10|x|) the decimal exponent, so that
    10^16 <= floor(|x| * 10^(16 - p)) < 10^17.  p starts from the float
    log10 and moves by one for each row that misses that range, and
    :func:`_scaled_decimal` computes D exactly.  D rounds up to 10^17 for
    fourteen doubles just below a power of ten (none in 1e-11 < |x| < 1e16,
    a test checks this); it is carried to D = 10^16 at p + 1, the exponent
    %g prints.  The digits are laid out by %g's rules, fixed notation for
    -4 <= p < 17 and d.ddde-XX or d.ddde+XX otherwise, without trailing
    fraction zeros: the rows are sorted by p, each run of equal p is placed
    with slice copies, and one row gather puts the rows back in order.
    Zeros are laid out directly; nan, inf and the rows
    :func:`_scaled_decimal` leaves uncertain are formatted by ``format``
    and copied over their rows.
    """
    x = x.astype(np.float64, copy=False)
    a = np.abs(x)
    special = np.flatnonzero(~((a > 0) & (a < np.inf)))
    a[special] = 1.0  # a stand-in for zeros, nan and inf, whose rows are replaced below
    frac, e = np.frexp(a)
    m, e = (frac * 2.0**53).astype(np.uint64), e.astype(np.int64) - 53
    p = np.floor(np.log10(a)).astype(np.int64)
    d = _decimal(m, e, p)
    top = np.flatnonzero(d == _POW10[17])
    d[top] = _POW10[16]
    p[top] += 1
    slow = np.flatnonzero(d == 0)
    order = np.argsort(p.astype(np.int16), kind="stable")
    p, d = p[order], d[order]
    digits = _digit_groups(d, 5)[:, 3:]
    # Only rows ending in a zero digit can lose digits, so only they are
    # masked.  Fixed notation keeps every integer digit; trailing fraction
    # zeros go.
    ndig = np.full(len(d), 17)
    ends0 = np.flatnonzero(d % np.uint64(10) == 0)
    ndig[ends0] = 17 - np.argmax(digits[ends0, ::-1] != ord("0"), axis=1)
    digits[ends0] *= np.arange(17) < np.maximum(ndig[ends0], p[ends0] + 1)[:, None]
    out = np.zeros((len(d), 24), dtype=np.uint8)
    out[:, 0] = np.where(x[order] < 0, ord("-"), 0)
    cuts = (np.flatnonzero(np.diff(p)) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [len(p)]):
        exp = int(p[lo])
        c, dg, nd = out[lo:hi], digits[lo:hi], ndig[lo:hi]
        if 0 <= exp < 17:
            c[:, 1:exp + 2] = dg[:, :exp + 1]
            c[:, exp + 2] = np.where(nd > exp + 1, ord("."), 0)
            c[:, exp + 3:19] = dg[:, exp + 1:]
        elif -4 <= exp < 0:
            c[:, 1:2 - exp] = np.frombuffer(b"0." + b"0" * (-exp - 1), dtype=np.uint8)
            c[:, 2 - exp:19 - exp] = dg
        else:
            if exp >= 17:  # the mask above kept p + 1 digits
                dg = dg * (np.arange(17) < nd[:, None])
            c[:, 1] = dg[:, 0]
            c[:, 2] = np.where(nd > 1, ord("."), 0)
            c[:, 3:19] = dg[:, 1:]
            tag = b"e%+03d" % exp
            c[:, 19:19 + len(tag)] = np.frombuffer(tag, dtype=np.uint8)
    back = np.empty_like(order)
    back[order] = np.arange(len(order))
    cells = np.take(out, back, axis=0)
    if len(special):
        zeros = special[x[special] == 0]
        cells[zeros, 0] = np.where(np.signbit(x[zeros]), ord("-"), 0)
        cells[zeros, 1] = ord("0")
        slow = np.concatenate([special[x[special] != 0], slow])
    if len(slow):
        text = [format(v, ".17g") for v in x[slow].tolist()]
        lens = np.fromiter(map(len, text), dtype=np.intp, count=len(text))
        block = np.zeros((len(slow), 24), dtype=np.uint8)
        block[np.arange(24) < lens[:, None]] = np.frombuffer("".join(text).encode(), dtype=np.uint8)
        cells[slow] = block
    return cells
