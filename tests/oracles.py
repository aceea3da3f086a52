"""Reference computations that only the tests use."""

import math
from itertools import accumulate, repeat
from operator import mul

import numpy as np
from scipy.linalg import solve_triangular, toeplitz

import hardylab as hl
from hardylab.errors import IndexOutOfRange
from hardylab.series import _LOG_BLOCK, array_norm
from hardylab.verify import CheckResult


def zero(valid_degree: int = 0):
    """The zero series, exact through ``valid_degree``."""
    return hl.CoeffSeries(np.zeros(valid_degree + 1))


def monomial(degree: int, valid_degree: int | None = None):
    """z^degree, exact through ``valid_degree`` (default: ``degree``)."""
    c = np.zeros((degree if valid_degree is None else valid_degree) + 1)
    c[degree] = 1.0
    return hl.CoeffSeries(c)


def truncate(f, valid_degree: int):
    """``f`` restricted to degrees 0 .. valid_degree, at most its own valid degree."""
    if not 0 <= valid_degree <= f.valid_degree:
        raise ValueError(f"cannot truncate degree {f.valid_degree} to {valid_degree}")
    return hl.CoeffSeries(f.coeffs[: valid_degree + 1])


def difference_span_orthogonality(k_max: int) -> float:
    """max over 2 <= k < l <= k_max of |<h_k - h_l, 1 - z>|.

    Every difference h_k - h_l is orthogonal to 1 - z because the first
    two coefficients of each h_k differ by exactly 1 regardless of k; the
    returned maximum is zero up to rounding (<= 1e-12).
    """
    if k_max < 3:
        raise IndexOutOfRange(f"k_max must be >= 3, got {k_max}")
    one_minus_z = hl.from_coeffs([1.0, -1.0])
    hs = {k: hl.hk_closed_form(k, 1) for k in range(2, k_max + 1)}
    worst = 0.0
    for k in range(2, k_max + 1):
        for ell in range(k + 1, k_max + 1):
            diff = hl.from_coeffs(hs[k].coeffs - hs[ell].coeffs)
            worst = max(worst, abs(hl.inner(diff, one_minus_z)))
    return worst


def two_truncation_duality_gap(n: int, f, g) -> float:
    """|<Wf, g> - <f, W*g>| with the dilation applied to all of f, then cut.

    The earlier form of ``verify.adjoint_duality_gap``: it dilates the whole
    of f and truncates the image to the degrees the complete blocks of W*g
    cover, then truncates f a second time for the right pairing.
    """
    adj = hl.weighted_dilation_adjoint(n, g)
    m2 = min(f.valid_degree, adj.valid_degree)
    lhs = hl.inner(truncate(hl.weighted_dilation(n, f), n * m2 + n - 1), g)
    rhs = hl.inner(truncate(f, m2), adj)
    return abs(lhs - rhs)


def one_minus_shift(f):
    """Multiplication by (1-z); inverse of ``hl.cumsum`` on the shared window.

    Output coefficient j = f_j - f_{j-1}.  The difference at degree
    valid+1 would need the unknown coefficient f_{valid+1}, so the valid
    degree is preserved, not grown.
    """
    c = f.coeffs.copy()
    c[1:] -= f.coeffs[:-1]
    return hl.CoeffSeries(c)


def solve_triangular_formal_log(f) -> np.ndarray:
    """Coefficients of ``hl.formal_log(f)`` with each block solved by ``solve_triangular``.

    The blocked forward substitution of :func:`hardylab.formal_log` before it
    called LAPACK's ``?trtrs`` itself; the two must agree bit for bit.
    """
    f0 = complex(f.coeffs[0])
    n = f.valid_degree
    with np.errstate(all="ignore"):
        fn = np.trim_zeros(f.coeffs / f0, "b")
        d = len(fn) - 1
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
    return g


def python_complex_bands(n: int, lams, level: int) -> np.ndarray:
    """Eigenvector band values by the per-point Python complex recurrence.

    The scan's band builder before it ran on float64 arrays: b_0 = (lam-1)/(n-1)
    and b_l = b_(l-1) * (lam/n), one Python complex product at a time.
    """
    rows = [list(accumulate(repeat(lam / n, level - 1), mul, initial=(lam - 1) / (n - 1)))
            for lam in np.asarray(lams, dtype=np.complex128).reshape(-1).tolist()]
    return np.array(rows, dtype=np.complex128).reshape(-1, level)


def series_adjoint_eigenvector(n: int, lam: complex, level: int):
    """(vector, residual, tail mass) of ``hl.adjoint_eigenvector`` through series operations.

    Its earlier form: the adjoint of the vector as a ``CoeffSeries`` and both
    norms by ``np.linalg.norm``.
    """
    lam = complex(lam)
    bands = accumulate(repeat(lam / n, level - 1), mul, initial=(lam - 1) / (n - 1))
    v = np.repeat([1.0, *bands], [1] + [n**ell * (n - 1) for ell in range(level)])
    vec = hl.CoeffSeries(v)
    adj = hl.weighted_dilation_adjoint(n, vec)
    window = n ** (level - 1)
    residual = float(np.linalg.norm(adj.coeffs - lam * v[:window]))
    return vec.coeffs, residual, float(np.linalg.norm(v[window:]))


# ---------------------------------------------------------------------------
# One row at a time: the loop bodies the row-stack suites reduce in one call
# ---------------------------------------------------------------------------


def row_duality_gap(n: int, f: np.ndarray, g: np.ndarray) -> float:
    """|<Wf, g> - <f, W*g>| for one pair of 1-d rows, with ``np.vdot`` and Python's ``abs``."""
    adj = hl.weighted_dilation_adjoint_array(n, g)
    head = f[: min(len(f), len(adj))]
    w = hl.weighted_dilation_array(n, head)
    return abs(complex(np.vdot(g[: len(w)], w)) - complex(np.vdot(adj[: len(head)], head)))


def row_adjoint_scale(f: np.ndarray, g: np.ndarray) -> float:
    """||f|| ||g||, the scale the adjoint suite divides each gap by."""
    return array_norm(f) * array_norm(g)


def row_isometry_errors(n: int, f: np.ndarray) -> tuple[float, float]:
    """The isometry and inversion errors of one row, in Python float arithmetic."""
    nf = array_norm(f)
    w = hl.weighted_dilation_array(n, f)
    d = hl.weighted_dilation_adjoint_array(n, w) - n * f
    return abs(array_norm(w) - math.sqrt(n) * nf) / (math.sqrt(n) * nf), array_norm(d) / nf


def row_cauchy_schwarz_gap(f: np.ndarray) -> float:
    """(||Wf||^2||f||^2 - |<Wf,f>|^2) / ||f||^4 at index 2, with Python's ``**`` and ``abs``."""
    wf = hl.weighted_dilation_array(2, f)
    nf = array_norm(f)
    pairing = complex(np.vdot(f, wf[: len(f)]))
    gap = array_norm(wf) ** 2 * nf**2 - abs(pairing) ** 2
    return gap / nf**4


def scalar_dirichlet_energy(c: np.ndarray) -> float:
    """``hl.dirichlet_energy_at_one`` of one row, in its earlier 1-d form."""
    partial = np.cumsum(c)
    tails = partial[-1] - partial
    return float(np.sum(np.abs(tails) ** 2))


def row_dirichlet_ratio(n: int, c: np.ndarray) -> tuple[float, bool]:
    """energy / (2^n n ||f||^2) of one row, and whether energy <= n^2 ||f||^2."""
    energy = scalar_dirichlet_energy(c)
    nf = hl.norm(hl.from_coeffs(c))
    return energy / (2**n * n * nf**2), bool(energy <= n**2 * nf**2)


# ---------------------------------------------------------------------------
# One-series-at-a-time forms of the identity suites that run on row stacks
# ---------------------------------------------------------------------------


def series_random(rng, valid_degree: int):
    """One random complex series from two separate draws (real, then imaginary)."""
    re = rng.standard_normal(valid_degree + 1)
    return hl.from_coeffs(re + 1j * rng.standard_normal(valid_degree + 1))


def series_duality_gap(n: int, f, g) -> float:
    """|<Wf, g> - <f, W*g>| for one pair, built from series operations."""
    adj = hl.weighted_dilation_adjoint(n, g)
    head = truncate(f, min(f.valid_degree, adj.valid_degree))
    lhs = hl.inner(hl.weighted_dilation(n, head), g)
    rhs = hl.inner(head, adj)
    return abs(lhs - rhs)


def series_suite_adjoint(seed: int = 0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(200):
        f = series_random(rng, 512)
        g = series_random(rng, 512)
        scale = hl.norm(f) * hl.norm(g)
        for n in (2, 3, 5, 7):
            worst = max(worst, series_duality_gap(n, f, g) / scale)
    return [CheckResult("adjoint duality <Wf,g> = <f,W*g>", worst, 1e-10)]


def series_suite_isometry(seed: int = 0):
    rng = np.random.default_rng(seed)
    worst_iso = 0.0
    worst_wsw = 0.0
    for _ in range(100):
        f = series_random(rng, 256)
        nf = hl.norm(f)
        for n in range(2, 11):
            wf = hl.weighted_dilation(n, f)
            worst_iso = max(worst_iso, abs(hl.norm(wf) - math.sqrt(n) * nf) / (math.sqrt(n) * nf))
            back = hl.weighted_dilation_adjoint(n, wf)
            worst_wsw = max(
                worst_wsw, hl.norm(hl.from_coeffs(back.coeffs - n * f.coeffs)) / nf
            )
    return [
        CheckResult("isometry ||Wf|| = sqrt(n)||f||", worst_iso, 1e-12),
        CheckResult("adjoint inversion W*Wf = n f", worst_wsw, 1e-13),
    ]


def series_suite_semigroup(seed: int = 0):
    f = hl.from_coeffs(np.exp(1j * np.arange(129)) / np.arange(1, 130))
    worst = 0.0
    for m, n in [(2, 2), (2, 5), (3, 2), (3, 5), (2, 3)]:
        lhs = hl.weighted_dilation(m, hl.weighted_dilation(n, f))
        rhs = hl.weighted_dilation(m * n, f)
        worst = max(worst, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
    results = [CheckResult("semigroup law W_m W_n = W_mn", worst, 0.0)]
    rng = np.random.default_rng(seed)
    min_gap = np.inf
    for _ in range(100):
        f = series_random(rng, 64)
        wf = hl.weighted_dilation(2, f)
        gap = hl.norm(wf) ** 2 * hl.norm(f) ** 2 - abs(hl.inner(wf, f)) ** 2
        min_gap = min(min_gap, gap / hl.norm(f) ** 4)
    results.append(
        CheckResult("no-eigenvector gap (index 2) stays positive", 1e-12 - min_gap, 0.0,
                    note=f"min normalized gap {min_gap:.3e}")
    )
    return results


def series_suite_dirichlet(seed: int = 0):
    rng = np.random.default_rng(seed)
    worst_ratio = 0.0
    sharp_holds = True
    for n in (3, 4):
        for _ in range(50):
            c = series_random(rng, 21 * n - 1).coeffs.reshape(21, n)
            f = hl.from_coeffs((c - c.mean(axis=-1, keepdims=True)).ravel())
            energy = scalar_dirichlet_energy(f.coeffs)
            worst_ratio = max(worst_ratio, energy / (2**n * n * hl.norm(f) ** 2))
            sharp_holds = sharp_holds and energy <= n**2 * hl.norm(f) ** 2
    closed_err = max(
        abs(scalar_dirichlet_energy(hl.kernel_vector(n, 0).coeffs) - (n - 1) * n * (2 * n - 1) // 6)
        for n in range(2, 9)
    )
    return [
        CheckResult("kernel combinations have energy <= 2^n n ||f||^2", worst_ratio, 1.0,
                    note=f"sharper n^2 bound held: {sharp_holds}"),
        CheckResult("energy of kernel_vector(n, 0) is (n-1)n(2n-1)/6", closed_err, 0.0,
                    note="n = 2..8"),
        CheckResult("energy of 1 - z is exactly 1",
                    abs(scalar_dirichlet_energy(np.array([1.0, -1.0])) - 1.0), 0.0),
        CheckResult("energy of the constant is 0", scalar_dirichlet_energy(np.ones(1)), 0.0),
    ]


def series_suite_spectral(seed: int = 0):
    rng = np.random.default_rng(seed)
    worst_resid = worst_norm = 0.0
    for n in (2, 3):
        level = hl.level_for_degree(n, 4096)
        for _ in range(100):
            lam = 0.95 * np.sqrt(n) * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
            vector, residual, _ = series_adjoint_eigenvector(n, lam, level)
            vector_norm = float(np.linalg.norm(vector))
            closed = hl.eigenvector_norm_sq(n, lam, level)
            worst_resid = max(worst_resid, residual / vector_norm)
            worst_norm = max(worst_norm, abs(vector_norm**2 - closed) / closed)
    decay = hl.shift_decay(2, hl.one(2**10 - 1), 10)
    decay_err = max(abs(d - 2 ** (-m / 2)) for m, d in enumerate(decay, start=1))
    f = series_random(rng, 3**6 - 1)
    d = [hl.norm(f)] + hl.shift_decay(3, f, 5)
    return [
        CheckResult("adjoint eigenvector residual", worst_resid, 1e-10),
        CheckResult("eigenvector norm matches closed form", worst_norm, 1e-12),
        CheckResult("rescaled adjoint decay on the constant is 2^(-m/2)", decay_err, 1e-14),
        CheckResult("shift decay sequence is nonincreasing",
                    max(b - a for a, b in zip(d, d[1:])), 1e-12),
    ]


SERIES_SUITES = {
    "adjoint": series_suite_adjoint,
    "dirichlet": series_suite_dirichlet,
    "isometry": series_suite_isometry,
    "semigroup": series_suite_semigroup,
    "spectral": series_suite_spectral,
}
