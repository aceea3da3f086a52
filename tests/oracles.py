"""Reference computations that only the tests use."""

import math

import numpy as np
from scipy.linalg import solve_triangular, toeplitz

import hardylab as hl
from hardylab.errors import IndexOutOfRange
from hardylab.series import _LOG_BLOCK
from hardylab.verify import CheckResult


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
    lhs = hl.inner(hl.truncate(hl.weighted_dilation(n, f), n * m2 + n - 1), g)
    rhs = hl.inner(hl.truncate(f, m2), adj)
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
    head = hl.truncate(f, min(f.valid_degree, adj.valid_degree))
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


SERIES_SUITES = {
    "adjoint": series_suite_adjoint,
    "isometry": series_suite_isometry,
    "semigroup": series_suite_semigroup,
}
