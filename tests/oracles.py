"""Reference computations that only the tests use."""

import hardylab as hl
from hardylab.errors import IndexOutOfRange


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
