"""Acceptance suite: one test per contract criterion, at its stated tolerance.

Each test prints a single summary line (visible with ``pytest -s`` or
``-rA``) and then asserts, so the suite doubles as a human-readable
scorecard.  Random draws are seeded; everything here is deterministic.
"""

import numpy as np
import pytest

import hardylab as hl
from hardylab.verify import (
    random_series,
    suite_adjoint,
    suite_cyclic,
    suite_dirichlet,
    suite_hk,
    suite_isometry,
    suite_semiconjugacy,
    suite_semigroup,
    suite_spectral,
)
from oracles import difference_span_orthogonality

SEED = 20240817


def report(number, name, detail, ok):
    line = f"[criterion {number:02d}] {name}: {detail} -- {'PASS' if ok else 'FAIL'}"
    print(line)
    return line


def assert_checks(number, name, detail, checks, extra_ok=True):
    """Report the criterion and assert ``extra_ok`` and that every suite check passed."""
    ok = extra_ok and all(c.passed for c in checks)
    line = report(number, name, detail, ok)
    assert ok, "\n".join([line] + [c.line() for c in checks])


@pytest.fixture(scope="module")
def spectral_checks():
    return suite_spectral(seed=SEED + 9)


def test_c01_adjoint_duality():
    checks = suite_adjoint(seed=SEED)
    assert_checks(1, "adjoint duality",
                  f"max normalized gap {checks[0].max_err:.3e} vs 1e-10", checks)


def test_c02_isometry():
    # the suite starts at n = 2; the n = 1 term of the criterion is exactly 0
    checks = suite_isometry(seed=SEED + 1)
    assert_checks(2, "isometry scaling sqrt(n)",
                  f"max rel err {checks[0].max_err:.3e} vs 1e-12", checks)


def test_c03_semigroup_law():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(20):
        f = random_series(rng, 128)
        w6 = hl.weighted_dilation(6, f)
        for outer, inner_ in ((2, 3), (3, 2)):
            composed = hl.weighted_dilation(outer, hl.weighted_dilation(inner_, f))
            assert composed.valid_degree == w6.valid_degree
            worst = max(worst, float(np.max(np.abs(composed.coeffs - w6.coeffs))))
    ok = worst <= 1e-14
    line = report(3, "semigroup law 2*3 = 6", f"max coeff diff {worst:.3e} vs 1e-14", ok)
    assert ok, line


def test_c04_adjoint_inverts_dilation():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(100):
        f = random_series(rng, 200)
        for n in (2, 3, 5, 7, 10):
            back = hl.weighted_dilation_adjoint(n, hl.weighted_dilation(n, f))
            assert back.valid_degree == f.valid_degree
            worst = max(
                worst, float(np.max(np.abs(back.coeffs - n * f.coeffs))) / hl.norm(f)
            )
    ok = worst <= 1e-13
    line = report(4, "adjoint of image is n*f", f"max err {worst:.3e} vs 1e-13*||f||", ok)
    assert ok, line


def test_c05_semiconjugacy():
    checks = suite_semiconjugacy(seed=SEED + 4)
    assert_checks(5, "semiconjugacy residual",
                  f"max {checks[0].max_err:.3e} vs 0", checks)


def test_c06_hk_mutual_oracle():
    checks = suite_hk(seed=SEED + 5)
    assert_checks(6, "h_k closed form vs formal-log oracle",
                  f"max coeff diff {checks[0].max_err:.3e} vs 1e-12", checks)


def test_c07_hk_dilation_identity():
    worst = 0.0
    for n in (2, 3):
        for k in (2, 3, 5):
            lhs = hl.weighted_dilation(n, hl.hk_closed_form(k, 600))
            deg = lhs.valid_degree
            rhs = hl.axpy(-1.0, hl.hk_closed_form(n, deg), hl.hk_closed_form(n * k, deg))
            worst = max(worst, float(np.max(np.abs(lhs.coeffs - rhs.coeffs))))
    ok = worst <= 1e-12
    line = report(7, "dilation identity on h_k", f"max coeff diff {worst:.3e} vs 1e-12", ok)
    assert ok, line


def test_c08_kernel_facts():
    kill = 0.0
    for n in (2, 3, 5):
        for k in range(5):
            img = hl.weighted_dilation_adjoint(n, hl.pad(hl.kernel_vector(n, k), 8 * n))
            kill = max(kill, float(np.max(np.abs(img.coeffs))))

    basis_kill = 0.0
    for j in range(1, 6):
        member = hl.pad(hl.kernel_intersection_basis(j)[j - 1], 12)
        for n in range(j + 1, 13):
            img = hl.weighted_dilation_adjoint(n, member)
            basis_kill = max(basis_kill, float(np.max(np.abs(img.coeffs))))

    witness = hl.weighted_dilation_adjoint(2, hl.pad(hl.kernel_intersection_basis(2)[1], 3))
    witness_ok = bool(np.array_equal(witness.coeffs, [1, -1]))

    orth = 0.0
    vecs = [hl.kernel_vector(2, k) for k in range(8)]
    for i in range(8):
        for j in range(i + 1, 8):
            orth = max(orth, abs(hl.inner(vecs[i], vecs[j])))

    ok = kill == 0.0 and basis_kill == 0.0 and witness_ok and orth == 0.0
    line = report(8, "kernel facts",
                  f"kernel images {kill:.1e}, basis images {basis_kill:.1e}, "
                  f"escape witness = 1 - z: {witness_ok}, orthogonality {orth:.1e}", ok)
    assert ok, line


def test_c09_dirichlet_bound():
    ratio, _, energy_one, energy_zero = checks = suite_dirichlet(seed=SEED + 8)
    assert_checks(9, "tail-sum energy bound 2^n n ||f||^2",
                  f"max ratio {ratio.max_err:.4f} vs 1; D(1-z)=1: {energy_one.passed}; "
                  f"D(1)=0: {energy_zero.passed}", checks)


def test_c10_eigenvector_residual(spectral_checks):
    const_pair = hl.adjoint_eigenvector(2, 1.0, 4)
    expected = np.zeros(16)
    expected[0] = 1.0
    const_exact = bool(
        np.array_equal(const_pair.vector.coeffs, expected) and const_pair.residual == 0
    )
    zero_pair = hl.adjoint_eigenvector(2, 0.0, 1)
    zero_exact = bool(
        np.array_equal(zero_pair.vector.coeffs, [1, -1]) and zero_pair.residual == 0
    )
    assert_checks(10, "adjoint eigenvector residual",
                  f"max normalized residual {spectral_checks[0].max_err:.3e} vs 1e-10; "
                  f"lam=1 exact: {const_exact}; lam=0 gives 1-z: {zero_exact}",
                  spectral_checks, const_exact and zero_exact)


def test_c11_shift_decay(spectral_checks):
    decay = spectral_checks[2]
    assert_checks(11, "rescaled adjoint decay on the constant",
                  f"max |d_m - 2^(-m/2)| = {decay.max_err:.3e} vs 1e-14", [decay])


def test_c12_baez_duarte_sequence():
    n_big = 2**14
    n_small = 2**13
    seq_big = hl.baez_duarte_sequence(50, n_big)
    seq_small = hl.baez_duarte_sequence(50, n_small)

    d_big = np.array([rep.distance for _, rep in seq_big])
    positive = bool(np.all(d_big > 1e-8))
    nonincreasing = bool(np.all(np.diff(d_big) <= 1e-12))

    h2 = hl.hk_closed_form(2, n_big)
    d2_formula = np.sqrt(1 - abs(hl.inner(hl.one(n_big), h2)) ** 2 / hl.norm(h2) ** 2)
    d2_ok = abs(d_big[0] - d2_formula) <= 1e-10

    stability_ok = True
    worst_excess = 0.0
    for (k, rep_small), (_, rep_big) in zip(seq_small, seq_big):
        tail = sum(
            abs(c) * hl.hk_tail_norm_bound(j, n_small)
            for j, c in zip(range(2, k + 1), rep_small.coefficients)
        )
        gap = abs(rep_small.distance - rep_big.distance)
        worst_excess = max(worst_excess, gap / tail)
        if gap > tail:
            stability_ok = False

    ok = positive and nonincreasing and d2_ok and stability_ok
    line = report(12, "distance sequence d_K, K = 2..50 at N = 2^14",
                  f"positive: {positive}, nonincreasing: {nonincreasing}, "
                  f"d_2 formula gap {abs(d_big[0] - d2_formula):.2e} vs 1e-10, "
                  f"truncation gap <= tail bound: {stability_ok} "
                  f"(max fraction used {worst_excess:.3f})", ok)
    assert ok, line


def test_c13_difference_span_orthogonality():
    worst = difference_span_orthogonality(20)
    h2 = hl.hk_closed_form(2, 1)
    sanity = abs(hl.inner(h2, hl.from_coeffs([1, -1])))
    ok = worst <= 1e-12 and abs(sanity - 1.0) <= 1e-12
    line = report(13, "h_k - h_l differences orthogonal to 1 - z",
                  f"max pairing {worst:.3e} vs 1e-12; |<h_2, 1-z>| = {sanity:.12f}", ok)
    assert ok, line


def test_c14_cyclicity():
    n_trunc = 256
    p = hl.from_coeffs([-2.0, 1.0])
    target = hl.one(n_trunc)
    d8 = hl.cyclicity_scan(p, 8, [target], n_trunc)[0].distance
    d64 = hl.cyclicity_scan(p, 64, [target], n_trunc)[0].distance
    decrease_ok = d64 < d8

    checks = suite_cyclic(seed=SEED + 13)
    assert_checks(14, "cyclicity experiments",
                  f"d(n<=64) = {d64:.6f} < d(n<=8) = {d8:.6f}: {decrease_ok}; "
                  f"orbit pairing with 1-z max {checks[0].max_err:.3e} vs 0",
                  checks, decrease_ok)


def test_c15_no_eigenvector_gap():
    checks = suite_semigroup(seed=SEED + 14)
    assert_checks(15, "Cauchy-Schwarz gap for the index-2 dilation",
                  f"{checks[1].note} > 1e-12", checks)
