import dataclasses
import re
import sys
import tracemalloc

import numpy as np
import pytest

import hardylab as hl
from hardylab.errors import (
    DegenerateBasis,
    IndexOutOfRange,
    ResidualMismatch,
)
from hardylab import projection
from hardylab.projection import _residual_norms
from oracles import difference_span_orthogonality, monomial, truncate, zero


def one_vector_distance(target, b):
    """Textbook single-vector projection: sqrt(||t||^2 - |<t,b>|^2 / ||b||^2)."""
    return np.sqrt(hl.norm(target) ** 2 - abs(hl.inner(target, b)) ** 2 / hl.norm(b) ** 2)


class TestDistanceToSpan:
    def test_membership_gives_zero(self):
        h2 = hl.hk_closed_form(2, 1024)
        report = hl.distance_to_span(h2, [h2], 1024)
        assert report.distance <= 1e-10
        assert report.residual_norm_check <= 1e-10

    def test_matches_one_vector_formula(self):
        n_trunc = 1024
        h2 = hl.hk_closed_form(2, n_trunc)
        target = hl.one(n_trunc)
        report = hl.distance_to_span(target, [h2], n_trunc)
        assert report.distance == pytest.approx(
            one_vector_distance(target, h2), abs=1e-12
        )
        # <1, h_2> is the constant coefficient -log 2
        assert report.distance == pytest.approx(
            np.sqrt(1 - np.log(2) ** 2 / hl.norm(h2) ** 2), abs=1e-12
        )

    def test_orthogonal_basis_leaves_target_untouched(self):
        n_trunc = 512
        h = {k: hl.hk_closed_form(k, n_trunc) for k in (2, 3, 5)}
        basis = [hl.axpy(-1, h[3], h[2]), hl.axpy(-1, h[5], h[2])]
        target = hl.pad(hl.from_coeffs([1, -1]), n_trunc)
        report = hl.distance_to_span(target, basis, n_trunc)
        assert report.distance == pytest.approx(np.sqrt(2), abs=1e-10)

    def test_more_members_than_coefficients_raises(self):
        basis = [hl.hk_closed_form(k, 2) for k in range(2, 6)]
        with pytest.raises(DegenerateBasis, match="exceed"):
            hl.distance_to_span(hl.one(2), basis, 2)

    def test_degenerate_basis_raises(self):
        f = hl.hk_closed_form(2, 128)
        with pytest.raises(DegenerateBasis):
            hl.distance_to_span(hl.one(128), [f, hl.axpy(1.0, f, zero(128))], 128)

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError, match="basis must be nonempty"):
            hl.distance_to_span(hl.one(4), [], 4)
        with pytest.raises(ValueError, match="basis must be nonempty"):
            hl.nested_distances([], [hl.one(4)], 4)

    def test_report_invariants_random(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            n_trunc = 64
            target = hl.from_coeffs(
                rng.standard_normal(n_trunc + 1) + 1j * rng.standard_normal(n_trunc + 1)
            )
            basis = [
                hl.from_coeffs(
                    rng.standard_normal(n_trunc + 1) + 1j * rng.standard_normal(n_trunc + 1)
                )
                for _ in range(5)
            ]
            report = hl.distance_to_span(target, basis, n_trunc)
            assert report.distance <= hl.norm(target) + 1e-12
            assert abs(report.distance - report.residual_norm_check) <= 1e-10
            assert report.condition_estimate >= 1.0

    def test_appending_basis_never_increases_distance(self):
        n_trunc = 512
        basis = [hl.hk_closed_form(k, n_trunc) for k in range(2, 8)]
        target = hl.one(n_trunc)
        last = np.inf
        for size in range(1, len(basis) + 1):
            d = hl.distance_to_span(target, basis[:size], n_trunc).distance
            assert d <= last + 1e-12
            last = d

    def test_projection_idempotent(self):
        n_trunc = 256
        basis = [hl.hk_closed_form(k, n_trunc) for k in (2, 3, 4)]
        target = hl.one(n_trunc)
        report = hl.distance_to_span(target, basis, n_trunc)
        projection = zero(n_trunc)
        for c, b in zip(report.coefficients, basis):
            projection = hl.axpy(c, b, projection)
        again = hl.distance_to_span(projection, basis, n_trunc)
        assert again.distance <= 1e-10

    def test_real_and_complex_paths_agree(self):
        n_trunc = 128
        basis = [hl.hk_closed_form(k, n_trunc) for k in (2, 3)]
        target = hl.one(n_trunc)
        real_report = hl.distance_to_span(target, basis, n_trunc)
        spun = [hl.from_coeffs(b.coeffs * np.exp(0.7j)) for b in basis]
        spun_target = hl.from_coeffs(target.coeffs * np.exp(0.3j))
        complex_report = hl.distance_to_span(spun_target, spun, n_trunc)
        # rotating the target by a unimodular scalar preserves the distance
        assert complex_report.distance == pytest.approx(real_report.distance, abs=1e-12)


def prefixes(nested):
    """Each prefix of a :class:`NestedReport`, laid out as the oracle reports it."""
    return [hl.DistanceReport(float(nested.distance[j - 1]), nested.coefficients[:j, j - 1],
                              float(nested.residual_norm_check[j - 1]),
                              float(nested.condition_estimate[j - 1]))
            for j in range(1, len(nested.distance) + 1)]


class TestBaezDuarteSequence:
    def test_sequence_shape_and_monotonicity(self):
        seq = hl.baez_duarte_sequence(10, 2048)
        # entry K - 2 is d_K, for K = 2..10
        assert seq.distance.shape == seq.residual_norm_check.shape == (9,)
        assert seq.condition_estimate.shape == (9,) and seq.coefficients.shape == (9, 9)
        assert np.array_equal(seq.coefficients, np.triu(seq.coefficients))
        d = seq.distance
        assert np.all(np.diff(d) <= 1e-12)
        assert np.all(d > 1e-8)

    def test_first_entry_matches_one_vector_formula(self):
        n_trunc = 2048
        seq = hl.baez_duarte_sequence(2, n_trunc)
        h2 = hl.hk_closed_form(2, n_trunc)
        assert seq.distance[0] == pytest.approx(
            one_vector_distance(hl.one(n_trunc), h2), abs=1e-10
        )

    def test_truncation_stability(self):
        n_small = 1024
        seq_small = hl.baez_duarte_sequence(8, n_small)
        seq_big = hl.baez_duarte_sequence(8, 2 * n_small)
        for rep_small, rep_big in zip(prefixes(seq_small), prefixes(seq_big), strict=True):
            tail = hl.truncation_certificate(rep_small.coefficients, n_small)
            assert abs(rep_small.distance - rep_big.distance) <= 10 * tail

    def test_rejects_small_kmax(self):
        with pytest.raises(IndexOutOfRange):
            hl.baez_duarte_sequence(1, 64)

    @pytest.mark.parametrize("k_max, n_trunc", [(2**63, 64), (3, 2**63)])
    def test_rejects_matrix_past_numpy_array_limit(self, k_max, n_trunc):
        with pytest.raises(IndexOutOfRange, match="array size limit"):
            hl.baez_duarte_sequence(k_max, n_trunc)


def refit(f, n_trunc):
    """``f`` truncated or zero-padded to degree ``n_trunc`` (padding assumes a polynomial)."""
    return truncate(f, n_trunc) if f.valid_degree >= n_trunc else hl.pad(f, n_trunc)


def basis_matrix(basis, n_trunc):
    """The (n_trunc + 1) x j matrix of the basis refitted to degree ``n_trunc``."""
    return np.column_stack([refit(b, n_trunc).coeffs for b in basis])


def assert_matches_oracle(rep, target, basis, n_trunc):
    """The report agrees with distance_to_span on the same span.

    The condition figure is the 1-norm condition number of the basis'
    triangular factor, taken here from numpy's QR of the basis alone.
    """
    oracle = hl.distance_to_span(target, basis, n_trunc)
    assert rep.distance == pytest.approx(oracle.distance, rel=1e-12)
    np.testing.assert_allclose(rep.coefficients, oracle.coefficients, rtol=0, atol=1e-10)
    r = np.linalg.qr(basis_matrix(basis, n_trunc), mode="r")
    assert rep.condition_estimate == pytest.approx(np.linalg.cond(r, 1), rel=1e-10)


def assert_matches_pivoted_oracle(nested, target, basis, n_trunc):
    """Each prefix of a nested report agrees with distance_to_span on the same prefix."""
    assert nested.distance.shape == (len(basis),)
    assert nested.coefficients.shape == (len(basis), len(basis))
    for j, rep in enumerate(prefixes(nested), start=1):
        assert_matches_oracle(rep, target, basis[:j], n_trunc)


class TestNestedDistances:
    @pytest.mark.parametrize("n_trunc", [256, 2048])
    def test_baez_duarte_matches_pivoted_oracle(self, n_trunc):
        seq = hl.baez_duarte_sequence(12, n_trunc)
        basis = [hl.hk_closed_form(k, n_trunc) for k in range(2, 13)]
        assert_matches_pivoted_oracle(seq, hl.one(n_trunc), basis, n_trunc)

    def test_random_complex_basis_matches_pivoted_oracle(self):
        rng = np.random.default_rng(21)
        n_trunc = 64

        def random_series():
            return hl.from_coeffs(
                rng.standard_normal(n_trunc + 1) + 1j * rng.standard_normal(n_trunc + 1)
            )

        target = random_series()
        basis = [random_series() for _ in range(7)]
        nested = hl.nested_distances(basis, [target], n_trunc)[0]
        assert_matches_pivoted_oracle(nested, target, basis, n_trunc)
        assert any(c.imag != 0 for c in nested.coefficients[:, -1])

    def test_real_basis_with_complex_target_matches_pivoted_oracle(self):
        n_trunc = 200
        basis = [hl.hk_closed_form(k, n_trunc) for k in range(2, 8)]
        target = hl.from_coeffs(np.exp(0.4j) * hl.one(n_trunc).coeffs + 0.1j * basis[0].coeffs)
        nested = hl.nested_distances(basis, [target], n_trunc)[0]
        assert_matches_pivoted_oracle(nested, target, basis, n_trunc)
        assert nested.coefficients.dtype == np.complex128

    def test_one_report_list_per_target(self):
        n_trunc = 200
        basis = [hl.hk_closed_form(k, n_trunc) for k in range(2, 8)]
        targets = [hl.one(n_trunc), hl.pad(hl.from_coeffs([1.0, -1.0]), n_trunc)]
        per_target = hl.nested_distances(basis, targets, n_trunc)
        assert len(per_target) == len(targets)
        for nested, target in zip(per_target, targets):
            assert_matches_pivoted_oracle(nested, target, basis, n_trunc)
        assert hl.nested_distances(basis, [], n_trunc) == []

    def test_real_problem_gives_read_only_real_coefficients(self):
        seq = hl.baez_duarte_sequence(6, 128)
        assert seq.coefficients.dtype == np.float64
        rng = np.random.default_rng(22)
        members = [hl.from_coeffs(rng.standard_normal(65) + 1j * rng.standard_normal(65))
                   for _ in range(5)]
        per_target = hl.nested_distances(members[:3], members[3:], 64)
        assert all(nested.coefficients.dtype == np.complex128 for nested in per_target)
        # the targets of one call share one array of condition figures
        assert per_target[0].condition_estimate is per_target[1].condition_estimate
        for nested in [seq, *per_target]:
            for field in dataclasses.fields(hl.NestedReport):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(nested, field.name)[...] = 0.0
        oracle = hl.distance_to_span(hl.one(64), [hl.hk_closed_form(2, 64)], 64)
        with pytest.raises(ValueError):
            oracle.coefficients[0] = 0.0

    def test_duplicated_column_raises(self):
        n_trunc = 128
        h2, h3 = hl.hk_closed_form(2, n_trunc), hl.hk_closed_form(3, n_trunc)
        with pytest.raises(DegenerateBasis):
            hl.nested_distances([h2, h3, h2], [hl.one(n_trunc)], n_trunc)

    def test_more_columns_than_coefficients_raises(self):
        with pytest.raises(DegenerateBasis):
            hl.baez_duarte_sequence(10, 4)

    @pytest.mark.parametrize("targets", [[], [hl.one(1)]], ids=["no_target", "one_target"])
    def test_more_members_than_coefficients_raises_as_the_oracle(self, targets):
        basis = [hl.from_coeffs([1.0, x]) for x in (0.0, 1.0, 2.0)]
        with pytest.raises(DegenerateBasis) as engine:
            hl.nested_distances(basis, targets, 1)
        with pytest.raises(DegenerateBasis) as oracle:
            hl.distance_to_span(hl.one(1), basis, 1)
        assert str(engine.value) == str(oracle.value) == "3 basis members exceed 2 coefficients"

    def test_zero_member_mid_basis_raises(self):
        n_trunc = 128
        h2, h3 = hl.hk_closed_form(2, n_trunc), hl.hk_closed_form(3, n_trunc)
        with pytest.raises(DegenerateBasis, match="zero on its diagonal"):
            hl.nested_distances([h2, zero(n_trunc), h3], [hl.one(n_trunc)], n_trunc)

    def test_rejects_matrix_past_numpy_array_limit(self):
        with pytest.raises(IndexOutOfRange, match="array size limit"):
            hl.nested_distances([hl.one(4)], [hl.one(4)], 2**63)
        with pytest.raises(IndexOutOfRange, match="array size limit"):
            hl.distance_to_span(hl.one(4), [hl.one(4)], 2**63)

    def test_repeated_member_fails_condition_gate(self):
        n_trunc = 128
        h2, h3 = hl.hk_closed_form(2, n_trunc), hl.hk_closed_form(3, n_trunc)
        with pytest.raises(DegenerateBasis, match="reciprocal condition"):
            hl.nested_distances([h2, h3, h2], [hl.one(n_trunc)], n_trunc)


class TestQRBlockEdges:
    """The QR source's ?tpqrt folds 8192-row blocks into R, min(8, m + 1) columns at a time."""

    @staticmethod
    def random_problem(rows, m, complex_basis):
        rng = np.random.default_rng(rows * 100 + m)

        def random_series():
            c = rng.standard_normal(rows)
            return hl.from_coeffs(c + 1j * rng.standard_normal(rows) if complex_basis else c)

        return random_series(), [random_series() for _ in range(m)]

    # rows == m + 1 at 2, 31, 32 and 33 rows; one row takes one member.
    # With 64 rows, m + 1 = 7, 8, 9 columns straddle the column block; 8192
    # rows fill one row block, and 8193 leave a last block of one row.
    @pytest.mark.parametrize("rows, m", [(1, 1), (2, 1), (31, 30), (32, 31), (33, 32),
                                         (64, 30), (64, 31), (64, 32), (64, 6), (64, 7),
                                         (64, 8), (8192, 8), (8193, 8)])
    @pytest.mark.parametrize("complex_basis", [False, True])
    def test_matches_pivoted_oracle(self, rows, m, complex_basis):
        target, basis = self.random_problem(rows, m, complex_basis)
        reports = hl.nested_distances(basis, [target], rows - 1)[0]
        assert_matches_pivoted_oracle(reports, target, basis, rows - 1)

    @pytest.mark.parametrize("complex_basis", [False, True])
    def test_fewer_rows_than_members_raises(self, complex_basis):
        target, basis = self.random_problem(1, 2, complex_basis)
        with pytest.raises(DegenerateBasis, match="2 basis members exceed 1 coefficients"):
            hl.nested_distances(basis, [target], 0)


class TestConditionFigure:
    K_MAX, N_TRUNC = 50, 2**14

    @pytest.fixture(scope="class")
    def figures(self):
        seq = hl.baez_duarte_sequence(self.K_MAX, self.N_TRUNC)
        return seq.condition_estimate

    @pytest.fixture(scope="class")
    def basis(self):
        return basis_matrix(
            [hl.hk_closed_form(k, self.N_TRUNC) for k in range(2, self.K_MAX + 1)], self.N_TRUNC
        )

    def test_equals_one_norm_condition_of_each_leading_block(self, figures, basis):
        r = np.linalg.qr(basis, mode="r")
        exact = [np.linalg.cond(r[:j, :j], 1) for j in range(1, len(figures) + 1)]
        np.testing.assert_allclose(figures, exact, rtol=1e-12, atol=0)

    def test_within_factor_j_of_two_norm_condition(self, figures, basis):
        # 1-norm and 2-norm of a j x j matrix differ by at most sqrt(j)
        for j, figure in enumerate(figures, start=1):
            cond_2 = np.linalg.cond(basis[:, :j])
            assert cond_2 / j * (1 - 1e-12) <= figure <= j * cond_2 * (1 + 1e-12)

    def test_nondecreasing_in_k(self, figures):
        assert np.all(np.diff(figures) >= 0)
        assert figures[0] == pytest.approx(1.0, rel=1e-12)

    # |r| |1/r| of a one-member prefix rounds to 1 - 2^-53 here, and for
    # about one in nine seeded one-member bases.
    @pytest.mark.parametrize("n_trunc", [1, 10, 50])
    def test_one_member_figure_is_never_below_one(self, n_trunc):
        assert hl.baez_duarte_sequence(2, n_trunc).condition_estimate[0] == 1.0
        rng = np.random.default_rng(n_trunc)
        for _ in range(100):
            basis, target = (hl.from_coeffs(rng.standard_normal(n_trunc + 1)) for _ in range(2))
            nested = hl.nested_distances([basis], [target], n_trunc)[0]
            assert nested.condition_estimate[0] >= 1.0


def bd_factored_by(factor, k_max, n_trunc):
    """baez_duarte_sequence(k_max, n_trunc), its row source factored by ``factor``."""
    nested_reports = projection._nested_reports
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "_nested_reports", lambda rows, _: nested_reports(rows, factor))
        return hl.baez_duarte_sequence(k_max, n_trunc)


class TestGramSource:
    """The Gram factor source of d_K: a Cholesky factor of [h_2 .. h_K | 1]'s streamed Gram."""

    @pytest.mark.parametrize("k_max, n_trunc", [(50, 2**14), (200, 2**15)])
    def test_every_prefix_agrees_with_the_qr_source(self, k_max, n_trunc):
        gram = hl.baez_duarte_sequence(k_max, n_trunc)
        qr = bd_factored_by(projection._qr_factor, k_max, n_trunc)
        assert gram.distance.shape == qr.distance.shape == (k_max - 1,)
        assert np.all(np.abs(gram.distance - qr.distance) <= projection.RESIDUAL_AGREEMENT)
        # column K - 2 of each upper-triangular matrix is d_K's coefficients
        np.testing.assert_allclose(gram.coefficients, qr.coefficients, rtol=0, atol=1e-10)
        assert gram.condition_estimate == pytest.approx(qr.condition_estimate, rel=1e-10)

    def test_complex_members_agree_with_the_qr_source(self):
        rng = np.random.default_rng(34)
        n_trunc = 3000

        def random_series():
            return hl.from_coeffs(
                rng.standard_normal(n_trunc + 1) + 1j * rng.standard_normal(n_trunc + 1)
            )

        basis, targets = [random_series() for _ in range(6)], [hl.one(n_trunc), random_series()]
        rows = projection._series_rows(basis, targets, n_trunc)
        by_gram = projection._nested_reports(rows, projection._gram_factor)
        by_qr = hl.nested_distances(basis, targets, n_trunc)
        for g, q, target in zip(by_gram, by_qr, targets, strict=True):
            bound = projection.RESIDUAL_AGREEMENT * max(1.0, hl.norm(target))
            assert g.coefficients.dtype == np.complex128
            assert g.distance.shape == q.distance.shape == (6,)
            assert np.all(np.abs(g.distance - q.distance) <= bound)
            np.testing.assert_allclose(g.coefficients, q.coefficients, rtol=0, atol=1e-10)

    def test_distances_nondecreasing_in_the_truncation(self):
        # P_N is a contraction, so every d_K(N) is at most d_K(2N).
        d = [hl.baez_duarte_sequence(30, 2**e).distance for e in range(10, 16)]
        assert np.all(np.diff(d, axis=0) >= 0)

    def test_basis_spanning_every_row_leaves_exactly_zero(self):
        # K - 1 = N + 1 members over N + 1 coefficients: neither source's R
        # gives exact zeros, so the report path sets them.
        for factor in (projection._gram_factor, projection._qr_factor):
            for n_trunc in range(40):
                seq = bd_factored_by(factor, n_trunc + 2, n_trunc)
                assert seq.distance[-1] == 0.0, (factor.__name__, n_trunc)

    def test_repeated_member_is_refused(self):
        # Cholesky resolves no rank below sqrt(u): R's own figure is about 2e8.
        n_trunc = 128
        h2, h3 = hl.hk_closed_form(2, n_trunc), hl.hk_closed_form(3, n_trunc)
        rows = projection._series_rows([h2, h3, h2], [hl.one(n_trunc)], n_trunc)
        with pytest.raises(DegenerateBasis, match="reciprocal condition"):
            projection._nested_reports(rows, projection._gram_factor)

    def test_gate_squares_the_condition_of_r(self):
        # R = [[1, 1], [0, 1e-7]] has a 1-norm condition of 2e7: QR's gate
        # passes it, and the Gram's refuses its square, 4e14.
        n_trunc = 4
        basis = [hl.from_coeffs([1.0]), hl.from_coeffs([1.0, 1e-7])]
        targets = [hl.from_coeffs([0.0, 0.0, 1.0])]
        figure = hl.nested_distances(basis, targets, n_trunc)[0].condition_estimate[-1]
        assert figure == pytest.approx(2e7, rel=1e-6)
        with pytest.raises(DegenerateBasis, match=r"reciprocal condition 2\.\d+e-15 below"):
            projection._nested_reports(projection._series_rows(basis, targets, n_trunc),
                                       projection._gram_factor)

    def test_exact_duplicate_without_a_positive_pivot_raises(self):
        # G = [[1, 1], [1, 1]]: the second pivot is 1 - 1 = 0.
        n_trunc = 8
        rows = projection._series_rows([hl.one(n_trunc)] * 2, [hl.hk_closed_form(2, n_trunc)],
                                       n_trunc)
        with pytest.raises(DegenerateBasis, match="reciprocal condition.*Cholesky pivot 2 of"):
            projection._nested_reports(rows, projection._gram_factor)


class TestQRSourceInSpan:
    """Why the series callers keep the QR source: a Gram gives this target 4.9e-8."""

    # 2^15 + 1 coefficients fold into R in four row blocks.
    @pytest.mark.parametrize("n_trunc", [512, 2**15])
    def test_target_inside_the_span_resolves_to_rounding(self, n_trunc):
        h2, h3, h4 = (hl.hk_closed_form(k, n_trunc) for k in (2, 3, 4))
        nested = hl.nested_distances([h2, h3, h4], [hl.axpy(0.5, h3, h2)], n_trunc)[0]
        assert np.all(nested.distance[1:] <= 1e-14)
        assert np.all(nested.residual_norm_check[1:] <= 1e-14)


def assert_residual_checks_match_direct_norm(nested, target, basis):
    """Every prefix's residual_norm_check is ||target - sum_k c_k b_k||, summed by axpy."""
    bound = 1e-14 * max(1.0, hl.norm(target))
    for rep in prefixes(nested):
        by_hand = target
        for c, b in zip(rep.coefficients, basis):
            by_hand = hl.axpy(-c, b, by_hand)
        assert abs(rep.residual_norm_check - hl.norm(by_hand)) <= bound


class TestBlockedResidualCheck:
    # Up to 4097 coefficients fit one block of the re-check; 8191..16385
    # straddle its 8192-row blocks.
    @pytest.mark.parametrize("n_trunc", [2046, 2047, 2048, 4096, 8190, 8191, 8192, 16384])
    def test_baez_duarte_checks_match_direct_norm(self, n_trunc):
        seq = hl.baez_duarte_sequence(12, n_trunc)
        basis = [hl.hk_closed_form(k, n_trunc) for k in range(2, 13)]
        assert_residual_checks_match_direct_norm(seq, hl.one(n_trunc), basis)

    def test_complex_basis_checks_match_direct_norm(self):
        rng = np.random.default_rng(33)
        n_trunc = 8300

        def random_series():
            return hl.from_coeffs(
                rng.standard_normal(n_trunc + 1) + 1j * rng.standard_normal(n_trunc + 1)
            )

        # Each target reads the rows again: its pass overwrites the basis
        # columns of every block.  The third target lies in the span.
        basis = [random_series() for _ in range(6)]
        targets = [random_series(), random_series(), basis[2]]
        for nested, target in zip(hl.nested_distances(basis, targets, n_trunc), targets,
                                  strict=True):
            assert_residual_checks_match_direct_norm(nested, target, basis)


class TestRowSources:
    """rows(lo, hi, out) gives both passes the unfactored rows, bit for bit and column-major."""

    # Windows of a 4201-row matrix, each read into a new array and into a
    # reused one that holds other numbers, as the engine's workspace does.
    N_TRUNC = 4200
    WINDOWS = [(0, 2048), (2047, 2049), (1000, 3100), (2048, 4096), (4095, 4097),
               (4096, 4201), (4200, 4201)]

    @classmethod
    def assert_rows_match(cls, aug, rows):
        for lo, hi in cls.WINDOWS:
            block = rows(lo, hi)
            assert block.flags.f_contiguous and block.dtype == aug.dtype
            assert block.tobytes("F") == aug[lo:hi].tobytes("F"), (lo, hi)
            reused = np.full_like(block, np.nan)
            assert rows(lo, hi, reused) is reused
            assert reused.tobytes("F") == block.tobytes("F"), (lo, hi)

    @staticmethod
    def handed_over(monkeypatch, run):
        """The whole matrix and the row source that ``run()`` hands the engine."""
        got = {}

        def capture(rows, factor):
            got.update(aug=rows(0, rows.n_rows), rows=rows)
            return nested_reports(rows, factor)

        nested_reports = projection._nested_reports
        monkeypatch.setattr(projection, "_nested_reports", capture)
        run()
        return got["aug"], got["rows"]

    def test_baez_duarte_rows_match_its_matrix(self, monkeypatch):
        aug, rows = self.handed_over(monkeypatch,
                                     lambda: hl.baez_duarte_sequence(12, self.N_TRUNC))
        assert aug.shape == (self.N_TRUNC + 1, 11 + 1)
        assert np.array_equal(aug[:, -1], hl.one(self.N_TRUNC).coeffs)
        self.assert_rows_match(aug, rows)

    def test_series_rows_with_mixed_real_and_complex_members(self, monkeypatch):
        rng = np.random.default_rng(11)
        n = self.N_TRUNC
        members = [
            hl.from_coeffs(rng.standard_normal(n + 1)),
            hl.from_coeffs(rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)),
            hl.from_coeffs(-rng.standard_normal(3000)),  # zero-padded
            hl.from_coeffs(rng.standard_normal(n + 500)),  # truncated
            hl.from_coeffs([0.0, -0.0, 5e-324, 1.0]),  # signed zeros and a subnormal
        ]
        aug, rows = self.handed_over(
            monkeypatch, lambda: hl.nested_distances(members[:3], members[3:], n))
        assert aug.dtype == np.complex128
        for column, member in zip(aug.T, members):
            fitted = refit(member, n).coeffs
            assert column.real.tobytes() == fitted.real.tobytes()
            assert column.imag.tobytes() == np.imag(fitted).tobytes()
        self.assert_rows_match(aug, rows)

    def test_real_series_rows_stay_real(self, monkeypatch):
        rng = np.random.default_rng(12)
        members = [hl.from_coeffs(rng.standard_normal(self.N_TRUNC + 1)) for _ in range(3)]
        aug, rows = self.handed_over(
            monkeypatch, lambda: hl.nested_distances(members[:2], members[2:], self.N_TRUNC))
        assert aug.dtype == np.float64
        self.assert_rows_match(aug, rows)

    # f shorter than the truncation (zero-padded), reaching it exactly, and past it
    @pytest.mark.parametrize("f_len", [7, N_TRUNC + 1, N_TRUNC + 400])
    def test_cyclicity_rows_are_the_refitted_orbit(self, monkeypatch, f_len):
        rng = np.random.default_rng(14)
        n, n_max = self.N_TRUNC, 9
        f = hl.from_coeffs(rng.standard_normal(f_len) + 1j * rng.standard_normal(f_len))
        targets = [hl.one(n), hl.from_coeffs(rng.standard_normal(n + 1))]
        aug, rows = self.handed_over(monkeypatch,
                                     lambda: hl.cyclicity_scan(f, n_max, targets, n))
        assert aug.dtype == np.complex128
        members = [*(hl.weighted_dilation(k, f) for k in range(1, n_max + 1)), *targets]
        for column, member in zip(aug.T, members, strict=True):
            assert column.tobytes() == refit(member, n).coeffs.astype(complex).tobytes()
        self.assert_rows_match(aug, rows)


class TestEngineMemory:
    """No factor source holds the matrix: QR folds it into R, the Gram sums it.

    Every pass over the rows (the QR fold, the Gram sum and each target's
    re-check) reads 8192-row blocks into one workspace, one block of rows.
    tracemalloc sees every numpy buffer, so a copy of a block, such as one
    f2py makes when ?tpqrt or ?trmm may not overwrite its input, shows.
    """

    @staticmethod
    def traced_peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_baez_duarte_streams_its_gram(self):
        # the harmonic table, one 8192-row block and the K x K Gram: 0.12
        # times the matrix
        k_max, n_trunc = 50, 2**17
        peak = self.traced_peak(lambda: hl.baez_duarte_sequence(k_max, n_trunc))
        assert peak <= 0.15 * 8 * (n_trunc + 1) * k_max

    def test_passes_share_one_workspace(self):
        rows = projection._series_rows([hl.hk_closed_form(2, 20000)], [hl.one(20000)], 20000)
        first = list(rows.blocks())
        assert [len(block) for block in first] == [8192, 8192, 3617]
        for block, again in zip(first, rows.blocks(), strict=True):
            assert isinstance(block, np.ndarray) and block.flags.f_contiguous
            assert np.shares_memory(block, again) and np.shares_memory(block, first[0])

    def test_basis_longer_than_its_coefficients_is_refused_before_its_matrix(self):
        def run():
            with pytest.raises(DegenerateBasis, match="99999 basis members exceed 2 coefficients"):
                hl.baez_duarte_sequence(10**5, 1)

        # the 2 x 10^5 matrix alone takes 1.6 MB, and R 80 GB
        assert self.traced_peak(run) < 2**20

    def test_cyclicity_scan_holds_one_matrix(self):
        # f reaches the truncation, so every W_n f fills its whole column;
        # one 8192-row block is a quarter of the matrix
        n_max, n_trunc = 100, 2**15
        f = hl.from_coeffs(np.random.default_rng(3).standard_normal(n_trunc + 1))
        target = hl.one(n_trunc)
        peak = self.traced_peak(lambda: hl.cyclicity_scan(f, n_max, [target], n_trunc))
        assert peak <= 0.35 * 8 * (n_trunc + 1) * (n_max + 1)

    def test_complex_series_hold_one_matrix(self):
        rng = np.random.default_rng(13)
        n_trunc, m = 2**14, 24

        def random_series():
            return hl.from_coeffs(
                rng.standard_normal(n_trunc + 1) + 1j * rng.standard_normal(n_trunc + 1)
            )

        basis = [random_series() for _ in range(m)]
        target = random_series()
        peak = self.traced_peak(lambda: hl.nested_distances(basis, [target], n_trunc))
        assert peak < 1.75 * 16 * (n_trunc + 1) * (m + 1)


class TestResidualAgreement:
    # Each engine is called on (target, basis, n_trunc) and gives the distance
    # of every prefix basis[:j].  distance_to_span re-checks each prefix's
    # residual with series.norm, one call per prefix; the nested engine
    # re-checks every prefix at once in _residual_norms.
    ENGINES = {
        "distance_to_span": (lambda t, b, n: [hl.distance_to_span(t, b[:j], n).distance
                                              for j in range(1, len(b) + 1)],
                             "norm", hl.norm),
        "nested_distances": (lambda t, b, n: hl.nested_distances(b, [t], n)[0].distance,
                             "_residual_norms", _residual_norms),
    }

    @classmethod
    def skew_residual_norm(cls, monkeypatch, engine, skews):
        """Add skews[j - 1] to the residual re-check of prefix j."""
        _, name, true_check = cls.ENGINES[engine]
        calls = iter(skews)

        def skewed(*args):
            # distance_to_span calls norm once per prefix, in order
            return true_check(*args) + (next(calls) if name == "norm" else np.array(skews))

        monkeypatch.setattr(f"hardylab.projection.{name}", skewed)

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_mismatch_raises(self, monkeypatch, engine):
        n_trunc = 128
        run = self.ENGINES[engine][0]
        self.skew_residual_norm(monkeypatch, engine, [1e-8])
        with pytest.raises(ResidualMismatch):
            run(hl.one(n_trunc), [hl.hk_closed_form(2, n_trunc)], n_trunc)

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_bound_scales_with_target_norm(self, monkeypatch, engine):
        # ||target|| = 1e4: a 1e-8 gap is inside 1e-10 * 1e4 = 1e-6, a 1e-5 gap is not.
        n_trunc = 128
        run = self.ENGINES[engine][0]
        target = hl.from_coeffs(1e4 * hl.one(n_trunc).coeffs)
        basis = [hl.hk_closed_form(2, n_trunc)]
        self.skew_residual_norm(monkeypatch, engine, [1e-8])
        run(target, basis, n_trunc)
        self.skew_residual_norm(monkeypatch, engine, [1e-5])
        with pytest.raises(ResidualMismatch):
            run(target, basis, n_trunc)

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_skew_on_one_middle_prefix_names_its_distance(self, monkeypatch, engine):
        n_trunc = 128
        run = self.ENGINES[engine][0]
        target, basis = hl.one(n_trunc), [hl.hk_closed_form(k, n_trunc) for k in (2, 3, 4)]
        middle = run(target, basis, n_trunc)[1]
        self.skew_residual_norm(monkeypatch, engine, [0.0, 1e-8, 0.0])
        with pytest.raises(ResidualMismatch, match=re.escape(f"distance {middle:.17g} and ")):
            run(target, basis, n_trunc)

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_nan_recheck_raises(self, monkeypatch, engine):
        n_trunc = 128
        run = self.ENGINES[engine][0]
        self.skew_residual_norm(monkeypatch, engine, [np.nan])
        with pytest.raises(ResidualMismatch, match="residual re-check nan"):
            run(hl.one(n_trunc), [hl.hk_closed_form(2, n_trunc)], n_trunc)


class TestDifferenceSpanOrthogonality:
    def test_max_over_pairs_vanishes(self):
        assert difference_span_orthogonality(10) <= 1e-12

    def test_single_pair_by_hand(self):
        h2 = hl.hk_closed_form(2, 1)
        h3 = hl.hk_closed_form(3, 1)
        one_minus_z = hl.from_coeffs([1, -1])
        assert abs(hl.inner(hl.axpy(-1, h3, h2), one_minus_z)) <= 1e-15

    def test_individual_hk_not_orthogonal(self):
        h2 = hl.hk_closed_form(2, 1)
        assert abs(hl.inner(h2, hl.from_coeffs([1, -1]))) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_small_kmax(self):
        with pytest.raises(IndexOutOfRange):
            difference_span_orthogonality(2)


class TestCyclicityScan:
    def test_orbit_of_constant_reaches_monomials(self):
        # z^s = (orbit member s+1) - (orbit member s): exact triangular elimination
        w4 = hl.weighted_dilation(4, hl.one())
        w3 = hl.weighted_dilation(3, hl.one())
        by_hand = hl.axpy(-1.0, hl.pad(w3, 3), hl.pad(w4, 3))
        assert np.array_equal(by_hand.coeffs, monomial(3, valid_degree=3).coeffs)

        for s in (3, 5):
            target = monomial(s, valid_degree=2 * s)
            reports = hl.cyclicity_scan(hl.one(), s + 1, [target], 2 * s)
            assert reports[0].distance <= 1e-10

    def test_candidate_polynomial_distance_decreases(self):
        p = hl.from_coeffs([-2.0, 1.0])  # z - 2: |lambda + 1| = 3 > sqrt(2)
        n_trunc = 256
        target = hl.one(n_trunc)
        d8 = hl.cyclicity_scan(p, 8, [target], n_trunc)[0].distance
        d64 = hl.cyclicity_scan(p, 64, [target], n_trunc)[0].distance
        assert d64 < d8

    def test_equal_leading_coefficients_block_one_minus_z(self):
        f = hl.from_coeffs([1.0, 1.0, 5.0])
        n_trunc = 128
        target = hl.pad(hl.from_coeffs([1, -1]), n_trunc)
        report = hl.cyclicity_scan(f, 16, [target], n_trunc)[0]
        assert report.distance >= np.sqrt(2) - 1e-10

    def test_rejects_small_n_max(self):
        with pytest.raises(IndexOutOfRange):
            hl.cyclicity_scan(hl.one(), 1, [hl.one()], 8)

    def test_longer_orbit_than_coefficients_raises(self):
        with pytest.raises(DegenerateBasis):
            hl.cyclicity_scan(hl.from_coeffs([1.0, 2.0]), 5, [hl.one(2)], 2)

    @staticmethod
    def assert_reports_match_pivoted_oracle(f, n_max, targets, n_trunc):
        orbit = [hl.weighted_dilation(n, f) for n in range(1, n_max + 1)]
        reports = hl.cyclicity_scan(f, n_max, targets, n_trunc)
        assert len(reports) == len(targets)
        for rep, target in zip(reports, targets):
            assert_matches_oracle(rep, target, orbit, n_trunc)

    def test_several_targets_match_pivoted_oracle(self):
        n_trunc = 256
        targets = [
            hl.one(n_trunc),
            hl.pad(hl.from_coeffs([1.0, -1.0]), n_trunc),
            hl.hk_closed_form(3, n_trunc),
        ]
        self.assert_reports_match_pivoted_oracle(hl.from_coeffs([-2.0, 1.0]), 16, targets, n_trunc)

    def test_complex_f_matches_pivoted_oracle(self):
        rng = np.random.default_rng(40)
        n_trunc = 300
        f = hl.from_coeffs(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        targets = [
            hl.one(n_trunc),
            hl.from_coeffs(rng.standard_normal(n_trunc + 1) + 1j * rng.standard_normal(n_trunc + 1)),
        ]
        self.assert_reports_match_pivoted_oracle(f, 40, targets, n_trunc)


    def test_more_targets_than_free_rows_match_pivoted_oracle(self):
        # 8 orbit members and 20 targets in 21 rows: R has fewer rows than columns.
        rng = np.random.default_rng(41)
        n_trunc = 20
        targets = [hl.from_coeffs(rng.standard_normal(n_trunc + 1)) for _ in range(20)]
        self.assert_reports_match_pivoted_oracle(hl.from_coeffs([1.0, 0.5]), 8, targets, n_trunc)

    def test_duplicate_zero_and_member_targets_match_pivoted_oracle(self):
        n_trunc = 256
        f = hl.from_coeffs([-2.0, 1.0])
        targets = [
            hl.one(n_trunc),
            hl.one(n_trunc),
            zero(n_trunc),
            hl.weighted_dilation(3, f),
            hl.pad(hl.from_coeffs([1.0, -1.0]), n_trunc),
        ]
        self.assert_reports_match_pivoted_oracle(f, 16, targets, n_trunc)

    def test_mixed_real_and_complex_targets_match_pivoted_oracle(self):
        rng = np.random.default_rng(42)
        n_trunc = 128
        f = hl.from_coeffs([-2.0, 1.0])
        targets = [
            hl.one(n_trunc),
            hl.from_coeffs(rng.standard_normal(n_trunc + 1) + 1j * rng.standard_normal(n_trunc + 1)),
            hl.pad(hl.from_coeffs([1.0, -1.0]), n_trunc),
        ]
        self.assert_reports_match_pivoted_oracle(f, 12, targets, n_trunc)
        reports = hl.cyclicity_scan(f, 12, targets, n_trunc)
        assert all(rep.coefficients.dtype == np.complex128 for rep in reports)

    def test_scan_matches_per_target_engine(self):
        rng = np.random.default_rng(43)
        n_trunc = 20
        f = hl.from_coeffs([1.0, 0.5])
        orbit = [hl.weighted_dilation(n, f) for n in range(1, 9)]
        targets = [hl.from_coeffs(rng.standard_normal(n_trunc + 1)) for _ in range(12)]
        targets.append(hl.from_coeffs(rng.standard_normal(n_trunc + 1)
                                      + 1j * rng.standard_normal(n_trunc + 1)))
        for rep, target in zip(hl.cyclicity_scan(f, 8, targets, n_trunc), targets):
            alone = prefixes(hl.nested_distances(orbit, [target], n_trunc)[0])[-1]
            assert rep.distance == pytest.approx(alone.distance, rel=1e-14)
            gap = np.linalg.norm(rep.coefficients - alone.coefficients)
            assert gap <= 1e-14 * np.linalg.norm(alone.coefficients)

    def test_scan_factors_once_for_all_targets(self, monkeypatch):
        lapack = hl.projection.scipy.linalg.lapack
        requested = []

        def counting(names, *args, **kwargs):
            requested.extend(names)
            return get_lapack_funcs(names, *args, **kwargs)

        get_lapack_funcs = lapack.get_lapack_funcs
        monkeypatch.setattr(lapack, "get_lapack_funcs", counting)
        n_trunc = 64
        targets = [hl.one(n_trunc), monomial(1, valid_degree=n_trunc),
                   monomial(2, valid_degree=n_trunc), hl.hk_closed_form(3, n_trunc)]
        assert len(hl.cyclicity_scan(hl.from_coeffs([-2.0, 1.0]), 8, targets, n_trunc)) == 4
        assert requested.count("tpqrt") == 1

    def test_no_targets_gives_no_reports(self):
        assert hl.cyclicity_scan(hl.from_coeffs([-2.0, 1.0]), 8, [], 64) == []

    def test_degenerate_orbit_without_targets_raises(self):
        with pytest.raises(DegenerateBasis):
            hl.cyclicity_scan(hl.from_coeffs([1.0, 2.0]), 5, [], 2)

    def test_negative_truncation_rejected(self):
        with pytest.raises(ValueError, match="valid degree must be >= 0"):
            hl.cyclicity_scan(hl.one(), 2, [], -1)

    # A million orbit columns alone would take well over 1 MiB.
    @pytest.mark.parametrize("n_max", [7, 10**6, 10**30])
    def test_orbit_longer_than_coefficients_raises_before_building(self, n_max):
        def run():
            with pytest.raises(DegenerateBasis, match="7 or more members"):
                hl.cyclicity_scan(hl.from_coeffs([1.0, 0.5]), n_max, [], 5)

        assert TestEngineMemory.traced_peak(run) < 2**20

    # The first matrix is past the limit in any dtype; the others would fit
    # it in float64 entries but not in the complex128 ones they need.
    @pytest.mark.parametrize("f, n_max, targets, n_trunc", [
        ([1.0, 0.5], 10**6, [], 10**14),
        ([1.0, 0.5j], 2, [], sys.maxsize // 16 - 1),
        ([1.0, 0.5], 2, [[1j]], sys.maxsize // 24 - 1),
    ], ids=["real", "complex-orbit", "complex-target"])
    def test_matrix_past_array_limit_raises_before_building(self, f, n_max, targets, n_trunc):
        def run():
            with pytest.raises(IndexOutOfRange, match="array size limit"):
                hl.cyclicity_scan(hl.from_coeffs(f), n_max, list(map(hl.from_coeffs, targets)),
                                  n_trunc)

        assert TestEngineMemory.traced_peak(run) < 2**20

    @staticmethod
    def assert_same_bits(reports, wanted):
        for rep, want in zip(reports, wanted, strict=True):
            assert rep.distance.hex() == want.distance.hex()
            assert rep.residual_norm_check.hex() == want.residual_norm_check.hex()
            assert rep.condition_estimate.hex() == want.condition_estimate.hex()
            assert rep.coefficients.tobytes() == want.coefficients.tobytes()

    def test_orbit_members_stop_at_the_truncation(self):
        rng = np.random.default_rng(44)
        n_trunc, n_max = 300, 40
        c = rng.standard_normal(2**16)
        f = hl.from_coeffs(c[: n_trunc + 50])
        targets = [hl.one(n_trunc), hl.from_coeffs(rng.standard_normal(n_trunc + 1))]
        reports = hl.cyclicity_scan(f, n_max, targets, n_trunc)
        orbit = [hl.weighted_dilation(n, f) for n in range(1, n_max + 1)]
        full = [prefixes(nested)[-1] for nested in hl.nested_distances(orbit, targets, n_trunc)]
        self.assert_same_bits(reports, full)
        # W_n f reads f_0 .. f_(n_trunc // n) only: a longer f moves no bit, and
        # no W_n f of all of it (20 MiB at n = 40) is ever built.
        long_f, on_long_f = hl.from_coeffs(c), []
        peak = TestEngineMemory.traced_peak(
            lambda: on_long_f.extend(hl.cyclicity_scan(long_f, n_max, targets, n_trunc)))
        assert peak < 2**20
        self.assert_same_bits(on_long_f, reports)


class TestNonCyclicityWitness:
    """The orbit pairings |<W_n f, 1 - z>| that ``verify.suite_cyclic`` bounds.

    W_n f starts f_0, f_0 for every n >= 2, so its pairing is an exact 0;
    the n = 1 pairing is f_0 - f_1.
    """

    @staticmethod
    def pairings(f, n_max):
        one_minus_z = hl.from_coeffs([1.0, -1.0])
        return [abs(hl.inner(hl.weighted_dilation(n, f), one_minus_z))
                for n in range(1, n_max + 1)]

    def test_polynomial_example(self):
        assert self.pairings(hl.from_coeffs([1.0, 1.0, 5.0]), 100) == [0.0] * 100

    def test_one_plus_z(self):
        assert self.pairings(hl.from_coeffs([1.0, 1.0]), 50) == [0.0] * 50

    def test_random_orbit_with_equal_leading_coefficients_pairs_to_zero(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            c[1] = c[0]
            assert self.pairings(hl.from_coeffs(c), 100) == [0.0] * 100

    def test_result_is_the_gap_of_the_first_two_coefficients(self):
        f = hl.from_coeffs([1e-3, 1e-3 + 5e-15, 0.0])
        gap = abs(f.coeffs[0] - f.coeffs[1])
        assert gap > 0 and self.pairings(f, 20) == [gap] + [0.0] * 19
        rng = np.random.default_rng(31)
        for _ in range(20):
            c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            c[1] = c[0] * (1 + 3e-15)
            f = hl.from_coeffs(c)
            assert self.pairings(f, 20) == [abs(f.coeffs[0] - f.coeffs[1])] + [0.0] * 19
