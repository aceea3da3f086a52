import numpy as np
import pytest

import hardylab as hl
from hardylab.errors import (
    DegenerateBasis,
    HypothesisViolated,
    IndexOutOfRange,
    ResidualMismatch,
)
from hardylab.projection import _residual_norms
from oracles import difference_span_orthogonality


def one_vector_distance(target, b):
    """Textbook single-vector projection: sqrt(||t||^2 - |<t,b>|^2 / ||b||^2)."""
    return np.sqrt(hl.norm(target) ** 2 - abs(hl.inner(target, b)) ** 2 / hl.norm(b) ** 2)


class TestDistanceToSpan:
    def test_membership_gives_zero(self):
        h2 = hl.hk_closed_form(2, 1024)
        report = hl.distance_to_span(hl.SpanProblem(h2, [h2], 1024))
        assert report.distance <= 1e-10
        assert report.residual_norm_check <= 1e-10

    def test_matches_one_vector_formula(self):
        n_trunc = 1024
        h2 = hl.hk_closed_form(2, n_trunc)
        target = hl.one(n_trunc)
        report = hl.distance_to_span(hl.SpanProblem(target, [h2], n_trunc))
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
        report = hl.distance_to_span(hl.SpanProblem(target, basis, n_trunc))
        assert report.distance == pytest.approx(np.sqrt(2), abs=1e-10)

    def test_more_members_than_coefficients_raises(self):
        basis = [hl.hk_closed_form(k, 2) for k in range(2, 6)]
        with pytest.raises(DegenerateBasis, match="exceed"):
            hl.distance_to_span(hl.SpanProblem(hl.one(2), basis, 2))

    def test_degenerate_basis_raises(self):
        f = hl.hk_closed_form(2, 128)
        with pytest.raises(DegenerateBasis):
            hl.distance_to_span(hl.SpanProblem(hl.one(128), [f, hl.axpy(1.0, f, hl.zero(128))], 128))

    def test_empty_basis_rejected(self):
        with pytest.raises(ValueError):
            hl.SpanProblem(hl.one(4), [], 4)

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
            report = hl.distance_to_span(hl.SpanProblem(target, basis, n_trunc))
            assert report.distance <= hl.norm(target) + 1e-12
            assert abs(report.distance - report.residual_norm_check) <= 1e-10
            assert report.condition_estimate >= 1.0

    def test_appending_basis_never_increases_distance(self):
        n_trunc = 512
        basis = [hl.hk_closed_form(k, n_trunc) for k in range(2, 8)]
        target = hl.one(n_trunc)
        last = np.inf
        for size in range(1, len(basis) + 1):
            d = hl.distance_to_span(hl.SpanProblem(target, basis[:size], n_trunc)).distance
            assert d <= last + 1e-12
            last = d

    def test_projection_idempotent(self):
        n_trunc = 256
        basis = [hl.hk_closed_form(k, n_trunc) for k in (2, 3, 4)]
        target = hl.one(n_trunc)
        report = hl.distance_to_span(hl.SpanProblem(target, basis, n_trunc))
        projection = hl.zero(n_trunc)
        for c, b in zip(report.coefficients, basis):
            projection = hl.axpy(c, b, projection)
        again = hl.distance_to_span(hl.SpanProblem(projection, basis, n_trunc))
        assert again.distance <= 1e-10

    def test_real_and_complex_paths_agree(self):
        n_trunc = 128
        basis = [hl.hk_closed_form(k, n_trunc) for k in (2, 3)]
        target = hl.one(n_trunc)
        real_report = hl.distance_to_span(hl.SpanProblem(target, basis, n_trunc))
        spun = [hl.from_coeffs(b.coeffs * np.exp(0.7j)) for b in basis]
        spun_target = hl.from_coeffs(target.coeffs * np.exp(0.3j))
        complex_report = hl.distance_to_span(hl.SpanProblem(spun_target, spun, n_trunc))
        # rotating the target by a unimodular scalar preserves the distance
        assert complex_report.distance == pytest.approx(real_report.distance, abs=1e-12)

    def test_json_report_round_trips(self):
        n_trunc = 64
        report = hl.distance_to_span(
            hl.SpanProblem(hl.one(n_trunc), [hl.hk_closed_form(2, n_trunc)], n_trunc)
        )
        d = report.to_json_dict()
        assert d["distance"] == report.distance
        assert len(d["coefficients_re"]) == 1


class TestBaezDuarteSequence:
    def test_sequence_shape_and_monotonicity(self):
        seq = hl.baez_duarte_sequence(10, 2048)
        ks = [k for k, _ in seq]
        assert ks == list(range(2, 11))
        d = np.array([rep.distance for _, rep in seq])
        assert np.all(np.diff(d) <= 1e-12)
        assert np.all(d > 1e-8)

    def test_first_entry_matches_one_vector_formula(self):
        n_trunc = 2048
        seq = hl.baez_duarte_sequence(2, n_trunc)
        h2 = hl.hk_closed_form(2, n_trunc)
        assert seq[0][1].distance == pytest.approx(
            one_vector_distance(hl.one(n_trunc), h2), abs=1e-10
        )

    def test_truncation_stability(self):
        n_small = 1024
        seq_small = hl.baez_duarte_sequence(8, n_small)
        seq_big = hl.baez_duarte_sequence(8, 2 * n_small)
        for (k, rep_small), (_, rep_big) in zip(seq_small, seq_big):
            tail = sum(
                abs(c) * hl.hk_tail_norm_bound(j, n_small)
                for j, c in zip(range(2, k + 1), rep_small.coefficients)
            )
            assert abs(rep_small.distance - rep_big.distance) <= 10 * tail

    def test_rejects_small_kmax(self):
        with pytest.raises(IndexOutOfRange):
            hl.baez_duarte_sequence(1, 64)


def basis_matrix(problem):
    """The N x j matrix of the problem's refitted basis."""
    return np.column_stack([b.coeffs for b in problem.basis])


def assert_matches_oracle(rep, target, basis, n_trunc):
    """The report agrees with distance_to_span on the same span.

    The condition figure is the 1-norm condition number of the basis'
    triangular factor, taken here from numpy's QR of the basis alone.
    """
    problem = hl.SpanProblem(target, basis, n_trunc)
    oracle = hl.distance_to_span(problem)
    assert rep.distance == pytest.approx(oracle.distance, rel=1e-12)
    np.testing.assert_allclose(rep.coefficients, oracle.coefficients, rtol=0, atol=1e-10)
    r = np.linalg.qr(basis_matrix(problem), mode="r")
    assert rep.condition_estimate == pytest.approx(np.linalg.cond(r, 1), rel=1e-10)


def assert_matches_pivoted_oracle(reports, target, basis, n_trunc):
    """Each nested report agrees with distance_to_span on the same prefix."""
    assert len(reports) == len(basis)
    for j, rep in enumerate(reports, start=1):
        assert_matches_oracle(rep, target, basis[:j], n_trunc)


class TestNestedDistances:
    @pytest.mark.parametrize("n_trunc", [256, 2048])
    def test_baez_duarte_matches_pivoted_oracle(self, n_trunc):
        seq = hl.baez_duarte_sequence(12, n_trunc)
        assert [k for k, _ in seq] == list(range(2, 13))
        basis = [hl.hk_closed_form(k, n_trunc) for k in range(2, 13)]
        assert_matches_pivoted_oracle([rep for _, rep in seq], hl.one(n_trunc), basis, n_trunc)

    def test_random_complex_basis_matches_pivoted_oracle(self):
        rng = np.random.default_rng(21)
        n_trunc = 64

        def random_series():
            return hl.from_coeffs(
                rng.standard_normal(n_trunc + 1) + 1j * rng.standard_normal(n_trunc + 1)
            )

        target = random_series()
        basis = [random_series() for _ in range(7)]
        reports = hl.nested_distances(hl.SpanProblem(target, basis, n_trunc))
        assert_matches_pivoted_oracle(reports, target, basis, n_trunc)
        assert any(c.imag != 0 for c in reports[-1].coefficients)

    def test_real_basis_with_complex_target_matches_pivoted_oracle(self):
        n_trunc = 200
        basis = [hl.hk_closed_form(k, n_trunc) for k in range(2, 8)]
        target = hl.from_coeffs(np.exp(0.4j) * hl.one(n_trunc).coeffs + 0.1j * basis[0].coeffs)
        reports = hl.nested_distances(hl.SpanProblem(target, basis, n_trunc))
        assert_matches_pivoted_oracle(reports, target, basis, n_trunc)
        assert all(rep.coefficients.dtype == np.complex128 for rep in reports)

    def test_real_problem_gives_read_only_real_coefficients(self):
        for _, rep in hl.baez_duarte_sequence(6, 128):
            assert rep.coefficients.dtype == np.float64
            with pytest.raises(ValueError):
                rep.coefficients[0] = 0.0
        oracle = hl.distance_to_span(
            hl.SpanProblem(hl.one(64), [hl.hk_closed_form(2, 64)], 64)
        )
        with pytest.raises(ValueError):
            oracle.coefficients[0] = 0.0

    def test_duplicated_column_raises(self):
        n_trunc = 128
        h2, h3 = hl.hk_closed_form(2, n_trunc), hl.hk_closed_form(3, n_trunc)
        with pytest.raises(DegenerateBasis):
            hl.nested_distances(hl.SpanProblem(hl.one(n_trunc), [h2, h3, h2], n_trunc))

    def test_more_columns_than_coefficients_raises(self):
        with pytest.raises(DegenerateBasis):
            hl.baez_duarte_sequence(10, 4)

    def test_zero_member_mid_basis_raises(self):
        n_trunc = 128
        h2, h3 = hl.hk_closed_form(2, n_trunc), hl.hk_closed_form(3, n_trunc)
        with pytest.raises(DegenerateBasis, match="zero on its diagonal"):
            hl.nested_distances(hl.SpanProblem(hl.one(n_trunc), [h2, hl.zero(n_trunc), h3], n_trunc))

    def test_repeated_member_fails_condition_gate(self):
        n_trunc = 128
        h2, h3 = hl.hk_closed_form(2, n_trunc), hl.hk_closed_form(3, n_trunc)
        with pytest.raises(DegenerateBasis, match="reciprocal condition"):
            hl.nested_distances(hl.SpanProblem(hl.one(n_trunc), [h2, h3, h2], n_trunc))


class TestQRBlockEdges:
    """The engine's ?geqrt blocks min(32, rows, m + 1) columns of [basis | target]."""

    @staticmethod
    def random_problem(rows, m, complex_basis):
        rng = np.random.default_rng(rows * 100 + m)

        def random_series():
            c = rng.standard_normal(rows)
            return hl.from_coeffs(c + 1j * rng.standard_normal(rows) if complex_basis else c)

        return random_series(), [random_series() for _ in range(m)]

    # rows == m + 1 at 2, 31, 32 and 33 rows; one row takes one member.
    # With 64 rows, m + 1 = 31, 32, 33 columns straddle the block size.
    @pytest.mark.parametrize("rows, m", [(1, 1), (2, 1), (31, 30), (32, 31), (33, 32),
                                         (64, 30), (64, 31), (64, 32)])
    @pytest.mark.parametrize("complex_basis", [False, True])
    def test_matches_pivoted_oracle(self, rows, m, complex_basis):
        target, basis = self.random_problem(rows, m, complex_basis)
        reports = hl.nested_distances(hl.SpanProblem(target, basis, rows - 1))
        assert_matches_pivoted_oracle(reports, target, basis, rows - 1)

    @pytest.mark.parametrize("complex_basis", [False, True])
    def test_fewer_rows_than_members_raises(self, complex_basis):
        target, basis = self.random_problem(1, 2, complex_basis)
        with pytest.raises(DegenerateBasis, match="zero on its diagonal"):
            hl.nested_distances(hl.SpanProblem(target, basis, 0))


class TestConditionFigure:
    K_MAX, N_TRUNC = 50, 2**14

    @pytest.fixture(scope="class")
    def figures(self):
        seq = hl.baez_duarte_sequence(self.K_MAX, self.N_TRUNC)
        return np.array([rep.condition_estimate for _, rep in seq])

    @pytest.fixture(scope="class")
    def basis(self):
        return basis_matrix(hl.SpanProblem(
            hl.one(self.N_TRUNC),
            [hl.hk_closed_form(k, self.N_TRUNC) for k in range(2, self.K_MAX + 1)],
            self.N_TRUNC,
        ))

    def test_equals_one_norm_condition_of_each_leading_block(self, figures, basis):
        r = np.linalg.qr(basis, mode="r")
        exact = [np.linalg.cond(r[:j, :j], 1) for j in range(1, len(figures) + 1)]
        np.testing.assert_allclose(figures, exact, rtol=1e-12, atol=0)

    def test_within_factor_j_of_two_norm_condition(self, figures, basis):
        # 1-norm and 2-norm of a j x j matrix differ by at most sqrt(j);
        # at j = 1 the figure may sit an ulp below 1.
        for j, figure in enumerate(figures, start=1):
            cond_2 = np.linalg.cond(basis[:, :j])
            assert cond_2 / j * (1 - 1e-12) <= figure <= j * cond_2 * (1 + 1e-12)

    def test_nondecreasing_in_k(self, figures):
        assert np.all(np.diff(figures) >= 0)
        assert figures[0] == pytest.approx(1.0, rel=1e-12)


def assert_residual_checks_match_direct_norm(reports, target, basis):
    """Every residual_norm_check is ||target - sum_k c_k b_k||, summed by axpy."""
    bound = 1e-14 * max(1.0, hl.norm(target))
    for rep in reports:
        by_hand = target
        for c, b in zip(rep.coefficients, basis):
            by_hand = hl.axpy(-c, b, by_hand)
        assert abs(rep.residual_norm_check - hl.norm(by_hand)) <= bound


class TestBlockedResidualCheck:
    # 2047..4097 coefficients straddle the 2048-row blocks of the re-check.
    @pytest.mark.parametrize("n_trunc", [2046, 2047, 2048, 4096])
    def test_baez_duarte_checks_match_direct_norm(self, n_trunc):
        seq = hl.baez_duarte_sequence(12, n_trunc)
        basis = [hl.hk_closed_form(k, n_trunc) for k in range(2, 13)]
        assert_residual_checks_match_direct_norm([rep for _, rep in seq], hl.one(n_trunc), basis)

    def test_complex_basis_checks_match_direct_norm(self):
        rng = np.random.default_rng(33)
        n_trunc = 2100

        def random_series():
            return hl.from_coeffs(
                rng.standard_normal(n_trunc + 1) + 1j * rng.standard_normal(n_trunc + 1)
            )

        target = random_series()
        basis = [random_series() for _ in range(6)]
        reports = hl.nested_distances(hl.SpanProblem(target, basis, n_trunc))
        assert_residual_checks_match_direct_norm(reports, target, basis)


class TestResidualAgreement:
    # distance_to_span re-checks its residual with series.norm; the nested
    # engine re-checks every prefix at once in _residual_norms.
    CHECKS = {hl.distance_to_span: ("norm", hl.norm),
              hl.nested_distances: ("_residual_norms", _residual_norms)}

    @classmethod
    def skew_residual_norm(cls, monkeypatch, engine, amount):
        name, true_check = cls.CHECKS[engine]
        monkeypatch.setattr(
            f"hardylab.projection.{name}", lambda *args: true_check(*args) + amount
        )

    @pytest.mark.parametrize("engine", [hl.distance_to_span, hl.nested_distances])
    def test_mismatch_raises(self, monkeypatch, engine):
        n_trunc = 128
        problem = hl.SpanProblem(hl.one(n_trunc), [hl.hk_closed_form(2, n_trunc)], n_trunc)
        self.skew_residual_norm(monkeypatch, engine, 1e-8)
        with pytest.raises(ResidualMismatch):
            engine(problem)

    @pytest.mark.parametrize("engine", [hl.distance_to_span, hl.nested_distances])
    def test_bound_scales_with_target_norm(self, monkeypatch, engine):
        # ||target|| = 1e4: a 1e-8 gap is inside 1e-10 * 1e4 = 1e-6, a 1e-5 gap is not.
        n_trunc = 128
        target = hl.from_coeffs(1e4 * hl.one(n_trunc).coeffs)
        problem = hl.SpanProblem(target, [hl.hk_closed_form(2, n_trunc)], n_trunc)
        self.skew_residual_norm(monkeypatch, engine, 1e-8)
        engine(problem)
        self.skew_residual_norm(monkeypatch, engine, 1e-5)
        with pytest.raises(ResidualMismatch):
            engine(problem)


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
        assert np.array_equal(by_hand.coeffs, hl.monomial(3, valid_degree=3).coeffs)

        for s in (3, 5):
            target = hl.monomial(s, valid_degree=2 * s)
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
            hl.zero(n_trunc),
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
            alone = hl.nested_distances(hl.SpanProblem(target, orbit, n_trunc))[-1]
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
        targets = [hl.one(n_trunc), hl.monomial(1, valid_degree=n_trunc),
                   hl.monomial(2, valid_degree=n_trunc), hl.hk_closed_form(3, n_trunc)]
        assert len(hl.cyclicity_scan(hl.from_coeffs([-2.0, 1.0]), 8, targets, n_trunc)) == 4
        assert requested.count("geqrt") == 1

    def test_no_targets_gives_no_reports(self):
        assert hl.cyclicity_scan(hl.from_coeffs([-2.0, 1.0]), 8, [], 64) == []

    def test_degenerate_orbit_without_targets_raises(self):
        with pytest.raises(DegenerateBasis):
            hl.cyclicity_scan(hl.from_coeffs([1.0, 2.0]), 5, [], 2)


class TestNonCyclicityWitness:
    def test_polynomial_example(self):
        f = hl.from_coeffs([1.0, 1.0, 5.0])
        assert hl.non_cyclicity_witness(f, 100) <= 1e-13 * hl.norm(f)

    def test_one_plus_z(self):
        assert hl.non_cyclicity_witness(hl.from_coeffs([1.0, 1.0]), 50) <= 1e-13

    def test_violating_input_rejected(self):
        with pytest.raises(HypothesisViolated):
            hl.non_cyclicity_witness(hl.from_coeffs([1.0, 2.0]), 10)

    def test_constant_rejected_for_missing_degree(self):
        with pytest.raises(HypothesisViolated):
            hl.non_cyclicity_witness(hl.one(), 10)

    def test_tolerance_scales_with_constant_term(self):
        f = hl.from_coeffs([1e6, 1e6 + 1e-9])
        assert hl.non_cyclicity_witness(f, 10) <= 1e-13 * hl.norm(f)

    def test_result_is_the_gap_of_the_first_two_coefficients(self):
        # accepted, and the witness 5.0e-15 is 3.5e-12 ||f||: ||f|| < 1 here
        f = hl.from_coeffs([1e-3, 1e-3 + 5e-15, 0.0])
        assert hl.non_cyclicity_witness(f, 20) == abs(f.coeffs[0] - f.coeffs[1]) > 0
        rng = np.random.default_rng(31)
        for _ in range(20):
            c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            c[1] = c[0] * (1 + 3e-15)
            f = hl.from_coeffs(c)
            assert hl.non_cyclicity_witness(f, 20) == abs(f.coeffs[0] - f.coeffs[1])

    def test_small_gap_at_unit_scale_rejected(self):
        with pytest.raises(HypothesisViolated):
            hl.non_cyclicity_witness(hl.from_coeffs([1.0, 1.0 + 1e-10]), 10)
