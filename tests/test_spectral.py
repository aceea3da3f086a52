import numpy as np
import pytest

import hardylab as hl
from hardylab import spectral
from hardylab.errors import IndexOutOfRange, OutsideSpectralBall, TruncationTooShort


class TestEigenvectorConstruction:
    def test_lambda_zero_gives_one_minus_z(self):
        pair = hl.adjoint_eigenvector(2, 0.0, 1)
        assert np.array_equal(pair.vector.coeffs, [1, -1])
        assert pair.residual == 0

    def test_lambda_one_gives_constant(self):
        pair = hl.adjoint_eigenvector(2, 1.0, 4)
        expected = np.zeros(16)
        expected[0] = 1.0
        assert np.array_equal(pair.vector.coeffs, expected)
        assert pair.residual == 0

    def test_generic_point_small_residual(self):
        pair = hl.adjoint_eigenvector(3, 1.2, 6)
        assert pair.residual <= 1e-12 * hl.norm(pair.vector)

    def test_leading_coefficient_is_one(self):
        pair = hl.adjoint_eigenvector(2, 0.3 + 0.4j, 5)
        assert pair.vector.coeffs[0] == 1.0

    def test_band_structure(self):
        lam = 0.5 - 0.25j
        pair = hl.adjoint_eigenvector(2, lam, 3)
        v = pair.vector.coeffs
        assert v[1] == pytest.approx(lam - 1)
        assert v[2] == v[3] == pytest.approx((lam / 2) * (lam - 1))
        assert np.all(v[4:8] == v[4])

    def test_tail_mass_is_outermost_band_norm(self):
        lam = 0.6 + 0.2j
        pair = hl.adjoint_eigenvector(2, lam, 4)
        band = pair.vector.coeffs[2**3 :]
        assert pair.tail_mass == pytest.approx(np.linalg.norm(band), rel=1e-15)
        # the residual window and the uncertified band partition the vector
        assert len(band) == 2**4 - 2**3

    def test_outside_ball_rejected(self):
        with pytest.raises(OutsideSpectralBall):
            hl.adjoint_eigenvector(2, np.sqrt(2), 3)
        with pytest.raises(OutsideSpectralBall):
            hl.adjoint_eigenvector(3, 2.0, 3)

    def test_bad_index_or_level(self):
        with pytest.raises(IndexOutOfRange):
            hl.adjoint_eigenvector(1, 0.0, 3)
        with pytest.raises(IndexOutOfRange):
            hl.adjoint_eigenvector(2, 0.0, 0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_random_eigenvalues_small_residual(self, n):
        rng = np.random.default_rng(31 + n)
        level = hl.level_for_degree(n, 4096)
        for _ in range(25):
            lam = (
                0.95 * np.sqrt(n) * np.sqrt(rng.uniform())
                * np.exp(2j * np.pi * rng.uniform())
            )
            pair = hl.adjoint_eigenvector(n, lam, level)
            assert pair.residual <= 1e-10 * hl.norm(pair.vector)


class TestNormClosedForm:
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_direct_summation(self, n):
        rng = np.random.default_rng(47 + n)
        level = hl.level_for_degree(n, 4096)
        for _ in range(25):
            lam = (
                0.95 * np.sqrt(n) * np.sqrt(rng.uniform())
                * np.exp(2j * np.pi * rng.uniform())
            )
            direct = hl.norm(hl.adjoint_eigenvector(n, lam, level).vector) ** 2
            closed = hl.eigenvector_norm_sq(n, lam, level)
            assert abs(direct - closed) <= 1e-12 * closed

    def test_norm_stays_finite_near_boundary(self):
        lam = 0.99 * np.sqrt(2)
        pair = hl.adjoint_eigenvector(2, lam, 12)
        assert np.isfinite(hl.norm(pair.vector))
        # norm grows toward the boundary but each truncation is finite
        smaller = hl.norm(hl.adjoint_eigenvector(2, 0.5 * np.sqrt(2), 12).vector)
        assert hl.norm(pair.vector) > smaller

    @pytest.mark.parametrize("level", [0, -1])
    def test_level_below_one_rejected(self, level):
        # the same level gate as adjoint_eigenvector
        with pytest.raises(IndexOutOfRange, match="truncation level"):
            hl.eigenvector_norm_sq(2, 0.5, level)


class TestLevelForDegree:
    def test_powers(self):
        assert hl.level_for_degree(2, 4096) == 12
        assert hl.level_for_degree(3, 4096) == 8
        assert hl.level_for_degree(70, 4096) == 2
        assert hl.level_for_degree(5000, 4096) == 1

    @pytest.mark.parametrize("n", [1, 0, -2])
    def test_index_below_two_rejected(self, n):
        # n^L never reaches the count for n < 2, so this must raise, not loop
        with pytest.raises(IndexOutOfRange):
            hl.level_for_degree(n, 4096)


class TestDiskScan:
    def test_small_grid_residuals(self):
        report = hl.spectral_disk_scan(2, [0.0, 0.5, 0.9], 8)
        assert len(report.points) == 24
        assert report.max_residual <= 1e-10
        assert report.all_norms_finite
        assert report.max_norm_mismatch <= 1e-12

    def test_radius_one_rejected(self):
        with pytest.raises(OutsideSpectralBall):
            hl.spectral_disk_scan(2, [0.0, 1.0], 4)

    def test_bad_index_rejected(self):
        with pytest.raises(IndexOutOfRange):
            hl.spectral_disk_scan(1, [0.5], 4)

    def test_empty_radii_rejected(self):
        with pytest.raises(IndexOutOfRange, match="radii"):
            hl.spectral_disk_scan(2, [], 4)


class TestBatchedScanOracle:
    """The batched scan against the per-point construction it replaces."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
    def test_points_match_per_point_oracle(self, n):
        radii, angles = [0.0, 0.5, 0.9], 8
        report = hl.spectral_disk_scan(n, radii, angles)
        level = report.level
        # the grid spans more than one row block
        assert len(radii) * angles > spectral._BLOCK_BYTES // (16 * n**level)
        sqrt_n = float(np.sqrt(n))
        expected_lams = [
            r * sqrt_n * np.exp(2j * np.pi * t / angles) for r in radii for t in range(angles)
        ]
        assert [p.lam for p in report.points] == expected_lams
        for p in report.points:
            pair = hl.adjoint_eigenvector(n, p.lam, level)
            assert p.vector_norm == hl.norm(pair.vector)
            assert p.norm_closed_form == float(
                np.sqrt(hl.eigenvector_norm_sq(n, p.lam, level))
            )
            if n <= 3:
                assert p.residual == pair.residual
            else:
                # only the summation order of the block sums differs
                assert abs(p.residual - pair.residual) <= 1e-15 * p.vector_norm


class TestShiftDecay:
    def test_constant_decays_geometrically(self):
        d = hl.shift_decay(2, hl.one(2**10 - 1), 10)
        expected = [2 ** (-m / 2) for m in range(1, 11)]
        assert np.max(np.abs(np.array(d) - expected)) <= 1e-14

    def test_kernel_vector_drops_to_zero(self):
        d = hl.shift_decay(2, hl.pad(hl.kernel_vector(2, 0), 2**6 - 1), 5)
        assert d == [0.0] * 5

    def test_monomial_first_step(self):
        d = hl.shift_decay(2, hl.pad(hl.monomial(1), 3), 1)
        assert d[0] == pytest.approx(1 / np.sqrt(2), rel=1e-15)

    def test_nonincreasing(self):
        rng = np.random.default_rng(5)
        c = rng.standard_normal(3**6) + 1j * rng.standard_normal(3**6)
        f = hl.from_coeffs(c)
        d = hl.shift_decay(3, f, 5)
        assert all(b <= a + 1e-12 for a, b in zip(d, d[1:]))
        assert all(x <= hl.norm(f) for x in d)

    def test_window_exhaustion_raises(self):
        with pytest.raises(TruncationTooShort):
            hl.shift_decay(2, hl.one(7), 4)  # valid 7 supports only 3 applications

    def test_bad_args(self):
        with pytest.raises(IndexOutOfRange):
            hl.shift_decay(1, hl.one(3), 1)
        with pytest.raises(IndexOutOfRange):
            hl.shift_decay(2, hl.one(3), 0)
