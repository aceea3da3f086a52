import math
import sys

import numpy as np
import pytest
from oracles import monomial, python_complex_bands, series_adjoint_eigenvector

import hardylab as hl
from hardylab import spectral
from hardylab.errors import IndexOutOfRange, OutsideSpectralBall, TruncationTooShort
from hardylab.semigroup import weighted_dilation_adjoint
from hardylab.series import array_norm


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

    @pytest.mark.parametrize("lam", [np.nan, complex(0, np.nan)])
    def test_nan_eigenvalue_rejected(self, lam):
        with pytest.raises(OutsideSpectralBall):
            hl.adjoint_eigenvector(2, lam, 3)
        with pytest.raises(OutsideSpectralBall):
            hl.eigenvector_norm_sq(2, lam, 3)
        with pytest.raises(OutsideSpectralBall):
            spectral._eigen_bands(2, [0.5, lam], 3)

    def test_bad_index_or_level(self):
        with pytest.raises(IndexOutOfRange):
            hl.adjoint_eigenvector(1, 0.0, 3)
        with pytest.raises(IndexOutOfRange):
            hl.adjoint_eigenvector(2, 0.0, 0)

    # 2^62 coefficients ask for more bytes than intp holds; 2^70 does not fit an int64
    @pytest.mark.parametrize("level", [62, 70])
    def test_level_past_numpy_array_limit_rejected(self, level):
        with pytest.raises(IndexOutOfRange, match="array size limit"):
            hl.adjoint_eigenvector(2, 0.5, level)

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

    def test_matches_its_series_form_bit_for_bit(self):
        rng = np.random.default_rng(400)
        for _ in range(400):
            n = int(rng.integers(2, 8))
            level = int(rng.integers(1, hl.level_for_degree(n, 2048) + 1))
            lam = 0.99 * np.sqrt(n) * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            pair = hl.adjoint_eigenvector(n, lam, level)
            vector, residual, tail_mass = series_adjoint_eigenvector(n, lam, level)
            assert pair.vector.coeffs.dtype == vector.dtype
            assert pair.vector.coeffs.tobytes() == vector.tobytes()
            assert type(pair.residual) is float and type(pair.tail_mass) is float
            got = (pair.residual.hex(), pair.tail_mass.hex())
            assert got == (residual.hex(), tail_mass.hex()), (n, lam, level)


class TestStackedEigenvectors:
    """The rows of one ``_eigenvectors`` call against each point on its own, bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_stacked_rows_match_lone_points(self, n):
        level = hl.level_for_degree(n, 4096)
        window = n ** (level - 1)
        rng = np.random.default_rng(60 + n)
        edge = 0.95 * math.sqrt(n)
        # zero, real points, points on |lam| = 0.95 sqrt(n), then points inside
        lams = np.concatenate([
            [0.0, 0.5, -1.25, edge, -edge, 1j * edge],
            edge * np.exp(2j * np.pi * rng.uniform(size=6)),
            edge * np.sqrt(rng.uniform(size=38)) * np.exp(2j * np.pi * rng.uniform(size=38)),
        ])
        vectors, residuals = spectral._eigenvectors(n, *spectral._eigen_bands(n, lams, level))
        assert vectors.shape == (len(lams), n**level) and residuals.shape == (len(lams),)
        for i, lam in enumerate(lams):
            lone = spectral._eigen_bands(n, lams[i : i + 1], level)
            lone_vector, lone_residual = spectral._eigenvectors(n, *lone)
            pair = hl.adjoint_eigenvector(n, lam, level)
            # its one-point form, against the scalar lam * v
            vector, residual, tail_mass = series_adjoint_eigenvector(n, lam, level)
            for got in (vectors[i], lone_vector[0], pair.vector.coeffs):
                assert got.dtype == vector.dtype and got.tobytes() == vector.tobytes(), (n, i)
            for got in (residuals[i], lone_residual[0], pair.residual):
                assert float(got).hex() == residual.hex(), (n, i)
            assert array_norm(vectors[i, window:]).hex() == tail_mass.hex(), (n, i)
            assert pair.tail_mass.hex() == tail_mass.hex(), (n, i)


def top_level(n):
    """The largest truncation level the float64 gate lets through at index n."""
    level = 1
    while level + 1 < 1024 and n ** (level + 1) <= sys.float_info.max:
        level += 1
    return level


class TestBandRecurrence:
    """The band table against the Python complex recurrence, byte for byte."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 70, 2**62])
    def test_bands_match_python_complex_recurrence(self, n):
        rng = np.random.default_rng(n % 1009)
        radius = math.sqrt(n)
        random = (
            0.999 * radius * np.sqrt(rng.uniform(size=400))
            * np.exp(2j * np.pi * rng.uniform(size=400))
        )
        # r = 0 with every sign of zero, lam = 1, and points on both axes
        zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
        axes = [complex(x, z) for x in (0.5 * radius, -0.5 * radius, 1.0) for z in (0.0, -0.0)]
        axes += [complex(z, y) for y in (0.5 * radius, -0.5 * radius) for z in (0.0, -0.0)]
        points = np.concatenate([zeros, axes, random])
        top = top_level(n)
        for level in (1, 2, 8, top):
            lams, table, counts = spectral._eigen_bands(n, points, level)
            assert lams.tobytes() == points.tobytes()
            assert table.shape == (len(points), level + 1)
            # degree 0 holds exactly 1 + 0j, then the bands
            assert table[:, 0].tobytes() == np.ones(len(points), complex).tobytes()
            want = python_complex_bands(n, points, level)
            assert np.array_equal(table[:, 1:].view(np.uint64), want.view(np.uint64))
            assert counts == [1] + [n**ell * (n - 1) for ell in range(level)]
        with pytest.raises(IndexOutOfRange, match="truncation level"):
            spectral._eigen_bands(n, points, top + 1)


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

    @pytest.mark.parametrize("n, level", [(2, 12), (3, 8), (5, 3), (7, 1), (70, 2)])
    def test_array_of_points_matches_per_point_formula(self, n, level):
        rng = np.random.default_rng(n)
        lams = (
            0.99 * np.sqrt(n) * np.sqrt(rng.uniform(size=200))
            * np.exp(2j * np.pi * rng.uniform(size=200))
        )
        got = hl.eigenvector_norm_sq(n, lams, level)
        assert isinstance(got, np.ndarray) and got.shape == lams.shape
        for lam, value in zip(lams, got):
            q = abs(lam) ** 2 / n
            expected = 1.0 + abs(lam - 1) ** 2 / (n - 1) * (q ** np.arange(level)).sum()
            assert value == expected
            scalar = hl.eigenvector_norm_sq(n, lam, level)
            assert type(scalar) is float and scalar == value

    def test_every_point_of_an_array_is_checked(self):
        with pytest.raises(OutsideSpectralBall, match=r"^\|lam\| = 1.5 is not inside"):
            hl.eigenvector_norm_sq(2, np.array([0.5, 1.5, 0.1j, 2.5]), 3)

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

    @pytest.mark.parametrize("count", [0, -5])
    def test_count_below_one_rejected(self, count):
        # level 1 already meets such a count, so it must raise, not return 1
        with pytest.raises(IndexOutOfRange, match=f"min_degree_count must be >= 1, got {count}"):
            hl.level_for_degree(3, count)
        with pytest.raises(IndexOutOfRange, match="min_degree_count"):
            hl.spectral_disk_scan(3, [0.5], 2, count)


class TestDiskScan:
    def test_small_grid_residuals(self):
        report = hl.spectral_disk_scan(2, [0.0, 0.5, 0.9], 8)
        assert report.lam.shape == report.residual.shape == (24,)
        assert report.vector_norm.shape == report.norm_closed_form.shape == (24,)
        assert report.max_residual <= 1e-10
        assert report.all_norms_finite
        assert report.max_norm_mismatch <= 1e-12

    def test_radius_one_rejected(self):
        with pytest.raises(OutsideSpectralBall):
            hl.spectral_disk_scan(2, [0.0, 1.0], 4)

    def test_bad_index_rejected(self):
        with pytest.raises(IndexOutOfRange):
            hl.spectral_disk_scan(1, [0.5], 4)

    def test_angles_match_python_complex_arithmetic(self):
        # at n = 4 and r = 0.5 the radius is exactly 1.0, so each point is its turn
        for count in [*range(1, 300), 1000, 4096, 10007]:
            turns = [np.exp(2j * np.pi * t / count) for t in range(count)]
            lam = hl.spectral_disk_scan(4, [0.5], count).lam
            assert lam.tobytes() == np.array(turns).tobytes(), count

    def test_angle_count_past_numpy_array_limit_rejected(self):
        with pytest.raises(IndexOutOfRange, match="array size limit"):
            hl.spectral_disk_scan(3, [0.5], 2**63)

    def test_empty_radii_rejected(self):
        with pytest.raises(IndexOutOfRange, match="radii"):
            hl.spectral_disk_scan(2, [], 4)

    @pytest.mark.parametrize("n", [2**62, 2**70])
    def test_index_beyond_int64_scans(self, n):
        # the closed-form block sums take no step per block entry
        report = hl.spectral_disk_scan(n, [0.5], 2)
        assert report.level == 1 and report.lam.shape == (2,)
        assert report.max_residual <= 1e-10
        assert report.all_norms_finite
        assert report.max_norm_mismatch <= 1e-12

    @pytest.mark.parametrize("n", [10**400, 10**5000], ids=["10^400", "10^5000"])
    def test_index_beyond_float64_is_typed(self, n):
        with pytest.raises(IndexOutOfRange, match="truncation level .* index of"):
            hl.spectral_disk_scan(n, [0.5], 2)
        with pytest.raises(IndexOutOfRange, match="truncation level .* index of"):
            hl.adjoint_eigenvector(n, 0.5, 1)


class TestBatchedScanOracle:
    """The band-value scan against the per-point construction over full vectors."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
    def test_points_match_per_point_oracle(self, n):
        radii, angles = [0.0, 0.5, 0.9], 8
        report = hl.spectral_disk_scan(n, radii, angles)
        level = report.level
        sqrt_n = float(np.sqrt(n))
        expected_lams = np.array([
            r * sqrt_n * np.exp(2j * np.pi * t / angles) for r in radii for t in range(angles)
        ])
        # by bytes, so the signed zeros at r = 0 count
        assert report.lam.tobytes() == expected_lams.tobytes()
        _, vector, counts = spectral._eigen_bands(n, report.lam, level)
        bands = vector[:, 1:]
        residual_bands = spectral._residual_bands(n, report.lam, bands)
        # bit for bit the closed form: 1 + (n-1)*b_0 - lam, then n*b_l - lam*b_(l-1)
        closed = [1 + (n - 1) * bands[:, 0] - report.lam]
        closed += [n * bands[:, ell] - report.lam * bands[:, ell - 1] for ell in range(1, level)]
        assert residual_bands.tobytes() == np.column_stack(closed).tobytes()
        residual = np.repeat(residual_bands, counts[:-1], axis=1)
        rows = np.repeat(vector, counts, axis=1)
        window = n ** (level - 1)
        for i, lam in enumerate(report.lam):
            pair = hl.adjoint_eigenvector(n, lam, level)
            v = pair.vector.coeffs
            # the band values expand bit for bit to the vector filled band by band
            band_value, filled = (complex(lam) - 1) / (n - 1), [1.0]
            for ell in range(level):
                filled += [band_value] * (n**ell * (n - 1))
                band_value *= complex(lam) / n
            assert rows[i].tobytes() == v.tobytes()
            assert v.tobytes() == np.array(filled, dtype=complex).tobytes()
            entries = residual[i]
            if n == 2:
                # b + b == 2*b: equal values; the oracle's np.add.reduce may flip the sign of a zero
                adj = weighted_dilation_adjoint(n, pair.vector).coeffs
                assert np.array_equal(entries, adj - pair.lam * v[:window])
            else:
                # the closed form rounds each block sum once, the oracle's adds n - 1 times
                assert abs(report.residual[i] - pair.residual) <= 1e-15 * report.vector_norm[i]
            # both norms within (level + 2) * 2^-52 relative of an exactly rounded sum
            for got, full in [(report.vector_norm[i], v), (report.residual[i], entries)]:
                squares = np.concatenate([full.real**2, full.imag**2]).tolist()
                exact = math.sqrt(math.fsum(squares))
                assert abs(got - exact) <= (level + 2) * 2.0**-52 * exact
            assert abs(report.vector_norm[i] - hl.norm(pair.vector)) <= 1e-12
            assert report.norm_closed_form[i] == float(
                np.sqrt(hl.eigenvector_norm_sq(n, lam, level))
            )


class TestShiftDecay:
    def test_constant_decays_geometrically(self):
        d = hl.shift_decay(2, hl.one(2**10 - 1), 10)
        expected = [2 ** (-m / 2) for m in range(1, 11)]
        assert np.max(np.abs(np.array(d) - expected)) <= 1e-14

    def test_kernel_vector_drops_to_zero(self):
        d = hl.shift_decay(2, hl.pad(hl.kernel_vector(2, 0), 2**6 - 1), 5)
        assert d == [0.0] * 5

    def test_monomial_first_step(self):
        d = hl.shift_decay(2, hl.pad(monomial(1), 3), 1)
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
