import numpy as np
import pytest

import hardylab as hl
from hardylab.errors import IndexOutOfRange
from hardylab.special import _harmonic_table, _hk_coeffs


class TestHkValues:
    def test_h2_constant_coefficient(self):
        assert hl.hk_closed_form(2, 0).coeffs[0].real == pytest.approx(
            -np.log(2), abs=1e-15
        )

    def test_h2_degree_two(self):
        # H_2 - H_1 - log 2 = 1/2 - log 2
        got = hl.hk_closed_form(2, 2).coeffs[2].real
        assert got == pytest.approx(0.5 - np.log(2), abs=1e-15)

    def test_h3_degree_one(self):
        got = hl.hk_closed_form(3, 1).coeffs[1].real
        assert got == pytest.approx(1.0 - np.log(3), abs=1e-15)

    def test_oracle_constant_term(self):
        assert hl.hk_oracle(2, 0).coeffs[0].real == pytest.approx(-np.log(2), abs=1e-15)

    def test_oracle_degree_zero_truncation(self):
        got = hl.hk_oracle(5, 0)
        assert got.valid_degree == 0
        assert got.coeffs[0] == pytest.approx(-np.log(5), abs=1e-15)

    def test_rejects_k_below_two(self):
        with pytest.raises(IndexOutOfRange):
            hl.hk_closed_form(1, 16)
        with pytest.raises(IndexOutOfRange):
            hl.hk_oracle(1, 16)
        with pytest.raises(IndexOutOfRange):
            hl.hk_closed_form(2, -1)


class TestMutualOracle:
    def test_small_case_everywhere(self):
        a = hl.hk_closed_form(2, 64)
        b = hl.hk_oracle(2, 64)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12

    @pytest.mark.parametrize("k", [2, 3, 5, 10, 30])
    def test_agreement_to_degree_4096(self, k):
        a = hl.hk_closed_form(k, 4096)
        b = hl.hk_oracle(k, 4096)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12


class TestHkStructure:
    @pytest.mark.parametrize("n,k", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (3, 5)])
    def test_dilation_identity(self, n, k):
        # the index-n image of h_k equals h_{nk} - h_n on the output window
        lhs = hl.weighted_dilation(n, hl.hk_closed_form(k, 400))
        deg = lhs.valid_degree
        rhs = hl.axpy(-1.0, hl.hk_closed_form(n, deg), hl.hk_closed_form(n * k, deg))
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-12

    @pytest.mark.parametrize("k", [2, 3, 5, 10, 30])
    def test_decay_bound(self, k):
        c = hl.hk_closed_form(k, 4096).coeffs
        j = np.arange(1, 4097)
        assert np.all(np.abs(c[1:]) <= k / (j + 1))

    def test_first_difference_is_minus_one(self):
        for k in range(2, 51):
            c = hl.hk_closed_form(k, 1).coeffs
            assert abs(c[0] - c[1] + 1.0) <= 1e-14

    def test_tail_norm_bound_dominates_actual_tail(self):
        for k in (2, 7, 30):
            deep = hl.hk_closed_form(k, 8192).coeffs
            for n_trunc in (256, 1024):
                actual = np.linalg.norm(deep[n_trunc + 1 :])
                assert actual <= hl.hk_tail_norm_bound(k, n_trunc)


class TestDirichletEnergy:
    def test_constant_has_zero_energy(self):
        assert hl.dirichlet_energy_at_one(hl.one(8)) == 0

    def test_one_minus_z(self):
        assert hl.dirichlet_energy_at_one(hl.from_coeffs([1, -1])) == 1

    def test_kernel_vector_bound_instance(self):
        v = hl.kernel_vector(2, 0)  # 1 - z
        energy = hl.dirichlet_energy_at_one(v)
        assert energy == 1
        assert energy <= 2**2 * 2 * hl.norm(v) ** 2

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_kernel_combination_bound(self, n):
        rng = np.random.default_rng(99 + n)
        vecs = [hl.kernel_vector(n, k) for k in range(21)]
        top = max(len(v.coeffs) for v in vecs)
        for _ in range(50):
            c = rng.standard_normal(21) + 1j * rng.standard_normal(21)
            acc = np.zeros(top, dtype=complex)
            for ck, v in zip(c, vecs):
                acc[: len(v.coeffs)] += ck * v.coeffs
            f = hl.from_coeffs(acc)
            assert hl.dirichlet_energy_at_one(f) <= 2**n * n * hl.norm(f) ** 2

    def test_energy_of_monomial_difference(self):
        # 1 - z^3: tails are -1 at i = 0, 1, 2 and 0 afterwards
        f = hl.from_coeffs([1, 0, 0, -1])
        assert hl.dirichlet_energy_at_one(f) == pytest.approx(3.0, abs=1e-15)


class TestHkMatrix:
    @pytest.mark.parametrize("n_trunc", [0, 1, 257, 2048])
    def test_columns_bit_identical_to_closed_form(self, n_trunc):
        a = hl.hk_matrix(12, n_trunc)
        assert a.shape == (n_trunc + 1, 11)
        for k in range(2, 13):
            assert np.array_equal(a[:, k - 2], hl.hk_closed_form(k, n_trunc).coeffs)

    def test_rejects_small_kmax(self):
        with pytest.raises(IndexOutOfRange):
            hl.hk_matrix(1, 8)

    def test_is_column_major(self):
        assert hl.hk_matrix(12, 257).flags.f_contiguous

    @pytest.mark.parametrize("n_trunc", [0, 1, 4095, 4096, 16384])
    def test_repeat_gather_bit_identical_to_floor_index(self, n_trunc):
        h = _harmonic_table(n_trunc)
        for k in (2, 3, 64, n_trunc + 1, n_trunc + 5):
            by_index = h - h[np.arange(len(h)) // k] - np.log(k)
            assert np.array_equal(_hk_coeffs(h, k), by_index)


class TestTruncationCertificate:
    def test_equals_inline_tail_sum(self):
        n_trunc = 1024
        for k, rep in hl.baez_duarte_sequence(8, n_trunc):
            inline = sum(
                abs(c) * hl.hk_tail_norm_bound(j, n_trunc)
                for j, c in zip(range(2, k + 1), rep.coefficients)
            )
            assert hl.truncation_certificate(rep.coefficients, n_trunc) == inline
