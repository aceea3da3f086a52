import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hardylab as hl
from hardylab import projection
from hardylab.errors import IndexOutOfRange
from hardylab.special import _harmonic_table, _hk_coeffs


def bd_rows(k_max, n_trunc):
    """The row source of ``baez_duarte_sequence(k_max, n_trunc)``: [h_2 .. h_kmax | 1]."""
    handed_over = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(projection, "_nested_reports",
                   lambda rows, factor: handed_over.append(rows) or [[]])
        hl.baez_duarte_sequence(k_max, n_trunc)
    return handed_over[0]


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

    def test_huge_k_needs_no_run_of_k_copies(self):
        k = 2**62
        tracemalloc.start()
        try:
            got = hl.hk_closed_form(k, 5).coeffs
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # every floor(j/k) is 0, so coefficient j is H_j - log k
        assert np.array_equal(got, _harmonic_table(5) - np.log(k))
        assert peak < 1 << 20

    def test_rejects_degree_past_numpy_array_limit(self):
        # 2^63 coefficients: numpy itself would refuse them with a ValueError
        for make in (hl.hk_closed_form, hl.hk_oracle):
            with pytest.raises(IndexOutOfRange, match="array size limit"):
                make(3, 2**63)

    @pytest.mark.parametrize("k", [2**1024, 10**400])
    def test_rejects_k_beyond_double_precision(self, k):
        for make in (hl.hk_closed_form, hl.hk_oracle):
            with pytest.raises(IndexOutOfRange, match="double precision"):
                make(k, 5)


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
                assert actual <= k / np.sqrt(n_trunc + 1)


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
        # bd takes at most one h_k per coefficient
        k_max = min(12, n_trunc + 2)
        a = bd_rows(k_max, n_trunc)(0, n_trunc + 1)
        for k in range(2, k_max + 1):
            assert a[:, k - 2].tobytes() == hl.hk_closed_form(k, n_trunc).coeffs.tobytes()

    @pytest.mark.parametrize("n_trunc", [0, 1, 4095, 4096, 16384])
    def test_repeat_gather_bit_identical_to_floor_index(self, n_trunc):
        h = _harmonic_table(n_trunc)
        for k in (2, 3, 64, n_trunc + 1, n_trunc + 5):
            by_index = h - h[np.arange(len(h)) // k] - np.log(k)
            assert np.array_equal(_hk_coeffs(h, k, 0, len(h)), by_index)

    # Row windows lo..hi-1 of a 6201-row matrix: across multiples of 2048,
    # lo off every multiple of k, windows narrower than k (up to 12 here),
    # and the last rows.
    WINDOWS = [(0, 1), (0, 2048), (2047, 2049), (2047, 2050), (1000, 3100),
               (2048, 4096), (4095, 4101), (6143, 6145), (6144, 6201), (6200, 6201)]

    def test_row_windows_bit_identical_to_whole_columns(self):
        rows = bd_rows(12, 6200)
        whole = rows(0, 6201)
        for lo, hi in self.WINDOWS:
            # bd at truncation hi - 1, its table built only through the
            # window's last row, gives the same bits in its leading columns.
            for source in (rows, bd_rows(min(12, hi + 1), hi - 1)):
                window = source(lo, hi)
                h_cols = window.shape[1] - 1
                assert window[:, :-1].tobytes("F") == whole[lo:hi, :h_cols].tobytes("F"), (lo, hi)
                assert window[:, -1].tobytes() == whole[lo:hi, -1].tobytes(), (lo, hi)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 2048, 2049, 6201, 2**70])
    def test_windowed_runs_bit_identical_to_floor_index(self, k):
        h = _harmonic_table(6200)
        # Every j < len(h) has floor(j / k) = floor(j / len(h)) = 0 once k >= len(h).
        by_index = h - h[np.arange(len(h)) // min(k, len(h))] - np.log(float(k))
        for lo, hi in self.WINDOWS:
            assert _hk_coeffs(h, k, lo, hi).tobytes() == by_index[lo:hi].tobytes(), (lo, hi)

    @pytest.mark.parametrize("k", [2, 3, 2**31 - 1, 2**53 + 1, 2**62 + 1, 2**63 - 1])
    def test_log_of_float_k_is_log_of_k(self, k):
        assert np.log(float(k)).tobytes() == np.log(k).tobytes()


class TestTruncationCertificate:
    def test_equals_inline_tail_sum(self):
        n_trunc = 1024
        seq = hl.baez_duarte_sequence(8, n_trunc)
        for k in range(2, 9):
            coefficients = seq.coefficients[: k - 1, k - 2]
            inline = sum(
                abs(c) * (j / np.sqrt(n_trunc + 1))
                for j, c in zip(range(2, k + 1), coefficients)
            )
            assert hl.truncation_certificate(coefficients, n_trunc) == inline

    # magnitudes far below overflow, as the coefficients of a fit are
    @given(st.one_of(st.lists(st.floats(-1e150, 1e150), max_size=60),
                     st.lists(st.complex_numbers(max_magnitude=1e150), max_size=60)),
           st.integers(0, 2**40), st.booleans())
    def test_equals_the_python_sum_bit_for_bit(self, coefficients, n_trunc, as_array):
        if as_array:
            coefficients = np.array(coefficients)
        root = np.sqrt(n_trunc + 1)
        want = float(sum(abs(c) * (k / root) for k, c in enumerate(coefficients, start=2)))
        got = hl.truncation_certificate(coefficients, n_trunc)
        assert type(got) is float and got.hex() == want.hex()
