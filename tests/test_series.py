import csv
import json
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hardylab as hl
from hardylab.errors import NearZeroConstantTerm
from hardylab.series import _CSV_BLOCK_ROWS, _LOG_BLOCK


def series_from(re, im=None):
    re = np.asarray(re, dtype=float)
    c = re if im is None else re + 1j * np.asarray(im, dtype=float)
    return hl.from_coeffs(c)


@st.composite
def random_series(draw, max_len=64, bound=1.0):
    n = draw(st.integers(min_value=1, max_value=max_len))
    re = draw(st.lists(st.floats(-bound, bound), min_size=n, max_size=n))
    im = draw(st.lists(st.floats(-bound, bound), min_size=n, max_size=n))
    return series_from(re, im)


class TestConstruction:
    def test_valid_degree_tracks_length(self):
        f = series_from([1, 2, 3])
        assert f.valid_degree == 2
        assert len(f) == 3

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            hl.from_coeffs([1.0, np.nan])
        with pytest.raises(ValueError):
            hl.from_coeffs([np.inf])

    def test_immutable(self):
        f = series_from([1, 2])
        with pytest.raises(ValueError):
            f.coeffs[0] = 5.0

    def test_truncate_and_pad(self):
        f = series_from([1, 2, 3])
        assert np.array_equal(hl.truncate(f, 1).coeffs, [1, 2])
        assert np.array_equal(hl.pad(f, 4).coeffs, [1, 2, 3, 0, 0])
        with pytest.raises(ValueError):
            hl.truncate(f, 5)
        with pytest.raises(ValueError):
            hl.pad(f, 1)

    @pytest.mark.parametrize(
        "call",
        [
            lambda f: hl.truncate(f, -5),
            lambda f: hl.truncate(f, -1),
            lambda f: hl.fit_degree(f, -3),
            lambda f: hl.one(-1),
            lambda f: hl.zero(-1),
            lambda f: hl.zero(-3),
        ],
        ids=["truncate-5", "truncate-1", "fit_degree-3", "one-1", "zero-1", "zero-3"],
    )
    def test_negative_valid_degree_rejected(self, call):
        with pytest.raises(ValueError, match="valid degree must be >= 0"):
            call(series_from(np.arange(10.0)))


REAL = [1.0, -2.0, 0.5, 3.0]
COMPLEX = [1.0, -2.0j, 0.5 + 1j, 3.0]
# Every constructor and transform that passes real data through; each
# takes the input coefficients as a list.
DTYPE_PRESERVING = {
    "from_coeffs": hl.from_coeffs,
    "pad": lambda c: hl.pad(hl.from_coeffs(c), 7),
    "truncate": lambda c: hl.truncate(hl.from_coeffs(c), 2),
    "shift_up": lambda c: hl.shift_up(hl.from_coeffs(c)),
    "cumsum": lambda c: hl.cumsum(hl.from_coeffs(c)),
    "weighted_dilation": lambda c: hl.weighted_dilation(3, hl.from_coeffs(c)),
    "weighted_dilation_adjoint": lambda c: hl.weighted_dilation_adjoint(2, hl.from_coeffs(c)),
    "dilation": lambda c: hl.dilation(3, hl.from_coeffs(c)),
}
REAL_ONLY = {
    "one": lambda: hl.one(5),
    "zero": lambda: hl.zero(5),
    "monomial": lambda: hl.monomial(2, 5),
    "kernel_vector": lambda: hl.kernel_vector(3, 2),
    "hk_closed_form": lambda: hl.hk_closed_form(3, 50),
}


class TestDtypeRule:
    @pytest.mark.parametrize("name", sorted(DTYPE_PRESERVING))
    def test_real_stays_real_and_complex_stays_complex(self, name):
        assert DTYPE_PRESERVING[name](REAL).coeffs.dtype == np.float64
        assert DTYPE_PRESERVING[name](COMPLEX).coeffs.dtype == np.complex128

    @pytest.mark.parametrize("name", sorted(REAL_ONLY))
    def test_real_constructors_are_float64(self, name):
        assert REAL_ONLY[name]().coeffs.dtype == np.float64

    @pytest.mark.parametrize("values", [[True, False], [1, 2, 3], np.arange(3, dtype=np.float32)])
    def test_bool_int_and_narrow_floats_widen_to_float64(self, values):
        assert hl.from_coeffs(values).coeffs.dtype == np.float64

    @pytest.mark.parametrize("values", [REAL, COMPLEX])
    def test_formal_log_is_always_complex(self, values):
        assert hl.formal_log(hl.from_coeffs(values)).coeffs.dtype == np.complex128

    @pytest.mark.parametrize(
        "values", [["1", "2"], np.array([1.0, None], dtype=object), [b"1"]]
    )
    def test_non_numeric_rejected(self, values):
        with pytest.raises(ValueError, match="numeric"):
            hl.from_coeffs(values)

    def test_serialized_forms_read_back_complex(self, tmp_path):
        f = hl.from_coeffs(REAL)
        hl.series.write_csv(f, tmp_path / "f.csv")
        assert hl.series.read_csv(tmp_path / "f.csv").coeffs.dtype == np.complex128
        assert hl.series.loads(hl.series.dumps(f)).coeffs.dtype == np.complex128


class TestInnerAndNorm:
    def test_inner_one_plus_z_one_minus_z(self):
        assert hl.inner(series_from([1, 1]), series_from([1, -1])) == 0

    def test_inner_identity(self):
        assert hl.inner(hl.one(), hl.one()) == 1

    def test_inner_conjugates_second_argument(self):
        f = series_from([0, 1], [1, 0])   # i + z
        g = series_from([0, 0], [1, 1])   # i + iz
        # <f, g> = i*conj(i) + 1*conj(i) = 1 + i... conj(i) = -i, so 1 - i
        assert hl.inner(f, g) == pytest.approx(1 - 1j)

    def test_inner_uses_common_window(self):
        f = series_from([1, 2, 3, 4])
        g = series_from([1, 1])
        assert hl.inner(f, g) == 3

    def test_inner_h2_with_one_is_minus_log2(self):
        # oracle: the formal-log pipeline value of the constant coefficient
        h2 = hl.hk_oracle(2, 4096)
        got = hl.inner(h2, hl.one())
        assert got == pytest.approx(-np.log(2), abs=1e-12)
        assert hl.inner(hl.hk_closed_form(2, 4096), hl.one()) == pytest.approx(
            -np.log(2), abs=1e-12
        )

    def test_norm_zero_and_sqrt2(self):
        assert hl.norm(hl.zero(8)) == 0
        assert hl.norm(series_from([1, 1])) == pytest.approx(np.sqrt(2), rel=1e-15)
        assert hl.norm(series_from([1, -1])) == pytest.approx(np.sqrt(2), rel=1e-15)

    @given(f=random_series(), g=random_series())
    def test_inner_conjugate_symmetric(self, f, g):
        assert hl.inner(f, g) == pytest.approx(np.conj(hl.inner(g, f)), abs=1e-12)


class TestAxpy:
    def test_examples(self):
        assert np.array_equal(hl.axpy(1, hl.one(1), series_from([0, 1])).coeffs, [1, 1])
        f = series_from([3, -2, 5])
        assert np.max(np.abs(hl.axpy(-1, f, f).coeffs)) == 0
        got = hl.axpy(2, series_from([1, -1]), series_from([1, 1]))
        assert np.array_equal(got.coeffs, [3, -1])

    def test_valid_degree_is_min(self):
        got = hl.axpy(1, series_from([1, 1, 1]), series_from([1, 1]))
        assert got.valid_degree == 1


class TestCauchyProduct:
    def test_square_of_one_plus_z(self):
        f = hl.pad(series_from([1, 1]), 2)
        assert np.array_equal(hl.cauchy_product(f, f).coeffs, [1, 2, 1])

    def test_weighted_dilation_factorization(self):
        # (1+z)(1+z^2) = 1 + z + z^2 + z^3, the index-2 image of 1 + z
        f = hl.pad(series_from([1, 1]), 3)
        g = hl.pad(series_from([1, 0, 1]), 3)
        assert np.array_equal(hl.cauchy_product(f, g).coeffs, [1, 1, 1, 1])

    def test_multiplicative_identity(self):
        f = series_from([2, -1, 4])
        assert np.array_equal(hl.cauchy_product(f, hl.one(2)).coeffs, f.coeffs)

    def test_valid_degree_is_min(self):
        f = series_from([1, 1, 1, 1])
        g = series_from([1, 1])
        assert hl.cauchy_product(f, g).valid_degree == 1

    @given(f=random_series(max_len=32), g=random_series(max_len=32))
    def test_commutative(self, f, g):
        a = hl.cauchy_product(f, g)
        b = hl.cauchy_product(g, f)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12

    @given(
        f=random_series(max_len=16),
        g=random_series(max_len=16),
        h=random_series(max_len=16),
    )
    def test_associative(self, f, g, h):
        a = hl.cauchy_product(hl.cauchy_product(f, g), h)
        b = hl.cauchy_product(f, hl.cauchy_product(g, h))
        m = min(a.valid_degree, b.valid_degree)
        assert np.max(np.abs(a.coeffs[: m + 1] - b.coeffs[: m + 1])) <= 1e-12


def formal_exp(g):
    """Inverse recurrence to the formal log: e' = g' e, e_0 = exp(g_0)."""
    n = len(g) - 1
    e = np.zeros(n + 1, dtype=complex)
    e[0] = np.exp(g[0])
    for j in range(1, n + 1):
        i = np.arange(1, j + 1)
        e[j] = np.dot(i * g[1 : j + 1], e[j - 1 :: -1]) / j
    return e


def formal_log_reference(c):
    """The formal-log recurrence one coefficient at a time, O(N^2) in Python."""
    f0 = complex(c[0])
    n = len(c) - 1
    fn = np.asarray(c, dtype=complex) / f0
    g = np.zeros(n + 1, dtype=complex)
    g[0] = np.log(f0)
    idx = np.arange(n + 1)
    for j in range(1, n + 1):
        s = np.dot(idx[1:j] * g[1:j], fn[j - 1:0:-1]) if j >= 2 else 0.0
        g[j] = fn[j] - s / j
    return g


def zero_free_polynomial(rng, valid_degree, degree):
    """Coefficients 0..valid_degree of 1 + p(z), deg p <= degree, sum |p_j| < 1."""
    c = np.zeros(valid_degree + 1, dtype=complex)
    m = min(degree, valid_degree) + 1
    c[:m] = rng.uniform(-1, 1, m) + 1j * rng.uniform(-1, 1, m)
    c[0] = 1.0
    tail = np.sum(np.abs(c[1:]))
    if tail > 0:
        c[1:] *= 0.9 * rng.uniform() / tail
    return c


def assert_matches_reference(c):
    got = hl.formal_log(hl.from_coeffs(c)).coeffs
    want = formal_log_reference(c)
    assert len(got) == len(c)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


class TestBlockedFormalLog:
    @pytest.mark.parametrize("degree", [2, 29, None], ids=["d2", "d29", "dense"])
    @pytest.mark.parametrize(
        "valid_degree",
        [0, 1, _LOG_BLOCK - 1, _LOG_BLOCK, _LOG_BLOCK + 1, 3 * _LOG_BLOCK + 5],
    )
    def test_matches_reference(self, valid_degree, degree):
        rng = np.random.default_rng(valid_degree)
        d = valid_degree if degree is None else degree
        assert_matches_reference(zero_free_polynomial(rng, valid_degree, d))

    @given(
        valid_degree=st.integers(0, 3 * _LOG_BLOCK + 5),
        degree=st.integers(0, 3 * _LOG_BLOCK + 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_zero_free_polynomials(self, valid_degree, degree, seed):
        rng = np.random.default_rng(seed)
        assert_matches_reference(zero_free_polynomial(rng, valid_degree, degree))

    @pytest.mark.parametrize(
        "coeffs", [[1e-290, 1e30], [1e-200, 1e120, 1.0]], ids=["f1", "f1-f2"]
    )
    def test_overflow_is_typed_and_silent(self, coeffs):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NearZeroConstantTerm, match=r"\|f_0\| = .*max\|f_j\| = "):
                hl.formal_log(hl.from_coeffs(coeffs))

    def test_min_constant_still_guards(self):
        with pytest.raises(NearZeroConstantTerm, match="constant term"):
            hl.formal_log(series_from([1e-301, 1.0]))


class TestFormalLog:
    def test_log_of_one_is_zero(self):
        got = hl.formal_log(hl.one(5))
        assert np.max(np.abs(got.coeffs)) == 0

    def test_log_of_constant(self):
        got = hl.formal_log(hl.from_coeffs([2.0]))
        assert got.coeffs[0] == pytest.approx(np.log(2), rel=1e-15)

    def test_log_of_geometric_numerator(self):
        # log(1 + z + z^2) = log(1 - z^3) - log(1 - z)
        #                  = z + z^2/2 + (1/3 - 1) z^3 + ...
        f = hl.pad(series_from([1, 1, 1]), 3)
        got = hl.formal_log(f)
        assert got.coeffs == pytest.approx([0.0, 1.0, 0.5, -2.0 / 3.0], abs=1e-15)

    def test_near_zero_constant_term(self):
        with pytest.raises(NearZeroConstantTerm):
            hl.formal_log(series_from([0, 1]))

    def test_valid_degree_preserved(self):
        assert hl.formal_log(hl.one(17)).valid_degree == 17

    def test_round_trip_against_exp_recurrence(self):
        # Restricted to series that are zero-free on the closed disk
        # (sum of tail magnitudes < 1); without that restriction the log
        # coefficients can reach 1e70 and no double-precision round trip
        # is possible.
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(25):
            n = int(rng.integers(1, 257))
            c = rng.uniform(-1, 1, n + 1) + 1j * rng.uniform(-1, 1, n + 1)
            c[0] = 1.0
            tail = np.sum(np.abs(c[1:]))
            if tail > 0:
                c[1:] *= 0.9 * rng.uniform() / tail
            g = hl.formal_log(hl.from_coeffs(c))
            worst = max(worst, np.max(np.abs(formal_exp(g.coeffs) - c)))
        assert worst <= 1e-12


class TestCumsumAndShifts:
    def test_cumsum_of_one_is_all_ones(self):
        assert np.array_equal(hl.cumsum(hl.one(4)).coeffs, np.ones(5))

    def test_cumsum_telescopes(self):
        got = hl.cumsum(hl.pad(series_from([1, -1]), 4))
        assert np.array_equal(got.coeffs, [1, 0, 0, 0, 0])

    def test_cumsum_of_z(self):
        got = hl.cumsum(hl.monomial(1, valid_degree=3))
        assert np.array_equal(got.coeffs, [0, 1, 1, 1])

    def test_shift_up(self):
        assert np.array_equal(hl.shift_up(hl.one()).coeffs, [0, 1])
        got = hl.shift_up(series_from([1, 1]))
        assert np.array_equal(got.coeffs, [0, 1, 1])
        assert got.valid_degree == 2

    def test_one_minus_shift_inverts_cumsum_on_all_ones(self):
        all_ones = hl.from_coeffs(np.ones(6))
        got = hl.one_minus_shift(all_ones)
        assert np.array_equal(got.coeffs, [1, 0, 0, 0, 0, 0])

    @given(f=random_series())
    def test_cumsum_one_minus_shift_mutually_inverse(self, f):
        # exact up to the rounding of neighboring partial sums
        assert np.max(np.abs(hl.one_minus_shift(hl.cumsum(f)).coeffs - f.coeffs)) <= 1e-12
        assert np.max(np.abs(hl.cumsum(hl.one_minus_shift(f)).coeffs - f.coeffs)) <= 1e-12


class TestSerialization:
    def test_json_round_trip_exact(self):
        f = hl.from_coeffs(np.array([1 / 3, -np.pi, 1e-17]) + 1j * np.array([0.1, 2, -3]))
        d = hl.series.to_json_dict(f)
        assert d["valid_degree"] == 2
        back = hl.series.from_json_dict(json.loads(json.dumps(d)))
        assert np.array_equal(back.coeffs, f.coeffs)

    def test_json_string_round_trip(self):
        f = hl.hk_closed_form(3, 16)
        assert np.array_equal(hl.series.loads(hl.series.dumps(f)).coeffs, f.coeffs)

    def test_csv_round_trip_exact(self, tmp_path):
        f = hl.from_coeffs(
            np.array([1 / 3, -np.pi, 1e300]) + 1j * np.array([-1e-300, 0.0, 7.0])
        )
        path = tmp_path / "series.csv"
        hl.series.write_csv(f, path)
        back = hl.series.read_csv(path)
        assert np.array_equal(back.coeffs, f.coeffs)

    def test_csv_bytes_match_csv_writer_across_blocks(self, tmp_path):
        rng = np.random.default_rng(5)
        size = _CSV_BLOCK_ROWS + 905
        f = hl.from_coeffs(
            rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)
            + 1j * rng.standard_normal(size)
        )
        path = tmp_path / "series.csv"
        ref = tmp_path / "reference.csv"
        hl.series.write_csv(f, path)
        with open(ref, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "re", "im"])
            for j, c in enumerate(f.coeffs):
                w.writerow([j, format(c.real, ".17g"), format(c.imag, ".17g")])
        assert path.read_bytes() == ref.read_bytes()
        assert path.read_bytes().count(b"\r\n") == size + 1
        assert np.array_equal(hl.series.read_csv(path).coeffs, f.coeffs)

    def test_csv_swapped_rows_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        hl.series.write_csv(hl.from_coeffs(np.arange(4.0)), path)
        lines = path.read_text().splitlines()
        lines[2], lines[3] = lines[3], lines[2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="expected index 1"):
            hl.series.read_csv(path)

    def test_csv_missing_row_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        hl.series.write_csv(hl.from_coeffs(np.arange(4.0)), path)
        lines = path.read_text().splitlines()
        del lines[3]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="expected index 2"):
            hl.series.read_csv(path)

    def test_csv_empty_file_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="expected header row"):
            hl.series.read_csv(path)

    @pytest.mark.parametrize("row", ["0,1.0", "0,1.0,0,7"])
    def test_csv_row_without_three_fields_rejected(self, tmp_path, row):
        path = tmp_path / "series.csv"
        path.write_text(f"index,re,im\n{row}\n")
        with pytest.raises(ValueError, match="data row 1: expected 3 fields"):
            hl.series.read_csv(path)

    def test_json_dict_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hl.series.from_json_dict({"valid_degree": 2, "re": [1.0], "im": [0.0]})
