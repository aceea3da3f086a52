import numpy as np
import pytest

import hardylab as hl
from hardylab.errors import IndexOutOfRange, TruncationTooShort
from hardylab.verify import adjoint_duality_gap, random_series
from oracles import monomial, one_minus_shift, series_duality_gap, two_truncation_duality_gap, zero


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def duality_gap(n, f, g):
    """``adjoint_duality_gap`` of one pair of series, as a one-row stack each."""
    return adjoint_duality_gap(n, f.coeffs[None], g.coeffs[None])[0]


@pytest.fixture
def rng():
    return np.random.default_rng(2024)


class TestWeightedDilation:
    def test_constant(self):
        got = hl.weighted_dilation(2, hl.one())
        assert np.array_equal(got.coeffs, [1, 1])

    def test_monomial_spreads_into_block(self):
        got = hl.weighted_dilation(3, monomial(1))
        assert np.array_equal(got.coeffs, [0, 0, 0, 1, 1, 1])

    def test_one_plus_z(self):
        got = hl.weighted_dilation(2, hl.from_coeffs([1, 1]))
        assert np.array_equal(got.coeffs, [1, 1, 1, 1])

    def test_index_one_is_identity(self):
        f = hl.from_coeffs([3, 1, 4])
        assert hl.weighted_dilation(1, f) is f

    def test_output_valid_degree(self):
        f = hl.from_coeffs(np.arange(8))
        assert hl.weighted_dilation(5, f).valid_degree == 5 * 7 + 4

    def test_rejects_bad_index(self):
        with pytest.raises(IndexOutOfRange):
            hl.weighted_dilation(0, hl.one())


class TestAdjoint:
    def test_block_sum(self):
        got = hl.weighted_dilation_adjoint(2, hl.from_coeffs([1, 1]))
        assert np.array_equal(got.coeffs, [2])

    def test_kills_one_minus_z(self):
        got = hl.weighted_dilation_adjoint(2, hl.from_coeffs([1, -1]))
        assert np.array_equal(got.coeffs, [0])

    def test_second_block(self):
        f = hl.from_coeffs([0, 0, 0, 1, 2, 1])
        got = hl.weighted_dilation_adjoint(3, f)
        assert np.array_equal(got.coeffs, [0, 4])

    def test_window_shrinks_to_complete_blocks(self):
        f = hl.from_coeffs(np.arange(11))  # valid degree 10
        got = hl.weighted_dilation_adjoint(3, f)
        # blocks (0,1,2), (3,4,5), (6,7,8); degree 9..10 is a partial block
        assert got.valid_degree == 2
        assert np.array_equal(got.coeffs, [3, 12, 21])

    def test_too_short_raises(self):
        with pytest.raises(TruncationTooShort):
            hl.weighted_dilation_adjoint(3, hl.from_coeffs([1, 1]))

    def test_index_one_is_identity(self):
        f = hl.from_coeffs([5, 6])
        assert hl.weighted_dilation_adjoint(1, f) is f


class TestArrayKernels:
    """The array kernels on stacks against the series operators row by row."""

    @staticmethod
    def stack(rng, kind, shape):
        if kind == "real":
            return rng.standard_normal(shape)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("length", [7, 11, 64, 257])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 10])
    def test_rows_match_series_operators(self, rng, n, length, kind):
        pairs = self.stack(rng, kind, (4, 2, length))
        # a contiguous 2-d stack and a view whose rows are not adjacent
        for rows in (pairs.reshape(8, length), pairs[:, 1]):
            wide = hl.weighted_dilation_array(n, rows)
            assert wide.shape == (len(rows), n * length)
            for row, got in zip(rows, wide):
                assert same_bits(got, hl.weighted_dilation(n, hl.from_coeffs(row)).coeffs)
            if length < n:
                continue
            narrow = hl.weighted_dilation_adjoint_array(n, rows)
            assert narrow.shape == (len(rows), length // n)
            for row, got in zip(rows, narrow):
                want = hl.weighted_dilation_adjoint(n, hl.from_coeffs(row)).coeffs
                assert same_bits(got, want)
                # the one-series block sum, whose summation order the check values depend on
                blocks = row[: length // n * n].reshape(length // n, n)
                assert same_bits(got, np.add.reduce(blocks, axis=1))

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_last_axis_of_a_three_dimensional_stack(self, rng, n):
        cube = self.stack(rng, "complex", (3, 4, 50))
        assert same_bits(hl.weighted_dilation_array(n, cube)[2, 1],
                         hl.weighted_dilation_array(n, cube[2, 1]))
        assert same_bits(hl.weighted_dilation_adjoint_array(n, cube)[1, 3],
                         hl.weighted_dilation_adjoint_array(n, cube[1, 3]))

    @pytest.mark.parametrize("values", ["scaled", "signed zeros and ones", "negative zeros"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_block_sums_are_add_reduce_bit_for_bit(self, rng, kind, values):
        # every n through numpy's 128-float pairwise block and past it, then split sizes
        for n in [*range(2, 141), 200, 256, 257, 300]:
            shape = (3, 4, 4 * n + 3)
            if values == "scaled":  # magnitudes 1e-8 .. 1e8, so the order shows
                scale = 10.0 ** rng.integers(-8, 9, (2, *shape))
                parts = rng.standard_normal((2, *shape)) * scale
            elif values == "signed zeros and ones":
                parts = rng.choice([-0.0, 0.0, -1.0, 1.0], (2, *shape))
            else:
                parts = np.full((2, *shape), -0.0)
            cube = parts[0]
            if kind == "complex":  # set apart: 1j * -0.0 would lose the signs
                cube = np.empty(shape, dtype=np.complex128)
                cube.real, cube.imag = parts
            # a 3-d stack, a 2-d view of non-adjacent rows, a reversed, strided view
            # and a Fortran-ordered copy; the reference reduces C-ordered blocks
            for stack in (cube, cube[:, 1], cube[::-1, ::2, 1:], np.asfortranarray(cube)):
                got = hl.weighted_dilation_adjoint_array(n, stack)
                length = stack.shape[-1] // n * n
                blocks = np.ascontiguousarray(stack[..., :length])
                blocks = blocks.reshape(*stack.shape[:-1], length // n, n)
                assert same_bits(got, np.add.reduce(blocks, axis=-1)), n
                if values == "negative zeros":
                    assert not np.signbit([got.real, got.imag]).any()

    @pytest.mark.parametrize("n, length", [(3, 2), (7, 6), (10, 1)])
    def test_short_rows_raise_like_the_series_adjoint(self, n, length):
        with pytest.raises(TruncationTooShort) as series_err:
            hl.weighted_dilation_adjoint(n, zero(length - 1))
        with pytest.raises(TruncationTooShort) as array_err:
            hl.weighted_dilation_adjoint_array(n, np.zeros((5, length)))
        assert str(array_err.value) == str(series_err.value)

    @pytest.mark.parametrize("n", [0, -1])
    def test_bad_index_raises_like_the_series_operators(self, n):
        rows = np.ones((3, 4))
        for series_op, array_op in [
            (hl.weighted_dilation, hl.weighted_dilation_array),
            (hl.weighted_dilation_adjoint, hl.weighted_dilation_adjoint_array),
        ]:
            with pytest.raises(IndexOutOfRange) as series_err:
                series_op(n, hl.one(3))
            with pytest.raises(IndexOutOfRange) as array_err:
                array_op(n, rows)
            assert str(array_err.value) == str(series_err.value)

    @pytest.mark.parametrize("n", [0, -1])
    def test_semiconjugacy_rejects_bad_index(self, n):
        # the plain dilation C_n of the semiconjugacy checks its index too
        with pytest.raises(IndexOutOfRange):
            hl.dilation(n, hl.one(3))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
    @pytest.mark.parametrize("f_length, g_length", [(513, 513), (41, 513), (513, 41), (6, 7)])
    def test_duality_gap_rows_match_series_form(self, rng, n, f_length, g_length):
        f_rows = self.stack(rng, "complex", (4, f_length))
        g_rows = self.stack(rng, "complex", (4, g_length))
        got = adjoint_duality_gap(n, f_rows, g_rows)
        assert len(got) == len(f_rows)
        for f, g, value in zip(f_rows, g_rows, got):
            f, g = hl.from_coeffs(f), hl.from_coeffs(g)
            assert value == series_duality_gap(n, f, g)


class TestPlainDilation:
    def test_examples(self):
        assert np.array_equal(hl.dilation(2, hl.from_coeffs([1, 1])).coeffs, [1, 0, 1])
        assert np.array_equal(hl.dilation(3, hl.one()).coeffs, [1])
        got = hl.dilation(2, hl.from_coeffs([0, 1, 1]))
        assert np.array_equal(got.coeffs, [0, 0, 1, 0, 1])

    def test_valid_degree(self):
        assert hl.dilation(4, hl.from_coeffs([1, 2])).valid_degree == 4


class TestSemiconjugacy:
    """(1 - z) W_n f = C_n((1 - z) f), with C_n g(z) = g(z^n), holds exactly."""

    @staticmethod
    def residual(n, f):
        """max |(1 - z) W_n f - C_n((1 - z) f)| on degrees 0 .. n * valid."""
        rhs = hl.dilation(n, one_minus_shift(f)).coeffs
        lhs = one_minus_shift(hl.weighted_dilation(n, f)).coeffs[: len(rhs)]
        return np.max(np.abs(lhs - rhs))

    def test_constant(self):
        assert self.residual(2, hl.one()) == 0

    def test_small_polynomial(self):
        assert self.residual(3, hl.from_coeffs([1, 2, 1])) == 0

    def test_random(self, rng):
        f = random_series(rng, 200)
        assert self.residual(5, f) == 0

    def test_many_random(self, rng):
        for n in (1, 2, 3, 5):
            for _ in range(25):
                f = random_series(rng, 97)
                assert self.residual(n, f) == 0


class TestKernelVectors:
    def test_first_vector_is_one_minus_z(self):
        assert np.array_equal(hl.kernel_vector(2, 0).coeffs, [1, -1])

    def test_n3_k1(self):
        got = hl.kernel_vector(3, 1)
        assert np.array_equal(got.coeffs, [0, 0, 0, 1, 1, -2])

    def test_n2_k1(self):
        assert np.array_equal(hl.kernel_vector(2, 1).coeffs, [0, 0, 1, -1])

    def test_annihilated_by_adjoint(self):
        for n in (2, 3, 5):
            for k in range(4):
                v = hl.pad(hl.kernel_vector(n, k), n * 6 - 1)
                img = hl.weighted_dilation_adjoint(n, v)
                assert np.max(np.abs(img.coeffs)) == 0

    def test_pairwise_orthogonal_exactly(self):
        vecs = [hl.kernel_vector(3, k) for k in range(6)]
        for i in range(6):
            for j in range(i + 1, 6):
                assert hl.inner(vecs[i], vecs[j]) == 0

    def test_rejects_index_below_two(self):
        with pytest.raises(IndexOutOfRange):
            hl.kernel_vector(1, 0)
        with pytest.raises(IndexOutOfRange):
            hl.kernel_vector(2, -1)


class TestKernelIntersectionBasis:
    def test_k1(self):
        basis = hl.kernel_intersection_basis(1)
        assert len(basis) == 1
        assert np.array_equal(basis[0].coeffs, [1, -1])

    def test_killed_beyond_k(self):
        member = hl.kernel_intersection_basis(3)[2]  # 1 - z^3 at valid degree 3
        img = hl.weighted_dilation_adjoint(4, member)
        assert np.max(np.abs(img.coeffs)) == 0
        for n in (5, 7, 11):
            img = hl.weighted_dilation_adjoint(n, hl.pad(member, n - 1))
            assert np.max(np.abs(img.coeffs)) == 0

    def test_escape_witness_below_k(self):
        # block sums of (1, 0, -1, 0) under index 2 are (1, -1): not killed
        member = hl.pad(hl.kernel_intersection_basis(2)[1], 3)
        got = hl.weighted_dilation_adjoint(2, member)
        assert np.array_equal(got.coeffs, [1, -1])

    def test_size_past_array_limit_is_typed_error(self):
        # each member holds 2^62 + 1 float64 entries, past intp's max bytes
        with pytest.raises(IndexOutOfRange, match="array size limit"):
            hl.kernel_intersection_basis(2**62)


class TestOperatorIdentities:
    def test_adjoint_duality(self, rng):
        for _ in range(50):
            f = random_series(rng, 512)
            g = random_series(rng, 512)
            scale = hl.norm(f) * hl.norm(g)
            for n in (2, 3, 5, 7):
                assert duality_gap(n, f, g) <= 1e-10 * scale

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    @pytest.mark.parametrize("f_degree, g_degree", [(512, 512), (40, 512), (512, 40), (5, 6)])
    def test_duality_gap_matches_two_truncation_oracle(self, rng, n, f_degree, g_degree):
        for _ in range(5):
            f = random_series(rng, f_degree)
            g = random_series(rng, g_degree)
            assert duality_gap(n, f, g) == two_truncation_duality_gap(n, f, g)

    def test_isometry(self, rng):
        for _ in range(30):
            f = random_series(rng, 300)
            for n in (2, 3, 7, 10):
                w = hl.weighted_dilation(n, f)
                assert hl.norm(w) == pytest.approx(np.sqrt(n) * hl.norm(f), rel=1e-12)

    def test_semigroup_law_exact(self, rng):
        f = random_series(rng, 64)
        for m, n in [(2, 2), (2, 5), (3, 2), (3, 5)]:
            lhs = hl.weighted_dilation(m, hl.weighted_dilation(n, f))
            rhs = hl.weighted_dilation(m * n, f)
            assert np.array_equal(lhs.coeffs, rhs.coeffs)
            assert lhs.valid_degree == rhs.valid_degree

    def test_adjoint_inverts_dilation(self, rng):
        f = random_series(rng, 77)
        for n in (2, 3, 6):
            back = hl.weighted_dilation_adjoint(n, hl.weighted_dilation(n, f))
            assert back.valid_degree == f.valid_degree
            assert np.max(np.abs(back.coeffs - n * f.coeffs)) <= 1e-13 * hl.norm(f)

    def test_no_eigenvector_gap(self, rng):
        for _ in range(50):
            f = random_series(rng, 64)
            w = hl.weighted_dilation(2, f)
            gap = hl.norm(w) ** 2 * hl.norm(f) ** 2 - abs(hl.inner(w, f)) ** 2
            assert gap > 1e-12 * hl.norm(f) ** 4
