"""The stacked identity suites against their one-series-at-a-time forms."""

import numpy as np
import pytest

from hardylab import verify
from oracles import SERIES_SUITES, series_random

SEEDS = [0, 7, 20240817, 20240826, 2**31 - 1]


def reprs(results):
    return [repr(check) for check in results]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SERIES_SUITES))
def test_stacked_suite_matches_series_form(name, seed):
    assert reprs(verify.SUITES[name](seed=seed)) == reprs(SERIES_SUITES[name](seed=seed))


@pytest.mark.parametrize("n_trunc", [0, 1, 150])
def test_semiconjugacy_truncations_match_series_form(n_trunc):
    got = verify.suite_semiconjugacy(seed=3, n_trunc=n_trunc)
    assert reprs(got) == reprs(SERIES_SUITES["semiconjugacy"](seed=3, n_trunc=n_trunc))


@pytest.mark.parametrize("name", sorted(SERIES_SUITES))
def test_block_size_does_not_change_results(name, monkeypatch):
    default = reprs(verify.SUITES[name](seed=20240826))
    for budget in (1, 1 << 40):  # one row per block, then every row in one block
        monkeypatch.setattr(verify, "_STACK_BYTES", budget)
        assert reprs(verify.SUITES[name](seed=20240826)) == default


def test_random_rows_are_the_series_stream():
    stacked, serial = np.random.default_rng(11), np.random.default_rng(11)
    rows = verify._random_rows(stacked, 3, 2, 9)
    assert rows.shape == (3, 2, 10)
    for row in rows:
        for got in row:
            assert np.array_equal(got, series_random(serial, 9).coeffs)
    assert stacked.standard_normal() == serial.standard_normal()
    assert np.array_equal(verify.random_series(stacked, 4).coeffs,
                          series_random(serial, 4).coeffs)


# (rows, series, valid degree) of the stacks the suites draw, last blocks included
@pytest.mark.parametrize("shape", [(7, 2, 512), (4, 2, 512), (3, 1, 256), (1, 1, 256),
                                   (63, 1, 64), (37, 1, 64), (8, 1, 200), (4, 1, 200),
                                   (50, 1, 20), (1, 1, 728), (1, 1, 0)])
def test_random_rows_assemble_the_parts_bit_for_bit(shape):
    rows, series, valid_degree = shape
    got = verify._random_rows(np.random.default_rng(5), rows, series, valid_degree)
    parts = np.random.default_rng(5).standard_normal((rows, 2 * series, valid_degree + 1))
    want = parts[:, 0::2] + 1j * parts[:, 1::2]
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("rows, row_bytes", [(200, 16416), (100, 1), (7, 1 << 20), (1, 5)])
def test_row_blocks_cover_every_row_within_the_budget(rows, row_bytes):
    sizes = verify._row_blocks(rows, row_bytes)
    assert sum(sizes) == rows and min(sizes) >= 1
    assert max(sizes) == 1 or max(sizes) * row_bytes <= verify._STACK_BYTES
    assert sizes[:-1] == [sizes[0]] * (len(sizes) - 1)
