"""The identity suites: stacked against one-series-at-a-time forms, and seed dependence."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from hardylab import verify
from oracles import (
    SERIES_SUITES,
    row_adjoint_scale,
    row_cauchy_schwarz_gap,
    row_dirichlet_ratio,
    row_duality_gap,
    row_isometry_errors,
    scalar_dirichlet_energy,
    series_random,
)

SEEDS = [0, 7, 20240817, 20240826, 2**31 - 1]


def reprs(results):
    return [repr(check) for check in results]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(SERIES_SUITES))
def test_stacked_suite_matches_series_form(name, seed):
    assert reprs(verify.SUITES[name](seed=seed)) == reprs(SERIES_SUITES[name](seed=seed))


# A budget that cuts every row-stack suite into several blocks.
SEVERAL_BLOCKS = 4 * 2 * 257 * 16


@pytest.mark.parametrize("name", ["adjoint", "dirichlet", "isometry", "semigroup", "spectral"])
def test_block_size_does_not_change_results(name, monkeypatch):
    default = reprs(verify.SUITES[name](seed=20240826))
    # one row per block; several blocks; every row in one block
    for budget in (1, SEVERAL_BLOCKS, 1 << 40):
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
                                   (63, 1, 64), (37, 1, 64), (50, 1, 62), (50, 1, 83),
                                   (1, 1, 83), (1, 1, 728), (1, 1, 0)])
def test_random_rows_assemble_the_parts_bit_for_bit(shape):
    rows, series, valid_degree = shape
    got = verify._random_rows(np.random.default_rng(5), rows, series, valid_degree)
    parts = np.random.default_rng(5).standard_normal((rows, 2 * series, valid_degree + 1))
    want = parts[:, 0::2] + 1j * parts[:, 1::2]
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def squares_apart(rng, count):
    """``count`` doubles x whose x * x differs from Python's x ** 2 (libm pow)."""
    found = []
    while len(found) < count:
        x = rng.standard_normal(4096) * 10.0
        found += [v for v, sq in zip(x.tolist(), (x * x).tolist()) if v**2 != sq]
    return found[:count]


def row_stack(kind, rows, length, seed=3):
    """Random rows, the first few of which have a norm x with x * x != x ** 2.

    The row [x, 0, .., 0] has norm sqrt(x * x), which is |x| exactly.
    """
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((rows, length))
    if kind == "complex":
        stack = stack + 1j * rng.standard_normal((rows, length))
    planted = squares_apart(rng, 4)
    stack[: len(planted)] = 0.0
    stack[: len(planted), 0] = planted
    return stack


def same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def rounding_rules_differ(values):
    """Whether ``values`` hold an x with x * x != x ** 2, and a z with np.abs(z) != abs(z)."""
    values = np.asarray(values)
    squares = [v for v in values.real.tolist() if v * v != v**2]
    moduli = [z for z in values.tolist() if complex(np.abs(z)) != abs(complex(z))]
    return bool(squares), bool(moduli)


KINDS = ["float", "complex"]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_adjoint_rows_match_the_scalar_loop(kind, n):
    f, g = row_stack(kind, 300, 40), row_stack(kind, 300, 37, seed=4)
    gaps = verify.adjoint_duality_gap(n, f, g)
    scales = verify._row_norms(f) * verify._row_norms(g)
    assert same_bits(gaps, [row_duality_gap(n, a, b) for a, b in zip(f, g)])
    assert same_bits(scales, [row_adjoint_scale(a, b) for a, b in zip(f, g)])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 3, 10])
def test_isometry_rows_match_the_scalar_loop(kind, n):
    f = row_stack(kind, 300, 33)
    iso, wsw = verify._isometry_errors(n, f, verify._row_norms(f))
    want = [row_isometry_errors(n, row) for row in f]
    assert same_bits(iso, [w[0] for w in want]) and same_bits(wsw, [w[1] for w in want])


@pytest.mark.parametrize("kind", KINDS)
def test_cauchy_schwarz_rows_match_the_scalar_loop(kind):
    # enough rows that each squared quantity meets an x with x * x != x ** 2
    f = row_stack(kind, 6000, 16)
    assert same_bits(verify._cauchy_schwarz_gaps(f), [row_cauchy_schwarz_gap(row) for row in f])
    wf = verify.weighted_dilation_array(2, f)
    pairings = np.vecdot(f, wf[:, :16])
    moduli = np.hypot(pairings.real, pairings.imag)
    for values in (verify._row_norms(f), verify._row_norms(wf), moduli):
        assert rounding_rules_differ(values)[0]
    assert kind == "float" or rounding_rules_differ(pairings)[1]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [3, 4])
def test_dirichlet_rows_match_the_scalar_loop(kind, n):
    c = row_stack(kind, 300, 21 * n)
    energy = verify.dirichlet_energy_at_one_array(c)
    assert same_bits(energy, [scalar_dirichlet_energy(row) for row in c])
    ratios, sharp = verify._dirichlet_ratios(n, c)
    want = [row_dirichlet_ratio(n, row) for row in c]
    assert same_bits(ratios, [w[0] for w in want])
    assert sharp.tolist() == [w[1] for w in want]


def test_adjoint_gaps_exercise_both_rounding_rules():
    f, g = row_stack("complex", 300, 40), row_stack("complex", 300, 37, seed=4)
    adj = verify.weighted_dilation_adjoint_array(3, g)
    head = f[:, : adj.shape[-1]]
    wf = verify.weighted_dilation_array(3, head)
    diffs = np.vecdot(g[:, : wf.shape[-1]], wf) - np.vecdot(adj, head)
    assert rounding_rules_differ(diffs)[1]
    assert rounding_rules_differ(verify._row_norms(f))[0]


@pytest.mark.parametrize("rows, row_bytes", [(200, 16416), (100, 1), (7, 1 << 20), (1, 5)])
def test_row_blocks_cover_every_row_within_the_budget(rows, row_bytes):
    sizes = verify._row_blocks(rows, row_bytes)
    assert sum(sizes) == rows and min(sizes) >= 1
    assert max(sizes) == 1 or max(sizes) * row_bytes <= verify._STACK_BYTES
    assert sizes[:-1] == [sizes[0]] * (len(sizes) - 1)


# The checks whose value comes from random draws; every other check runs on
# fixed input and must read the same at every seed.
SEEDED_CHECKS = {
    "adjoint duality <Wf,g> = <f,W*g>",
    "isometry ||Wf|| = sqrt(n)||f||",
    "adjoint inversion W*Wf = n f",
    "no-eigenvector gap (index 2) stays positive",
    "kernel combinations have energy <= 2^n n ||f||^2",
    "adjoint eigenvector residual",
    "eigenvector norm matches closed form",
    "shift decay sequence is nonincreasing",
}


def test_seeded_checks_move_with_the_seed_and_fixed_checks_do_not():
    first = verify.run_suites(list(verify.SUITES), seed=0)
    second = verify.run_suites(list(verify.SUITES), seed=7)
    assert [c.name for c in first] == [c.name for c in second]
    assert SEEDED_CHECKS <= {c.name for c in first}
    for a, b in zip(first, second):
        assert type(a.max_err) is float and type(b.max_err) is float, a.name
        if a.name in SEEDED_CHECKS:
            assert a.max_err != b.max_err, a.name
        else:
            assert a.max_err == b.max_err, a.name


def poison_call(monkeypatch, name, call, poison):
    """Make ``verify.<name>`` return ``poison(result)`` on its ``call``-th call only.

    The calls after it return finite values again, so a NaN must also stay
    once a suite has caught it.
    """
    original = getattr(verify, name)
    count = []

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        count.append(None)
        return poison(out) if len(count) == call else out

    monkeypatch.setattr(verify, name, wrapper)


def count_calls(suite, name):
    """How many times a clean run of ``suite`` at seed 0 calls ``verify.<name>``."""
    calls = []
    original = getattr(verify, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, name, counted)
        verify.SUITES[suite](seed=0)
    return len(calls)


def nan_first_row(rows):
    rows = rows.copy()
    rows[0] = np.nan
    return rows


def nan_last_row(rows):
    rows = rows.copy()
    rows[-1] = np.nan
    return rows


def nan_first_residual(pair):
    vectors, residuals = pair
    return vectors, nan_first_row(residuals)


def nan_last_residual(pair):
    vectors, residuals = pair
    return vectors, nan_last_row(residuals)


def nan_coeffs(series):
    # CoeffSeries refuses non-finite entries; the suites read only .coeffs.
    return SimpleNamespace(coeffs=np.full_like(series.coeffs, np.nan))


# suite, the name it calls, which call to poison (from 1; -1 is the last),
# the poison, the checks that must fail.  A NaN in the last row of the last
# block is the last value a check sees, the one Python's max would drop; those
# cases run at a budget that cuts every suite's stacks into several blocks.
NAN_CASES = [
    ("adjoint", "weighted_dilation_adjoint_array", 1, nan_first_row,
     ["adjoint duality <Wf,g> = <f,W*g>"]),
    ("isometry", "weighted_dilation_array", 1, nan_first_row,
     ["isometry ||Wf|| = sqrt(n)||f||", "adjoint inversion W*Wf = n f"]),
    ("isometry", "weighted_dilation_adjoint_array", 1, nan_first_row,
     ["adjoint inversion W*Wf = n f"]),
    ("semigroup", "weighted_dilation", 3, nan_coeffs, ["semigroup law W_m W_n = W_mn"]),
    ("semigroup", "weighted_dilation_array", 1, nan_first_row,
     ["no-eigenvector gap (index 2) stays positive"]),
    ("hk", "hk_oracle", 1, nan_coeffs, ["h_k closed form vs formal-log oracle"]),
    ("kernel", "weighted_dilation_adjoint", 1, nan_coeffs,
     ["adjoint annihilates its kernel vectors"]),
    ("dirichlet", "dirichlet_energy_at_one_array", 1, nan_first_row,
     ["kernel combinations have energy <= 2^n n ||f||^2"]),
    ("spectral", "_eigenvectors", 1, nan_first_residual, ["adjoint eigenvector residual"]),
    ("adjoint", "weighted_dilation_adjoint_array", -1, nan_last_row,
     ["adjoint duality <Wf,g> = <f,W*g>"]),
    ("isometry", "weighted_dilation_array", -1, nan_last_row,
     ["isometry ||Wf|| = sqrt(n)||f||", "adjoint inversion W*Wf = n f"]),
    ("semigroup", "weighted_dilation_array", -1, nan_last_row,
     ["no-eigenvector gap (index 2) stays positive"]),
    ("dirichlet", "dirichlet_energy_at_one_array", -1, nan_last_row,
     ["kernel combinations have energy <= 2^n n ||f||^2"]),
    ("spectral", "_eigenvectors", -1, nan_last_residual, ["adjoint eigenvector residual"]),
]


@pytest.mark.parametrize("suite, name, call, poison, failing", NAN_CASES,
                         ids=[f"{case[0]}-{case[1]}" + ("-last" if case[2] == -1 else "")
                              for case in NAN_CASES])
def test_nan_fails_its_check(monkeypatch, suite, name, call, poison, failing):
    if call == -1:
        monkeypatch.setattr(verify, "_STACK_BYTES", SEVERAL_BLOCKS)
        call = count_calls(suite, name)
        assert call > 1  # the last block, not the first
    clean = {c.name: c for c in verify.SUITES[suite](seed=0)}
    poison_call(monkeypatch, name, call, poison)
    checks = {c.name: c for c in verify.SUITES[suite](seed=0)}
    assert set(failing) <= set(checks) and all(clean[check].passed for check in failing)
    for check in failing:
        assert math.isnan(checks[check].max_err), check
        assert checks[check].line().startswith("FAIL"), check
