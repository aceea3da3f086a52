import dataclasses
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hardylab as hl
import hardylab.cli
from hardylab import table
from hardylab.cli import _fmt, main
from hardylab.table import _CSV_BLOCK_ROWS, write_columns


def run(args):
    return main(args)


def data_lines(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def reference_write_rows(path, meta, header, rows):
    """The per-row CSV writer that the block writer replaced, kept as its reference."""
    with open(path, "w", newline="") as fh:
        fh.write("# generated=reference\n")
        for line in meta:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def assert_same_after_line_one(path, ref):
    head, body = path.read_bytes().split(b"\n", 1)
    assert head.startswith(b"# generated=")
    assert body == ref.read_bytes().split(b"\n", 1)[1]


def encoded(columns):
    fh = io.BytesIO()
    write_columns(fh, columns)
    return fh.getvalue()


def formatted(ints, floats):
    """The rows ``j,x`` as ``str`` and ``format(x, ".17g")`` print them."""
    return "".join(f"{j},{format(x, '.17g')}\n" for j, x in zip(ints, floats)).encode()


def assert_gen_hk_matches_per_row_writer(tmp_path, k, n):
    out, ref = tmp_path / "hk.csv", tmp_path / "ref.csv"
    assert run(["gen-hk", "--k", str(k), "--n", str(n), "--out", str(out)]) == 0
    series = hl.hk_closed_form(k, n)
    rows = ([str(j), _fmt(c.real)] for j, c in enumerate(series.coeffs))
    reference_write_rows(ref, [f"command=gen-hk k={k} n={n}"], ["j", "value"], rows)
    assert_same_after_line_one(out, ref)
    assert len(data_lines(out)) == n + 2


def spread_doubles(rng, size):
    """Signed doubles from 1e-14 to 1e19 with zeros, inf, nan and subnormals mixed in."""
    x = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-14, 19, size)
    x[::17] = 0.0
    x[5::31] = np.nextafter(1e-11, 0.0)
    x[7::97] = np.resize([np.inf, -np.inf, np.nan, 5e-324, -0.0], len(x[7::97]))
    return x


class TestBlockWriter:
    # gen-hk --n n writes n + 1 rows: one row, half a block and one, a block
    # less one, a block, a block and one, and three blocks.
    @pytest.mark.parametrize("n", [0, _CSV_BLOCK_ROWS // 2, _CSV_BLOCK_ROWS - 2, _CSV_BLOCK_ROWS - 1,
                                   _CSV_BLOCK_ROWS, 2 * _CSV_BLOCK_ROWS])
    def test_gen_hk_matches_per_row_writer(self, tmp_path, n):
        assert_gen_hk_matches_per_row_writer(tmp_path, 7, n)

    @pytest.mark.parametrize("k", range(2, 65))
    def test_gen_hk_table_of_every_k_matches_per_row_writer(self, tmp_path, k):
        assert_gen_hk_matches_per_row_writer(tmp_path, k, 4096)

    def test_bd_matches_per_row_writer(self, tmp_path):
        out, ref = tmp_path / "bd.csv", tmp_path / "ref.csv"
        assert run(["bd", "--kmax", "6", "--n", "300", "--out", str(out)]) == 0
        rows = (
            [str(k), _fmt(rep.distance), _fmt(rep.condition_estimate)]
            for k, rep in hl.baez_duarte_sequence(6, 300)
        )
        reference_write_rows(ref, ["command=bd kmax=6 n=300"],
                             ["K", "d_K", "condition_estimate"], rows)
        assert_same_after_line_one(out, ref)

    def test_spectrum_matches_per_row_writer(self, tmp_path):
        # The second grid is the benchmark's: its exact zeros are laid out
        # directly, and its residuals of 1e-32 to 1e-15 need powers of five
        # wider than 64 bits.
        for n, r_steps, theta_steps in [(5, 3, 5), (3, 40, 64)]:
            out, ref = tmp_path / "spec.csv", tmp_path / "ref.csv"
            assert run(["spectrum", "--n", str(n), "--r-steps", str(r_steps),
                        "--theta-steps", str(theta_steps), "--out", str(out)]) == 0
            report = hl.spectral_disk_scan(n, np.linspace(0.0, 0.95, r_steps), theta_steps, 4096)
            rows = (
                [_fmt(lam.real), _fmt(lam.imag), _fmt(res), _fmt(vn)]
                for lam, res, vn in zip(report.lam, report.residual, report.vector_norm)
            )
            reference_write_rows(
                ref,
                [f"command=spectrum n={n} r-steps={r_steps} theta-steps={theta_steps} "
                 f"level={report.level}"],
                ["re_lambda", "im_lambda", "residual", "vector_norm"],
                rows,
            )
            assert_same_after_line_one(out, ref)

    def test_formatter_matches_format_17g(self):
        values = [-0.0, 5e-324, 1e-300, 1e308, -1.5, 0.1]
        got = encoded([np.arange(len(values)), values])
        assert got == formatted(range(len(values)), values)

    @given(st.lists(st.tuples(st.integers(-2**63, 2**63 - 1), st.floats()), max_size=40))
    def test_encoder_matches_str_and_format_17g(self, rows):
        ints = np.array([j for j, _ in rows], dtype=np.int64)
        floats = np.array([x for _, x in rows], dtype=np.float64)
        assert encoded([ints, floats]) == formatted(ints.tolist(), floats.tolist())

    @given(st.lists(st.floats(1e-11, 1e16, exclude_max=True), max_size=40),
           st.booleans())
    def test_encoder_matches_format_17g_in_the_integer_range(self, values, negative):
        floats = -np.array(values) if negative else np.array(values, dtype=np.float64)
        ints = np.arange(len(values))
        assert encoded([ints, floats]) == formatted(ints, floats.tolist())

    @pytest.mark.parametrize("x, text", [
        (9.9999999999999995e-05, "9.9999999999999991e-05"),
        (1e-11, "9.9999999999999994e-12"),
        (9.99999999999999955e-12, "9.9999999999999994e-12"),
        (np.nextafter(1e-11, 1.0), "1.0000000000000001e-11"),
        (1e16, "10000000000000000"),
        (1e17, "1e+17"),
        (2.0**53 + 2, "9007199254740994"),
        (5e-324, "4.9406564584124654e-324"),
        (-0.0, "-0"),
        (1e-4, "0.0001"),
        (1e-5, "1.0000000000000001e-05"),
        (1e-7, "9.9999999999999995e-08"),
        (0.5, "0.5"),
        (9999999999999998.0, "9999999999999998"),
        (1234567890123456.25, "1234567890123456.2"),
        (1234567890123456.75, "1234567890123456.8"),
        (-123.0, "-123"),
    ])
    def test_pinned_values(self, x, text):
        assert format(x, ".17g") == text
        assert encoded([[0], [x]]) == f"0,{text}\n".encode()

    @pytest.mark.parametrize("e", range(-11, 17))
    def test_no_double_rounds_up_to_a_power_of_ten(self, e):
        power = Fraction(10) ** e
        below = float(power)
        if Fraction(below) >= power:
            below = np.nextafter(below, 0.0)
        assert Fraction(format(below, ".17g")) < power

    def test_row_mixing_integer_and_format_cells(self):
        rows = [[0.5, 0.0, 1e-16, 1.25], [-0.25, 3.0, np.inf, 2e-11], [np.nan, -7.5, 1e20, -0.0]]
        cols = np.array(rows).T
        got = encoded(list(cols))
        assert got == "".join(",".join(format(x, ".17g") for x in r) + "\n" for r in rows).encode()

    def test_rows_with_and_without_a_trailing_zero_digit(self):
        # Only float rows whose 17th significant digit is 0, and int rows
        # narrower than the widest, are masked.  Each notation gets both
        # kinds of float row, shuffled together, beside ints of every width.
        fixed = [m * 10.0**p for p in range(17) for m in (1.0, -1.2, 10 / 3, 7.25, -np.pi)]
        fixed += [1200.0, -1200.5, 1e16, 1e16 / 3, 9999999999999998.0]
        small = [m * 10.0**p for p in range(-4, 0) for m in (1.0, -1.2, 10 / 3, 7.25, -np.pi)]
        scientific = [1e17, -1e22, 1.2e20, 10 / 3 * 1e20, np.pi * 1e25,
                      1e-5, -1.5e-7, 10 / 3 * 1e-9, np.pi * 1e-300, 1e300]
        for values in fixed, small, scientific:
            last_digits = {format(abs(x), ".16e")[17] for x in values}
            assert "0" in last_digits and len(last_digits) > 1
        floats = np.random.default_rng(0).permutation(fixed + small + scientific)
        ints = np.resize(np.array([2**63 - 1, 7, 0, -5, -(2**63), 1200, -10**18, 10**17, 99,
                                   -123456789012345678, -1]), len(floats))
        assert encoded([ints, floats]) == formatted(ints.tolist(), floats.tolist())

    @pytest.mark.parametrize("rows", [0, 1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1])
    def test_block_lengths(self, rows):
        rng = np.random.default_rng(rows)
        ints = rng.integers(-2**63, 2**63 - 1, rows, endpoint=True)
        floats = spread_doubles(rng, rows)
        assert encoded([ints, floats]) == formatted(ints.tolist(), floats.tolist())

    def test_negative_and_extreme_ints(self):
        ints = [-1, 0, -10, 10, -9, 99999, -(2**63), 2**63 - 1, -1000000000000000000]
        got = encoded([ints, [1.0] * len(ints)])
        assert got == "".join(f"{j},1\n" for j in ints).encode()

    @pytest.mark.parametrize("column", [np.array([1 + 2j]), np.array(["1"], dtype=object)],
                             ids=["complex128", "object"])
    def test_other_dtypes_raise_type_error(self, column):
        with pytest.raises(TypeError, match=str(column.dtype)):
            encoded([[0], column])

    @pytest.mark.parametrize("column", [np.zeros((2, 2)), np.arange(4).reshape(2, 2, 1),
                                        np.array(0.5), np.array(3)],
                             ids=["2-d", "3-d", "0-d float", "0-d int"])
    def test_columns_not_1d_raise_value_error(self, column):
        fh = io.BytesIO()
        with pytest.raises(ValueError, match=re.escape(str(column.shape))):
            write_columns(fh, [np.arange(2), column])
        assert fh.getvalue() == b""

    @pytest.mark.parametrize("columns", [[], [np.arange(3), np.array([0.5, 0.25])],
                                         [np.arange(2), np.array([0.5, 0.25, 0.125])]],
                             ids=["none", "shorter-later", "longer-later"])
    def test_no_columns_or_unequal_lengths_raise_value_error(self, columns):
        fh = io.BytesIO()
        with pytest.raises(ValueError, match="one length"):
            write_columns(fh, columns)
        assert fh.getvalue() == b""


def format_calls(monkeypatch):
    """The values table.format is called with from now on (a shim over the builtin)."""
    calls = []

    def shim(value, spec):
        calls.append(value)
        return format(value, spec)

    monkeypatch.setattr(table, "format", shim, raising=False)
    return calls


def decade_neighbours(p):
    """The two doubles on each side of 10^p, then 1.5 * 10^p and 9.999999999999999 * 10^p."""
    power = Fraction(10) ** p
    below = float(power)
    if Fraction(below) >= power:
        below = np.nextafter(below, 0.0)
    above = np.nextafter(below, np.inf)
    return [np.nextafter(below, 0.0), below, above, np.nextafter(above, np.inf),
            1.5 * float(power), 9.999999999999999 * float(power)]


# The doubles whose %.17g rounds up to the next power of ten: each is the
# nearest double to that power, and lies below it.
ROUND_UP = [
    ("0x1.c16c5c5253575p-1014", "1e-305"), ("0x1.b4feb7eb212cdp-808", "1e-243"),
    ("0x1.442e4fb671960p-585", "1e-176"), ("0x1.9539e3a40dfb8p-582", "1e-175"),
    ("0x1.fa885c8d117a6p-579", "1e-174"), ("0x1.7b6d71d20b96cp-263", "1e-79"),
    ("0x1.da48ce468e7c7p-260", "1e-78"), ("0x1.69d9abe034955p-243", "1e-73"),
    ("0x1.615e91d8f359dp-233", "1e-70"), ("0x1.6849b86a12b9bp-47", "1e-14"),
    ("0x1.7688bb5394c25p+325", "1e+98"), ("0x1.7151b377c247ep+428", "1e+129"),
    ("0x1.317e5ef3ab327p+508", "1e+153"), ("0x1.c5416bb92e3e6p+730", "1e+220"),
]


class TestWideKernel:
    """Finite nonzero doubles of every magnitude, encoded from the 128-bit power table."""

    def test_tables_are_built_on_first_use(self):
        code = ("import hardylab.table as t; "
                "print(t._digits4.cache_info().currsize, t._pow5_table.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=str(Path(hl.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["0", "0"]
        words = table._digits4().view(np.uint8).tobytes()
        assert words == "".join("%04d" % i for i in range(10000)).encode()

    def test_power_table_holds_the_top_128_bits_of_each_power_of_five(self):
        powers = [column.tolist() for column in table._pow5_table()]
        assert {len(column) for column in powers} == {table._P_MAX - table._P_MIN + 1}
        for hi, lo, s, inexact_hi, inexact, p in zip(*powers,
                                                     range(table._P_MAX, table._P_MIN - 1, -1)):
            t = hi << 64 | lo
            assert 2**127 <= t < 2**128, p
            q = 16 - p
            if q < 0:
                assert t == 2 ** -s // 5 ** -q, p
            elif s <= 0:
                assert t == 5**q << -s, p
            else:
                assert t == 5**q >> s, p
            assert inexact == (not 0 <= q <= 55), p
            assert inexact_hi == (not 0 <= q <= 27), p
            assert inexact_hi == (inexact or lo != 0), p

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_decade_neighbours_match_format_17g(self, sign):
        values = [v for p in range(-323, 309) for v in decade_neighbours(p)]
        floats = sign * np.array([v for v in values if np.isfinite(v)])
        assert len(floats) == 6 * 632 - 1  # 9.999999999999999e308 overflows
        ints = np.arange(len(floats))
        assert encoded([ints, floats]) == formatted(ints, floats.tolist())

    @pytest.mark.parametrize("bits, text", ROUND_UP, ids=[text for _, text in ROUND_UP])
    def test_round_up_carries_to_the_next_power_of_ten(self, bits, text):
        x = float.fromhex(bits)
        power = Fraction(10) ** int(text.split("e")[1])
        assert Fraction(x) < power and Fraction(np.nextafter(x, np.inf)) > power
        assert format(x, ".17g") == text
        assert encoded([[0, 1], [x, -x]]) == f"0,{text}\n1,-{text}\n".encode()

    @pytest.mark.parametrize("x", [1e17, 1.5e17, 2.5e17, 2.0**60, 1e22, 1e23,
                                   123456789012345678.0])
    def test_uncertain_rows_match_format_17g(self, x):
        assert encoded([[0, 1], [x, -x]]) == formatted([0, 1], [x, -x])

    def test_uncertain_rows_leave_the_fix_up_loop(self, monkeypatch):
        # 1e17 reads one below 10^16 at p = 17; a loop that moved it would not end.
        calls = format_calls(monkeypatch)
        assert encoded([[0], [1e17]]) == b"0,1e+17\n"
        assert calls == [1e17]

    def test_no_format_call_below_1e16(self, monkeypatch):
        report = hl.spectral_disk_scan(3, np.linspace(0.0, 0.95, 40), 64, 4096)
        residual = report.residual
        assert len(residual) == 2560 and np.count_nonzero(residual == 0.0) == 65
        assert residual.max() < 1e-11
        x = 10.0 ** np.random.default_rng(0).uniform(-323.3, 16.0, 10**5)
        x = np.clip(x, 5e-324, np.nextafter(1e16, 0.0))
        calls = format_calls(monkeypatch)
        assert encoded([residual]) == "".join(format(v, ".17g") + "\n"
                                               for v in residual.tolist()).encode()
        assert encoded([x]) == "".join(format(v, ".17g") + "\n" for v in x.tolist()).encode()
        assert calls == []


class TestGenHk:
    def test_writes_table(self, tmp_path, capsys):
        out = tmp_path / "h2.csv"
        assert run(["gen-hk", "--k", "2", "--n", "64", "--out", str(out)]) == 0
        rows = data_lines(out)
        assert rows[0] == "j,value"
        first = rows[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(-np.log(2), abs=1e-15)
        assert len(rows) == 66
        assert "wrote" in capsys.readouterr().out

    def test_k_below_two_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["--output-dir", str(tmp_path), "gen-hk", "--k", "1"])
        assert exc.value.code == 2

    def test_degree_zero_truncation(self, tmp_path):
        out = tmp_path / "h3.csv"
        assert run(["gen-hk", "--k", "3", "--n", "0", "--out", str(out)]) == 0
        rows = data_lines(out)
        assert len(rows) == 2
        assert float(rows[1].split(",")[1]) == pytest.approx(-np.log(3), abs=1e-15)

    def test_deterministic_apart_from_timestamp(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["gen-hk", "--k", "5", "--n", "32", "--out", str(a)])
        run(["gen-hk", "--k", "5", "--n", "32", "--out", str(b)])
        assert a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]

    @pytest.mark.parametrize("k", [2**62, 10**20])
    def test_k_beyond_the_truncation_runs(self, tmp_path, k):
        out = tmp_path / "h.csv"
        assert run(["gen-hk", "--k", str(k), "--n", "5", "--out", str(out)]) == 0
        rows = data_lines(out)
        assert len(rows) == 1 + 6
        assert float(rows[1].split(",")[1]) == -np.log(float(k))

    def test_k_beyond_double_precision_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        with pytest.raises(SystemExit) as exc:
            run(["gen-hk", "--k", str(10**400), "--n", "5", "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "IndexOutOfRange: h_k needs k within double precision" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_memory_error_is_usage_error(self, tmp_path, monkeypatch, capsys):
        def too_large(k, n_trunc):
            raise MemoryError(f"Unable to allocate h_{k} through degree {n_trunc}")

        monkeypatch.setattr("hardylab.cli.hk_closed_form", too_large)
        out = tmp_path / "h.csv"
        with pytest.raises(SystemExit) as exc:
            run(["gen-hk", "--k", "3", "--n", "1000000000000", "--out", str(out)])
        assert exc.value.code == 2
        assert "MemoryError: Unable to allocate h_3" in capsys.readouterr().err
        assert not out.exists()


class TestBaezDuarte:
    def test_sequence_file(self, tmp_path):
        out = tmp_path / "bd.csv"
        assert run(["bd", "--kmax", "10", "--n", "1024", "--out", str(out)]) == 0
        rows = data_lines(out)
        assert rows[0] == "K,d_K,condition_estimate"
        assert len(rows) == 10
        d = [float(r.split(",")[1]) for r in rows[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(d, d[1:]))
        assert all(x > 1e-8 for x in d)
        assert out.with_suffix(".json").exists()

    def test_kmax_two_matches_projection_formula(self, tmp_path):
        out = tmp_path / "bd2.csv"
        assert run(["bd", "--kmax", "2", "--n", "1024", "--out", str(out)]) == 0
        rows = data_lines(out)
        assert len(rows) == 2
        h2 = hl.hk_closed_form(2, 1024)
        expected = np.sqrt(1 - np.log(2) ** 2 / hl.norm(h2) ** 2)
        assert float(rows[1].split(",")[1]) == pytest.approx(expected, abs=1e-10)

    def test_kmax_one_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["bd", "--kmax", "1"])
        assert exc.value.code == 2

    def test_json_reports_carry_truncation_certificate(self, tmp_path):
        out = tmp_path / "bd.csv"
        assert run(["bd", "--kmax", "4", "--n", "256", "--out", str(out)]) == 0
        reports = json.loads(out.with_suffix(".json").read_text())["reports"]
        assert [r["K"] for r in reports] == [2, 3, 4]
        for r in reports:
            coeffs = [complex(re, im) for re, im in zip(r["coefficients_re"], r["coefficients_im"])]
            assert r["truncation_certificate"] == hl.truncation_certificate(coeffs, 256)
            assert r["truncation_certificate"] > 0

    def test_json_report_round_trips(self, tmp_path):
        out = tmp_path / "bd.csv"
        assert run(["bd", "--kmax", "3", "--n", "64", "--out", str(out)]) == 0
        reports = json.loads(out.with_suffix(".json").read_text())["reports"]
        for r, (k, rep) in zip(reports, hl.baez_duarte_sequence(3, 64), strict=True):
            assert list(r) == ["K", "distance", "coefficients_re", "coefficients_im",
                               "residual_norm_check", "condition_estimate", "truncation_certificate"]
            assert r["K"] == k
            assert r["distance"] == rep.distance
            assert r["coefficients_re"] == rep.coefficients.real.tolist()
            assert r["coefficients_im"] == rep.coefficients.imag.tolist()
            assert len(r["coefficients_re"]) == k - 1
            assert r["residual_norm_check"] == rep.residual_norm_check
            assert r["condition_estimate"] == rep.condition_estimate

    def test_json_report_is_one_line(self, tmp_path):
        out = tmp_path / "bd.csv"
        assert run(["bd", "--kmax", "4", "--n", "256", "--out", str(out)]) == 0
        text = out.with_suffix(".json").read_text()
        assert "\n" not in text
        assert json.loads(text)["k_max"] == 4

    @pytest.mark.parametrize("bad", ["json", "csv"])
    def test_unwritable_output_leaves_neither_file(self, tmp_path, bad):
        blocker = tmp_path / "file"
        blocker.write_text("")
        paths = {"csv": tmp_path / "ok.csv", "json": tmp_path / "ok.json"}
        paths[bad] = blocker / f"x.{bad}"
        with pytest.raises(SystemExit) as exc:
            run(["bd", "--kmax", "3", "--n", "64",
                 "--out", str(paths["csv"]), "--json", str(paths["json"])])
        assert exc.value.code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    # The default JSON path of r.json is r.json itself.
    @pytest.mark.parametrize("paths", [["--out", "r.json"], ["--out", "x.csv", "--json", "x.csv"]])
    def test_same_csv_and_json_path_is_usage_error(self, tmp_path, monkeypatch, capsys, paths):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(["bd", "--kmax", "3", "--n", "64", *paths])
        assert exc.value.code == 2
        assert "same file" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_degenerate_basis_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--output-dir", str(tmp_path), "bd", "--kmax", "60", "--n", "30"])
        assert exc.value.code == 2
        assert "DegenerateBasis: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_basis_longer_than_its_coefficients_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--output-dir", str(tmp_path), "bd", "--kmax", "100000", "--n", "1"])
        assert exc.value.code == 2
        assert ("DegenerateBasis: 99999 basis members exceed 2 coefficients"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_zero_distance_names_the_failed_bound(self, tmp_path, capsys):
        # 49 members over 49 coefficients span the target: d_50 = 0, and the
        # sequence is still nonincreasing.
        assert run(["--output-dir", str(tmp_path), "bd", "--kmax", "50", "--n", "48"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "FAIL: d_50 = 0 is not above 1e-8\n"
        csv = tmp_path / "bd_k50_n48.csv"
        k, d, cond = data_lines(csv)[-1].split(",")
        assert (k, d) == ("50", "0")
        assert captured.out == (f"wrote {csv} and {csv.with_suffix('.json')}\n"
                                f"d_50 = 0 (condition {cond})\n")

    def test_rising_distance_names_the_first_rise(self, tmp_path, monkeypatch, capsys):
        def rising(k_max, n_trunc):
            seq = hl.baez_duarte_sequence(k_max, n_trunc)
            (k, rep), (_, before) = seq[2], seq[1]
            seq[2] = (k, dataclasses.replace(rep, distance=before.distance + 1e-9))
            return seq

        monkeypatch.setattr(hardylab.cli, "baez_duarte_sequence", rising)
        assert run(["--output-dir", str(tmp_path), "bd", "--kmax", "6", "--n", "256"]) == 1
        d3 = hl.baez_duarte_sequence(6, 256)[1][1].distance
        assert capsys.readouterr().err == (
            f"FAIL: d_4 = {_fmt(d3 + 1e-9)} exceeds d_3 = {_fmt(d3)} by more than 1e-12\n"
        )

    def test_deterministic_apart_from_timestamp(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["bd", "--kmax", "4", "--n", "256", "--out", str(a)])
        run(["bd", "--kmax", "4", "--n", "256", "--out", str(b)])
        assert a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]


class TestVerify:
    def test_adjoint_suite_passes(self, capsys):
        assert run(["verify", "--suite", "adjoint", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_all_suites_pass_and_print_lines(self, capsys):
        assert run(["verify", "--suite", "all"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("PASS")]
        assert len(lines) >= 8


class TestSpectrum:
    def test_scan_file(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = run(["spectrum", "--n", "2", "--r-steps", "4", "--theta-steps", "8",
                    "--out", str(out)])
        assert code == 0
        rows = data_lines(out)
        assert rows[0] == "re_lambda,im_lambda,residual,vector_norm"
        assert len(rows) == 33
        residuals = [float(r.split(",")[2]) for r in rows[1:]]
        assert max(residuals) <= 1e-10

    def test_default_grid_prints_max_residual(self, tmp_path, capsys):
        assert run(["--output-dir", str(tmp_path), "spectrum", "--n", "3"]) == 0
        assert "max residual" in capsys.readouterr().out

    def test_index_one_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run(["spectrum", "--n", "1"])
        assert exc.value.code == 2

    def test_csv_matches_per_point_scan(self, tmp_path, monkeypatch):
        def per_point_scan(n, radii, angles_count, min_degree_count=4096):
            level = hl.level_for_degree(n, min_degree_count)
            sqrt_n = float(np.sqrt(n))
            lams = np.array([
                float(r) * sqrt_n * np.exp(2j * np.pi * t / angles_count)
                for r in radii
                for t in range(angles_count)
            ])
            pairs = [hl.adjoint_eigenvector(n, lam, level) for lam in lams]
            return hl.DiskScanReport(
                n=n,
                level=level,
                lam=lams,
                residual=np.array([pair.residual for pair in pairs]),
                vector_norm=np.array([hl.norm(pair.vector) for pair in pairs]),
                norm_closed_form=np.sqrt(
                    [hl.eigenvector_norm_sq(n, lam, level) for lam in lams]
                ),
            )

        argv = ["spectrum", "--n", "3", "--r-steps", "3", "--theta-steps", "5", "--out"]
        batched = tmp_path / "batched.csv"
        oracle = tmp_path / "oracle.csv"
        assert run(argv + [str(batched)]) == 0
        monkeypatch.setattr("hardylab.cli.spectral_disk_scan", per_point_scan)
        assert run(argv + [str(oracle)]) == 0
        a, b = batched.read_text().splitlines(), oracle.read_text().splitlines()
        assert a[0].startswith("# generated=") and b[0].startswith("# generated=")
        assert a[1:3] == b[1:3]
        for line, oracle_line in zip(a[3:], b[3:]):
            # the grid points byte for byte; the norms are summed over bands, not rows
            assert line.split(",")[:2] == oracle_line.split(",")[:2]
            residual, vector_norm = map(float, line.split(",")[2:])
            oracle_residual, oracle_norm = map(float, oracle_line.split(",")[2:])
            assert abs(residual - oracle_residual) <= 1e-15 * vector_norm
            assert abs(vector_norm - oracle_norm) <= 1e-12
        assert len(a) == len(b) == 3 + 15

    def test_residual_above_tolerance_fails_but_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--n", "2", "--tolerance", "1e-300", "--out", str(out)]) == 1
        assert "FAIL: max residual above tolerance" in capsys.readouterr().err
        assert len(data_lines(out)) == 1 + 5 * 8

    def test_non_finite_vector_norm_fails(self, tmp_path, monkeypatch, capsys):
        scan = hl.spectral_disk_scan

        def overflowing_scan(*args, **kwargs):
            report = scan(*args, **kwargs)
            vector_norm = report.vector_norm.copy()
            vector_norm[-1] = np.inf
            return dataclasses.replace(report, vector_norm=vector_norm)

        monkeypatch.setattr("hardylab.cli.spectral_disk_scan", overflowing_scan)
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--n", "2", "--r-steps", "2", "--theta-steps", "3",
                    "--out", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().err
        assert data_lines(out)[-1].endswith(",inf")

    def test_non_finite_residual_fails(self, tmp_path, monkeypatch, capsys):
        scan = hl.spectral_disk_scan

        def nan_scan(*args, **kwargs):
            report = scan(*args, **kwargs)
            residual = report.residual.copy()
            residual[-1] = np.nan
            return dataclasses.replace(report, residual=residual)

        monkeypatch.setattr("hardylab.cli.spectral_disk_scan", nan_scan)
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--n", "2", "--r-steps", "2", "--theta-steps", "3",
                    "--out", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().err
        assert data_lines(out)[-1].split(",")[2] == "nan"

    def test_million_index_passes_default_tolerance(self, tmp_path, capsys):
        # each block of a million equal values is summed with one rounding
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--n", "1000000", "--out", str(out)]) == 0
        assert "level=1" in out.read_text().splitlines()[1]
        residuals = [float(r.split(",")[2]) for r in data_lines(out)[1:]]
        assert len(residuals) == 5 * 8 and max(residuals) <= 1e-10
        assert "FAIL" not in capsys.readouterr().err

    @pytest.mark.parametrize("n", [2**62, 2**70])
    def test_index_beyond_int64_runs(self, tmp_path, n):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--n", str(n), "--r-steps", "1", "--theta-steps", "2",
                    "--out", str(out)]) == 0
        assert len(data_lines(out)) == 1 + 2

    def test_index_beyond_float64_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        with pytest.raises(SystemExit) as exc:
            run(["spectrum", "--n", str(10**400), "--out", str(out)])
        assert exc.value.code == 2
        assert "IndexOutOfRange: truncation level" in capsys.readouterr().err
        assert not out.exists()

    def test_truncation_beyond_int64_runs(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--n", "3", "--r-steps", "2", "--theta-steps", "2",
                    "--min-degree-count", str(10**30), "--out", str(out)]) == 0
        assert "level=63" in out.read_text().splitlines()[1]
        assert len(data_lines(out)) == 1 + 4

    def test_truncation_beyond_float64_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "spec.csv"
        with pytest.raises(SystemExit) as exc:
            run(["spectrum", "--n", "3", "--min-degree-count", str(10**400), "--out", str(out)])
        assert exc.value.code == 2
        assert "IndexOutOfRange: truncation level" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source, level", [("default", 8), ("flag", 5), ("config", 5)])
    def test_truncation_sets_level(self, tmp_path, source, level):
        cfg = tmp_path / "lab.args"
        cfg.write_text("--min-degree-count=100\n")
        flags = {"default": [], "flag": ["--min-degree-count", "100"], "config": [f"@{cfg}"]}
        out = tmp_path / "spec.csv"
        assert run(["spectrum", "--n", "3", "--out", str(out)] + flags[source]) == 0
        assert f"level={level}" in out.read_text().splitlines()[1]

    def test_deterministic_apart_from_timestamp(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run(["spectrum", "--n", "3", "--r-steps", "2", "--theta-steps", "3",
             "--out", str(a)])
        run(["spectrum", "--n", "3", "--r-steps", "2", "--theta-steps", "3",
             "--out", str(b)])
        assert a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]


class TestParserReuse:
    """main builds its parser once per process; calls in a row act as single calls."""

    ARGVS = [
        ["spectrum", "--n", "two"],
        ["verify", "--suite", "kernel"],
        ["gen-hk", "--k", "3", "--n", "40"],
    ]

    def outcomes(self, tmp_path, capsys, fresh):
        found = []
        for i, argv in enumerate(self.ARGVS):
            if fresh:
                hardylab.cli._parser.cache_clear()
            out_dir = tmp_path / str(i)
            try:
                code = run(["--output-dir", str(out_dir)] + argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            files = {}
            for path in sorted(out_dir.glob("*")):
                files[path.name] = path.read_bytes().split(b"\n", 1)[1]
                path.unlink()
            found.append((code, captured.out, captured.err, files))
        return found

    def test_calls_in_a_row_match_single_calls(self, tmp_path, capsys, monkeypatch):
        builds = []
        build_parser = hardylab.cli.build_parser
        monkeypatch.setattr(hardylab.cli, "build_parser",
                            lambda: builds.append(1) or build_parser())
        hardylab.cli._parser.cache_clear()
        in_a_row = self.outcomes(tmp_path, capsys, fresh=False)
        assert len(builds) == 1
        single = self.outcomes(tmp_path, capsys, fresh=True)
        assert len(builds) == 1 + len(self.ARGVS)
        assert in_a_row == single
        assert [code for code, *_ in single] == [2, 0, 0]
        assert "argument --n: invalid int value" in single[0][2]
        assert single[2][3] and single[1][1].endswith("checks passed\n")


class TestConfig:
    """An ``@file`` holds arguments one per line; a flag given after it wins."""

    def test_config_file_sets_defaults(self, tmp_path):
        cfg = tmp_path / "lab.args"
        cfg.write_text(f"--output-dir\n{tmp_path}\ngen-hk\n--n=32\n")
        assert run([f"@{cfg}", "--k", "2"]) == 0
        rows = data_lines(tmp_path / "hk_2_n32.csv")
        assert len(rows) == 34  # header + 33 coefficients

    def test_flag_overrides_config(self, tmp_path):
        dirs, degree = tmp_path / "dirs.args", tmp_path / "degree.args"
        dirs.write_text(f"--output-dir={tmp_path / 'from_file'}\n")
        degree.write_text("--n=32\n")
        assert run([f"@{dirs}", "--output-dir", str(tmp_path), "gen-hk", "--k", "2",
                    f"@{degree}", "--n", "16"]) == 0
        rows = data_lines(tmp_path / "hk_2_n16.csv")
        assert len(rows) == 18
        assert not (tmp_path / "from_file").exists()

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "lab.args"
        cfg.write_text("--truncation=100\n")
        with pytest.raises(SystemExit) as exc:
            run([f"@{cfg}", "gen-hk", "--k", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --truncation=100" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.args"
        with pytest.raises(SystemExit) as exc:
            run([f"@{missing}", "gen-hk", "--k", "2"])
        assert exc.value.code == 2
        assert f"No such file or directory: '{missing}'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, command", [
        ("--config", "lab.cfg", ["gen-hk", "--k", "2", "--n", "4"]),
        ("--truncation", "100", ["spectrum", "--n", "3", "--r-steps", "1"]),
        ("--tolerance", "1e-3", ["spectrum", "--n", "3", "--r-steps", "1"]),
        ("--seed", "1", ["verify", "--suite", "kernel"]),
    ], ids=["config", "truncation", "tolerance", "seed"])
    @pytest.mark.parametrize("joined", [False, True], ids=["split", "joined"])
    def test_removed_global_flag_is_usage_error(self, tmp_path, capsys, flag, value, command,
                                                joined):
        # "--flag value" reads value as the command; "--flag=value" is left over
        head, message = (
            ([f"{flag}={value}"], f"unrecognized arguments: {flag}={value}") if joined
            else ([flag, value], f"argument command: invalid choice: '{value}'")
        )
        assert_usage_error(tmp_path, capsys, head + command, message)

    @pytest.mark.parametrize("source", ["verify-flag", "config"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, source):
        cfg = tmp_path / "lab.args"
        cfg.write_text("--seed=-1\n")
        argv = {
            "verify-flag": ["verify", "--suite", "kernel", "--seed", "-1"],
            "config": ["verify", "--suite", "kernel", f"@{cfg}"],
        }[source]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_tolerance_is_usage_error(self, tmp_path, capsys, source, value):
        cfg = tmp_path / "lab.args"
        cfg.write_text(f"--tolerance={value}\n")
        flags = {"flag": ["--tolerance", value], "config": [f"@{cfg}"]}[source]
        out = tmp_path / "spec.csv"
        with pytest.raises(SystemExit) as exc:
            run(["spectrum", "--n", "2", "--out", str(out)] + flags)
        assert exc.value.code == 2
        assert f"tolerance must be finite and > 0, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["gen-hk", "--k", "2", "--n", "8"],
        ["bd", "--kmax", "3", "--n", "64"],
        ["spectrum", "--n", "2", "--r-steps", "2", "--theta-steps", "2"],
    ], ids=["gen-hk", "bd", "spectrum"])
    def test_output_dir_below_a_file_is_usage_error(self, tmp_path, capsys, argv):
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(SystemExit) as exc:
            run(["--output-dir", str(blocker / "sub")] + argv)
        assert exc.value.code == 2
        assert str(blocker) in capsys.readouterr().err


def assert_usage_error(tmp_path, capsys, argv, message):
    """argv exits 2 naming ``message``, with no traceback and no file written."""
    with pytest.raises(SystemExit) as exc:
        run(["--output-dir", str(tmp_path)] + argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


class TestInputOwners:
    """Each input is checked once, where it is used, and bad input exits 2."""

    @pytest.mark.parametrize("argv, message", [
        (["gen-hk", "--k", "1"], "IndexOutOfRange: h_k is defined for k >= 2, got 1"),
        (["gen-hk", "--k", "3", "--n", "-1"],
         "IndexOutOfRange: truncation degree must be >= 0, got -1"),
        (["bd", "--kmax", "1"], "IndexOutOfRange: h_k is defined for k >= 2, got 1"),
        (["spectrum", "--n", "1"], "IndexOutOfRange: index n must be >= 2, got 1"),
        (["spectrum", "--n", "3", "--theta-steps", "0"],
         "IndexOutOfRange: angles_count must be >= 1, got 0"),
        (["spectrum", "--n", "3", "--min-degree-count", "0"],
         "IndexOutOfRange: min_degree_count must be >= 1, got 0"),
        (["spectrum", "--n", "3", "--tolerance", "0"], "tolerance must be finite and > 0, got 0.0"),
        (["verify", "--suite", "bogus"], "argument --suite: invalid choice: 'bogus'"),
        (["verify", "--suite", "kernel", "--seed", "-1"], "seed must be >= 0, got -1"),
    ], ids=["gen-hk-k", "gen-hk-n", "bd-kmax", "spectrum-n", "spectrum-theta-steps",
            "spectrum-min-degree-count", "spectrum-tolerance-zero",
            "verify-suite", "verify-seed"])
    def test_relocated_check_is_usage_error(self, tmp_path, capsys, argv, message):
        assert_usage_error(tmp_path, capsys, argv, message)

    # 10^30 entries: numpy refuses any size of 2^63 or more before allocating.
    @pytest.mark.parametrize("argv, what", [
        (["gen-hk", "--k", "3", "--n", str(10**30)], f"h_k through degree {10**30}"),
        (["bd", "--kmax", str(10**30)], f"the d_K matrix of 16385 x {10**30} float64 entries"),
        (["bd", "--kmax", "3", "--n", str(10**30)], f"h_k through degree {10**30}"),
        (["spectrum", "--n", "3", "--r-steps", str(10**30)], f"a list of {10**30} radii"),
        (["spectrum", "--n", "3", "--theta-steps", str(10**30)],
         f"a scan of 5 x {10**30} points at level 8"),
    ], ids=["gen-hk-n", "bd-kmax", "bd-n", "spectrum-r-steps", "spectrum-theta-steps"])
    def test_size_past_numpy_array_limit_is_usage_error(self, tmp_path, capsys, argv, what):
        message = f"IndexOutOfRange: {what} is past numpy's array size limit"
        assert_usage_error(tmp_path, capsys, argv, message)
