"""Batch front-end: every experiment as a subcommand with reproducible output.

Subcommands
-----------
gen-hk    write the coefficient table of one h_k as CSV
bd        distance sequence from the constant 1 to growing h_k spans
verify    run the operator-identity suites and print one line per check
spectrum  eigenvector residual scan over a polar grid in the spectral ball

All output files are deterministic for a fixed (flags, seed) apart from a
single timestamp header line.  Floats are printed with 17 significant
digits and a '.' decimal separator so values round-trip exactly.  The CSV
format lives in :mod:`hardylab.table`, and bd's JSON report is built where
bd writes it, in :func:`cmd_baez_duarte`.  Exit
codes: 0 success, 1 assertion failure, 2 usage error (a bad flag value,
a missing ``@file``, an output path that cannot be written, one path for
both of bd's reports, a size too large for memory, or a typed laboratory
error such as an index out of range, an array past numpy's size limit or
a degenerate basis).

Each setting is one flag of the command that reads it, apart from the
global ``--output-dir``.  ``hardylab @FILE ...`` reads arguments from FILE,
one per line, and a flag given after it wins.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import HardyLabError
from .projection import baez_duarte_sequence
from .series import _check_array_bytes
from .special import hk_closed_form, truncation_certificate
from .spectral import spectral_disk_scan
from .table import write_table
from .verify import SUITES, run_suites

__all__ = ["build_parser", "main"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_hk(k: int, n_trunc: int, path: Path) -> int:
    series = hk_closed_form(k, n_trunc)
    columns = [np.arange(n_trunc + 1), series.coeffs]
    write_table(path, [f"command=gen-hk k={k} n={n_trunc}"], ["j", "value"], columns)
    print(f"wrote {path} ({n_trunc + 1} coefficients, c_0 = {_fmt(series.coeffs[0])})")
    return 0


def cmd_baez_duarte(k_max: int, n_trunc: int, path: Path, json_path: Path) -> int:
    sequence = baez_duarte_sequence(k_max, n_trunc)
    report = {
        "k_max": k_max,
        "truncation_degree": n_trunc,
        "reports": [
            {
                "K": k,
                "distance": rep.distance,
                "coefficients_re": rep.coefficients.real.tolist(),
                "coefficients_im": rep.coefficients.imag.tolist(),
                "residual_norm_check": rep.residual_norm_check,
                "condition_estimate": rep.condition_estimate,
                "truncation_certificate": truncation_certificate(rep.coefficients, n_trunc),
            }
            for k, rep in sequence
        ],
    }
    # The JSON goes first and is removed again if the CSV cannot be
    # written, so a failed command leaves neither file.
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps(report))
    columns = [
        [k for k, _ in sequence],
        [rep.distance for _, rep in sequence],
        [rep.condition_estimate for _, rep in sequence],
    ]
    try:
        write_table(
            path,
            [f"command=bd kmax={k_max} n={n_trunc}"],
            ["K", "d_K", "condition_estimate"],
            columns,
        )
    except OSError:
        json_path.unlink(missing_ok=True)
        raise
    distances = np.array([rep.distance for _, rep in sequence])
    print(f"wrote {path} and {json_path}")
    print(f"d_{k_max} = {_fmt(distances[-1])} (condition {_fmt(sequence[-1][1].condition_estimate)})")

    # distances[i] is d_{i+2}; each failed property is named at its first K.
    rises = np.flatnonzero(~(np.diff(distances) <= 1e-12)) + 1
    lows = np.flatnonzero(~(distances > 1e-8))
    for i in rises[:1]:
        print(f"FAIL: d_{i + 2} = {_fmt(distances[i])} exceeds d_{i + 1} = "
              f"{_fmt(distances[i - 1])} by more than 1e-12", file=sys.stderr)
    for i in lows[:1]:
        print(f"FAIL: d_{i + 2} = {_fmt(distances[i])} is not above 1e-8", file=sys.stderr)
    return 1 if rises.size or lows.size else 0


def cmd_verify(suite: str, seed: int) -> int:
    names = list(SUITES) if suite == "all" else [suite]
    results = run_suites(names, seed=seed)
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_spectrum(n: int, r_steps: int, theta_steps: int, path: Path,
                 min_degree_count: int, tolerance: float) -> int:
    _check_array_bytes(8 * r_steps, f"a list of {r_steps} radii")
    radii = np.linspace(0.0, 0.95, r_steps)
    report = spectral_disk_scan(n, radii, theta_steps, min_degree_count)
    columns = [report.lam.real, report.lam.imag, report.residual, report.vector_norm]
    write_table(
        path,
        [f"command=spectrum n={n} r-steps={r_steps} theta-steps={theta_steps} level={report.level}"],
        ["re_lambda", "im_lambda", "residual", "vector_norm"],
        columns,
    )
    print(f"wrote {path} ({len(report.lam)} grid points, level {report.level})")
    print(f"max residual = {_fmt(report.max_residual)}")
    print(f"max norm mismatch vs closed form = {_fmt(report.max_norm_mismatch)}")
    if not report.all_norms_finite or report.max_residual > tolerance:
        print(f"FAIL: max residual above tolerance {_fmt(tolerance)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _tolerance(text: str) -> float:
    tolerance = float(text)
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and > 0, got {tolerance}")
    return tolerance


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Numerical laboratory for dilation semigroups on truncated "
        "Hardy-space coefficient series.",
        fromfile_prefix_chars="@",
    )
    parser.add_argument("--output-dir", default=".",
                        help="directory for output files without --out (default '.')")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-hk", help="write one h_k coefficient table as CSV")
    p.add_argument("--k", type=int, required=True, help="family index, k >= 2")
    p.add_argument("--n", type=int, default=16384,
                   help="truncation degree, >= 0 (default %(default)s)")
    p.add_argument("--out", default=None, help="output CSV path")

    p = sub.add_parser("bd", help="distance sequence from 1 to span{h_2..h_K}")
    p.add_argument("--kmax", type=int, required=True, help="largest K, >= 2")
    p.add_argument("--n", type=int, default=16384,
                   help="truncation degree, >= 1 (default %(default)s)")
    p.add_argument("--out", default=None, help="output CSV path")
    p.add_argument("--json", dest="json_out", default=None, help="output JSON path")

    p = sub.add_parser("verify", help="run the operator-identity suites")
    p.add_argument("--suite", default="all", choices=["all", *SUITES])
    p.add_argument("--seed", type=_seed, default=0,
                   help="seed for randomized suites, >= 0 (default %(default)s)")

    p = sub.add_parser("spectrum", help="eigenvector residual scan in the spectral ball")
    p.add_argument("--n", type=int, required=True, help="semigroup index, >= 2")
    p.add_argument("--r-steps", type=int, default=5, help="radial grid points in [0, 0.95]")
    p.add_argument("--theta-steps", type=int, default=8, help="angular grid points")
    p.add_argument("--min-degree-count", type=int, default=4096,
                   help="least number of eigenvector coefficients, >= 1 (default %(default)s)")
    p.add_argument("--tolerance", type=_tolerance, default=1e-10,
                   help="largest passing residual (default %(default)s)")
    p.add_argument("--out", default=None, help="output CSV path")

    return parser


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    # Each index and size is checked where it is used, mostly in the library;
    # only the checks that have no such owner are made here.
    if args.command == "gen-hk":
        path = Path(args.out or Path(args.output_dir) / f"hk_{args.k}_n{args.n}.csv")
        return cmd_gen_hk(args.k, args.n, path)

    if args.command == "bd":
        if args.n < 1:
            parser.error("bd requires --n >= 1")
        path = Path(args.out or Path(args.output_dir) / f"bd_k{args.kmax}_n{args.n}.csv")
        json_path = Path(args.json_out) if args.json_out else path.with_suffix(".json")
        # One file cannot hold both reports: the CSV would overwrite the JSON.
        if path.resolve() == json_path.resolve():
            parser.error(f"bd would write its CSV and its JSON report to the same file {path}")
        return cmd_baez_duarte(args.kmax, args.n, path, json_path)

    if args.command == "verify":
        return cmd_verify(args.suite, args.seed)

    if args.command == "spectrum":
        # np.linspace would refuse a negative count with a ValueError
        if args.r_steps < 0:
            parser.error(f"spectrum requires --r-steps >= 0, got {args.r_steps}")
        path = Path(args.out or Path(args.output_dir) / f"spectrum_n{args.n}.csv")
        return cmd_spectrum(args.n, args.r_steps, args.theta_steps, path,
                            args.min_degree_count, args.tolerance)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process for :func:`main`; parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    except OSError as exc:
        parser.error(str(exc))
    except MemoryError as exc:
        parser.error(f"MemoryError: {exc}")
    except HardyLabError as exc:
        parser.error(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
