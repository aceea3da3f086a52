"""Batch front-end: every experiment as a subcommand with reproducible output.

Subcommands
-----------
gen-hk    write the coefficient table of one h_k as CSV
bd        distance sequence from the constant 1 to growing h_k spans
verify    run the operator-identity suites and print one line per check
spectrum  eigenvector residual scan over a polar grid in the spectral ball

All output files are deterministic for a fixed (flags, seed) apart from a
single timestamp header line.  Floats are printed with 17 significant
digits and a '.' decimal separator so values round-trip exactly.  Exit
codes: 0 success, 1 assertion failure, 2 usage error (a bad flag or
config value, a negative seed, an output path that cannot be written, or
a typed laboratory error such as a degenerate basis).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import HardyLabError
from .projection import baez_duarte_sequence
from .series import write_columns
from .special import hk_closed_form, truncation_certificate
from .spectral import spectral_disk_scan
from .verify import SUITES, run_suites

__all__ = ["LabConfig", "load_config_file", "build_parser", "main"]


@dataclass
class LabConfig:
    truncation_degree: int = 16384
    tolerance: float = 1e-10
    output_dir: str = "."
    seed: int = 0

    def __post_init__(self) -> None:
        if self.truncation_degree < 1:
            raise ValueError("truncation_degree must be >= 1")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def load_config_file(path: str) -> dict:
    """Parse a key=value config file ('#' starts a comment)."""
    known = {f.name: f.type for f in fields(LabConfig)}
    out: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key in ("truncation_degree", "seed"):
            out[key] = int(value)
        elif key == "tolerance":
            out[key] = float(value)
        else:
            out[key] = value
    return out


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_rows(path: Path, meta: list[str], header: list[str], columns) -> None:
    """Write the timestamp line, ``# `` meta lines, the header and the data rows.

    ``columns`` holds one ``(fmt, values)`` pair per CSV column (``"%d"``
    for indices, ``"%.17g"`` for floats); :func:`series.write_columns`
    formats them a block of rows at a time.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write(f"# generated={_timestamp()}\n")
        for line in meta:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        write_columns(fh, columns)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_gen_hk(cfg: LabConfig, k: int, n_trunc: int, out: str | None) -> int:
    series = hk_closed_form(k, n_trunc)
    path = Path(out) if out else Path(cfg.output_dir) / f"hk_{k}_n{n_trunc}.csv"
    columns = [("%d", np.arange(n_trunc + 1)), ("%.17g", series.coeffs)]
    _write_rows(path, [f"command=gen-hk k={k} n={n_trunc}"], ["j", "value"], columns)
    print(f"wrote {path} ({n_trunc + 1} coefficients, c_0 = {_fmt(series.coeffs[0])})")
    return 0


def cmd_baez_duarte(cfg: LabConfig, k_max: int, n_trunc: int,
                    out: str | None, json_out: str | None) -> int:
    sequence = baez_duarte_sequence(k_max, n_trunc)
    path = Path(out) if out else Path(cfg.output_dir) / f"bd_k{k_max}_n{n_trunc}.csv"
    json_path = Path(json_out) if json_out else path.with_suffix(".json")
    report = {
        "k_max": k_max,
        "truncation_degree": n_trunc,
        "reports": [
            dict(
                K=k,
                **rep.to_json_dict(),
                truncation_certificate=truncation_certificate(rep.coefficients, n_trunc),
            )
            for k, rep in sequence
        ],
    }
    # The JSON goes first and is removed again if the CSV cannot be
    # written, so a failed command leaves neither file.
    json_path.parent.mkdir(parents=True, exist_ok=True)
    json_path.write_text(json.dumps(report))
    columns = [
        ("%d", [k for k, _ in sequence]),
        ("%.17g", [rep.distance for _, rep in sequence]),
        ("%.17g", [rep.condition_estimate for _, rep in sequence]),
    ]
    try:
        _write_rows(
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

    ok = bool(np.all(np.diff(distances) <= 1e-12) and np.all(distances > 1e-8))
    if not ok:
        print("FAIL: distance sequence is not nonincreasing and positive", file=sys.stderr)
        return 1
    return 0


def cmd_verify(cfg: LabConfig, suite: str, seed: int | None) -> int:
    names = list(SUITES) if suite == "all" else [suite]
    results = run_suites(names, seed=cfg.seed if seed is None else seed)
    for res in results:
        print(res.line())
    failed = [res for res in results if not res.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_spectrum(cfg: LabConfig, n: int, r_steps: int, theta_steps: int,
                 out: str | None, min_degree_count: int) -> int:
    radii = np.linspace(0.0, 0.95, r_steps)
    report = spectral_disk_scan(n, radii, theta_steps, min_degree_count)
    path = Path(out) if out else Path(cfg.output_dir) / f"spectrum_n{n}.csv"
    lam = np.array([p.lam for p in report.points], dtype=np.complex128)
    columns = [
        ("%.17g", lam.real),
        ("%.17g", lam.imag),
        ("%.17g", [p.residual for p in report.points]),
        ("%.17g", [p.vector_norm for p in report.points]),
    ]
    _write_rows(
        path,
        [f"command=spectrum n={n} r-steps={r_steps} theta-steps={theta_steps} level={report.level}"],
        ["re_lambda", "im_lambda", "residual", "vector_norm"],
        columns,
    )
    print(f"wrote {path} ({len(report.points)} grid points, level {report.level})")
    print(f"max residual = {_fmt(report.max_residual)}")
    print(f"max norm mismatch vs closed form = {_fmt(report.max_norm_mismatch)}")
    if not report.all_norms_finite or report.max_residual > cfg.tolerance:
        print(f"FAIL: max residual above tolerance {_fmt(cfg.tolerance)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardylab",
        description="Numerical laboratory for dilation semigroups on truncated "
        "Hardy-space coefficient series.",
    )
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--truncation", type=int, default=None,
                        help="default truncation degree (default 16384); for spectrum, "
                        "the least number of eigenvector coefficients (default 4096)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="residual gate for spectrum (default 1e-10)")
    parser.add_argument("--output-dir", default=None,
                        help="directory for output files (default '.')")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for randomized suites (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-hk", help="write one h_k coefficient table as CSV")
    p.add_argument("--k", type=int, required=True, help="family index, k >= 2")
    p.add_argument("--n", type=int, default=None, help="truncation degree, >= 0")
    p.add_argument("--out", default=None, help="output CSV path")

    p = sub.add_parser("bd", help="distance sequence from 1 to span{h_2..h_K}")
    p.add_argument("--kmax", type=int, required=True, help="largest K, >= 2")
    p.add_argument("--n", type=int, default=None, help="truncation degree")
    p.add_argument("--out", default=None, help="output CSV path")
    p.add_argument("--json", dest="json_out", default=None, help="output JSON path")

    p = sub.add_parser("verify", help="run the operator-identity suites")
    p.add_argument("--suite", default="all", help="one of: all, " + ", ".join(SUITES))
    p.add_argument("--seed", dest="suite_seed", type=int, default=None)

    p = sub.add_parser("spectrum", help="eigenvector residual scan in the spectral ball")
    p.add_argument("--n", type=int, required=True, help="semigroup index, >= 2")
    p.add_argument("--r-steps", type=int, default=5, help="radial grid points in [0, 0.95]")
    p.add_argument("--theta-steps", type=int, default=8, help="angular grid points")
    p.add_argument("--out", default=None, help="output CSV path")

    return parser


def _effective_config(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> tuple[LabConfig, set[str]]:
    """The merged config and the names of the keys set by a flag or the config file."""
    values: dict = {}
    if args.config:
        try:
            values.update(load_config_file(args.config))
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
    for flag, key in [
        ("truncation", "truncation_degree"),
        ("tolerance", "tolerance"),
        ("output_dir", "output_dir"),
        ("seed", "seed"),
    ]:
        if getattr(args, flag) is not None:
            values[key] = getattr(args, flag)
    try:
        return LabConfig(**values), set(values)
    except ValueError as exc:
        parser.error(str(exc))


def _dispatch(parser: argparse.ArgumentParser, args: argparse.Namespace,
              cfg: LabConfig, explicit: set[str]) -> int:
    if args.command == "gen-hk":
        if args.k < 2:
            parser.error("gen-hk requires --k >= 2")
        n_trunc = cfg.truncation_degree if args.n is None else args.n
        if n_trunc < 0:
            parser.error("gen-hk requires --n >= 0")
        return cmd_gen_hk(cfg, args.k, n_trunc, args.out)

    if args.command == "bd":
        if args.kmax < 2:
            parser.error("bd requires --kmax >= 2")
        n_trunc = cfg.truncation_degree if args.n is None else args.n
        if n_trunc < 1:
            parser.error("bd requires --n >= 1")
        return cmd_baez_duarte(cfg, args.kmax, n_trunc, args.out, args.json_out)

    if args.command == "verify":
        if args.suite != "all" and args.suite not in SUITES:
            parser.error(f"unknown suite {args.suite!r}; choose from all, {', '.join(SUITES)}")
        if args.suite_seed is not None and args.suite_seed < 0:
            parser.error(f"verify requires --seed >= 0, got {args.suite_seed}")
        return cmd_verify(cfg, args.suite, args.suite_seed)

    if args.command == "spectrum":
        if args.n < 2:
            parser.error("spectrum requires --n >= 2")
        if args.r_steps < 1 or args.theta_steps < 1:
            parser.error("spectrum requires positive --r-steps and --theta-steps")
        # the degree floor stays 4096 unless a truncation was asked for
        min_degree_count = (
            cfg.truncation_degree if "truncation_degree" in explicit else 4096
        )
        return cmd_spectrum(cfg, args.n, args.r_steps, args.theta_steps, args.out,
                            min_degree_count)

    parser.error(f"unknown command {args.command!r}")
    return 2


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg, explicit = _effective_config(parser, args)
    try:
        return _dispatch(parser, args, cfg, explicit)
    except OSError as exc:
        parser.error(str(exc))
    except HardyLabError as exc:
        parser.error(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
