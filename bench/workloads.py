"""The four CLI workloads: seeded argv generation and per-op output checks.

Each workload class has ``argvs(seed, out_dir)``, an endless stream of
argv lists for ``hardylab.cli.main`` made from the benchmark seed, and
``check(argv, stdout, out_dir)``, which inspects what one call (one op)
printed and wrote and returns ``None`` when it is correct and a one-line
reason otherwise.  Checks read output files by column name, so a column
added later does not break them.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
from scipy.special import digamma

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

BD_KMAX = 50
BD_N = 16384
HK_N = 65536
SPECTRUM_ROWS = 40 * 64


def read_table(path: Path) -> dict[str, np.ndarray]:
    """Columns of a '#'-commented CSV file, keyed by header name."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    data = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path.name}: {data.shape[1]} columns, header has {len(header)}")
    return {name: data[:, i] for i, name in enumerate(header)}


class BdSequence:
    name = "bd-sequence"

    def __init__(self) -> None:
        # d_K recorded at the commit the benchmark was defined at.
        table = read_table(REFERENCE_DIR / f"bd_k{BD_KMAX}_n{BD_N}.csv")
        self.reference = {int(k): float(d) for k, d in zip(table["K"], table["d_K"])}

    def argvs(self, seed, out_dir):
        # d_K has no random input: the seed leaves the argv unchanged.
        while True:
            yield ["--output-dir", str(out_dir), "bd", "--kmax", str(BD_KMAX)]

    def check(self, argv, stdout, out_dir):
        table = read_table(out_dir / f"bd_k{BD_KMAX}_n{BD_N}.csv")
        got = {int(k): float(d) for k, d in zip(table["K"], table["d_K"])}
        if sorted(got) != sorted(self.reference):
            return f"K values {sorted(got)[:3]}... differ from the reference"
        for k, ref in self.reference.items():
            if abs(got[k] - ref) > 1e-10 * abs(ref):
                return f"d_{k} = {got[k]!r} differs from reference {ref!r} by more than 1e-10 rel"
        reports = json.loads((out_dir / f"bd_k{BD_KMAX}_n{BD_N}.json").read_text())["reports"]
        if len(reports) != len(self.reference):
            return f"{len(reports)} JSON reports, expected {len(self.reference)}"
        for rep in reports:
            gap = abs(rep["distance"] - rep["residual_norm_check"])
            if not gap <= 1e-10:
                return f"K={rep['K']}: |distance - residual_norm_check| = {gap:.3e} > 1e-10"
        return None


class IdentitySuites:
    name = "identity-suites"
    _summary = re.compile(r"^(\d+)/(\d+) checks passed$")

    def argvs(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        while True:
            suite_seed = int(rng.integers(0, 2**31))
            yield ["--output-dir", str(out_dir), "verify", "--suite", "all",
                   "--seed", str(suite_seed)]

    def check(self, argv, stdout, out_dir):
        lines = stdout.splitlines()
        match = self._summary.match(lines[-1]) if lines else None
        if match is None:
            return f"last line {lines[-1:]!r} is not 'N/N checks passed'"
        passed, total = int(match[1]), int(match[2])
        checks = [ln for ln in lines[:-1] if ln.startswith(("PASS", "FAIL"))]
        if passed != total or total == 0 or len(checks) != total:
            return f"'{lines[-1]}' with {len(checks)} check lines"
        return None


class SpectralScan:
    name = "spectral-scan"

    def argvs(self, seed, out_dir):
        # Fixed grid: the seed leaves the argv unchanged.
        while True:
            yield ["--output-dir", str(out_dir), "spectrum", "--n", "3",
                   "--r-steps", "40", "--theta-steps", "64"]

    def check(self, argv, stdout, out_dir):
        table = read_table(out_dir / "spectrum_n3.csv")
        residual = table["residual"]
        if len(residual) != SPECTRUM_ROWS:
            return f"{len(residual)} rows, expected {SPECTRUM_ROWS}"
        worst = float(np.max(residual))
        if not worst <= 1e-10:
            return f"max residual {worst:.3e} > 1e-10"
        return None


class HkTable:
    name = "hk-table"

    def argvs(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        while True:
            k = int(rng.integers(2, 65))
            yield ["--output-dir", str(out_dir), "gen-hk", "--k", str(k),
                   "--n", str(HK_N)]

    def check(self, argv, stdout, out_dir):
        k = int(argv[argv.index("--k") + 1])
        table = read_table(out_dir / f"hk_{k}_n{HK_N}.csv")
        j = table["j"]
        if len(j) != HK_N + 1 or not np.array_equal(j, np.arange(HK_N + 1)):
            return f"j column is not 0..{HK_N}"
        expected = digamma(j + 1) - digamma(j // k + 1) - np.log(k)
        worst = float(np.max(np.abs(table["value"] - expected)))
        if not worst <= 1e-11:
            return f"k={k}: max |value - digamma form| = {worst:.3e} > 1e-11"
        return None


WORKLOADS = {w.name: w for w in (BdSequence, IdentitySuites, SpectralScan, HkTable)}
