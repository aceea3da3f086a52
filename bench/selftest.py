"""Self-test of the benchmark itself (not of hardylab).

Run from the root of a checkout:

    python3 bench/selftest.py

For every workload it runs bench/run.py once with ``--trace 0`` and once
with ``--trace 1`` at one second, and checks that the result line carries
every metric the benchmark is designed to report, each with the unit
BENCHMARK.json declares, and that no op failed.  It also runs the
benchmark in a directory holding only BENCHMARK.json and bench/, where it
must exit nonzero without printing a result.  Takes about two minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import tail  # noqa: E402

SPANNED = [
    "series.formal_log", "series.axpy", "series.cumsum",
    "semigroup.weighted_dilation", "semigroup.weighted_dilation_adjoint",
    "special.hk_closed_form", "special.hk_oracle",
    "spectral.spectral_disk_scan", "spectral.adjoint_eigenvector",
    "projection.distance_to_span",
]
SUITES = ["adjoint", "isometry", "semigroup", "semiconjugacy", "hk", "kernel",
          "dirichlet", "spectral", "cyclic"]
COMMANDS = ["cmd_gen_hk", "cmd_baez_duarte", "cmd_verify", "cmd_spectrum"]

REQUIRED_END_TO_END = {"setup_s", "op_s_p50", "op_s_tail", "peak_rss_mb", "ok_frac"}
REQUIRED_PER_LAYER = (
    {f"{fn}.{stat}" for fn in SPANNED for stat in ("calls", "busy_s", "self_s")}
    | {"series.CoeffSeries.constructed", "series.CoeffSeries.bytes",
       "special.hk_closed_form.coeffs",
       "projection.qr.calls", "projection.qr.busy_s", "projection.qr.flops",
       "cli.bytes_written", "trace.overhead_s", "blas1.op_s_p50",
       "raw.op_s_p50", "machine.calibration_s"}
    | {f"verify.suite_{name}.busy_s" for name in SUITES}
    | {f"cli.{cmd}.self_s" for cmd in COMMANDS}
)


def run_bench(cwd: Path, workload: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def check_tail() -> None:
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert tail([float(i) for i in range(20)]) == (19.0, 100.0, 0)
    samples = [float(i) for i in range(1, 41)]
    value, pct, beyond = tail(samples)
    assert (value, pct, beyond) == (30.0, 75.0, 10)
    assert sum(x > value for x in samples) == 10


def main() -> int:
    root = Path.cwd().resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems: list[str] = []
    check_tail()

    for key, required in (("end_to_end", REQUIRED_END_TO_END), ("per_layer", REQUIRED_PER_LAYER)):
        declared = {m["name"] for m in spec[key]}
        if required - declared:
            problems.append(f"{key} lacks {sorted(required - declared)}")

    nonzero: set[str] = set()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run_bench(root, workload, trace)
            if code != 0 or not lines:
                problems.append(f"{workload} --trace {trace}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} --trace {trace}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} --trace {trace}: {result['failed']} failed")
            units = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != units:
                problems.append(f"{workload} --trace {trace}: metrics/units differ from {key}")
            for name, metric in result["metrics"].items():
                if not math.isfinite(metric["value"]):
                    problems.append(f"{workload}: {name} = {metric['value']}")
                if metric["value"] != 0:
                    nonzero.add(name)
                printed = [ln for ln in lines if ln.split(" ", 1)[0] == name]
                if not printed or metric["unit"] not in printed[0]:
                    problems.append(f"{workload}: {name} not printed with its unit")
            print(f"{workload} --trace {trace}: {len(result['metrics'])} metrics")

    all_metrics = {m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]}
    if all_metrics - nonzero:
        problems.append(f"zero on every workload: {sorted(all_metrics - nonzero)}")

    isolated = root / "bench_out" / "selftest-isolated"
    shutil.rmtree(isolated, ignore_errors=True)
    isolated.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", isolated)
        shutil.copytree(root / "bench", isolated / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run_bench(isolated, spec["workloads"][0]["name"], 0)
        if code == 0 or any(ln.startswith("{") for ln in lines):
            problems.append(f"without sources: exit {code}, output {lines[-1:]}")
    finally:
        shutil.rmtree(isolated, ignore_errors=True)

    for problem in problems:
        print("PROBLEM", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
