"""Benchmark of the hardylab command line, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload bd-sequence --seed 1 --seconds 24 --trace 0

Each workload (listed with its reason in BENCHMARK.json) runs in fresh
child processes (bench/worker.py) that import hardylab from ``src`` and
call ``hardylab.cli.main(argv)``; one call is one op, and every op's
output is checked (bench/workloads.py).

``--trace 0`` reports the end-to-end metrics from PROCESSES fresh
processes that each time at least MIN_OPS ops for a share of
``--seconds``: ``setup_s`` is the median of their times to import
hardylab, numpy and scipy and run one untimed warm-up op, and their op
times are pooled.  Op times are scaled to a reference machine speed by a
calibration kernel timed next to each op (see ``op_times``, and RAW_TIME
for the exception); the raw median is printed beside ``op_s_p50``.  ``--trace 1`` reports the
per-layer metrics from three such processes: untraced, traced
(bench/tracer.py, spans written to bench_out/), and untraced with BLAS
pinned to one thread as a reference.

BLAS runs at its library default thread count: inherited ``*_NUM_THREADS``
variables are removed from the children's environment.  Every metric is
printed with its unit, then the environment record, then, as the last
line, one JSON object.  The exit code is 1 when an op failed its check
and 2 when the benchmark could not run (then no JSON line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
PROCESSES = 3
MIN_OPS = 3
# Workers still running this long after the start are killed; the whole
# run must end within 180 s.
DEADLINE_S = 170
# The spectral scan's thread pool is used only with LAB_THREADS > 1; 2 is
# the core count of the machine the workload was sized on.
WORKLOAD_ENV = {"spectral-scan": {"LAB_THREADS": "2"}}
# Time of worker.calibration_s on the reference machine (2-vCPU Intel Xeon
# host, Python 3.11, uncontended).  Op times are reported at that speed.
CALIBRATION_REF_S = 0.0064
# Workloads reported in raw wall time.  A bd op leaves OpenBLAS threads
# spinning, which slows the kernel timed right after it: over 10 seeds its
# op_s_p50 spread (IQR/median) was 0.08-0.10 raw but 0.18 calibrated.
RAW_TIME = {"bd-sequence"}
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env(root: Path, workload: str, extra: dict[str, str]) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.endswith("_NUM_THREADS") and k != "LAB_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    env.update(WORKLOAD_ENV.get(workload, {}))
    env.update(extra)
    return env


def spawn(root: Path, args, out_dir: Path, *, seconds: float,
          trace_file: Path | None = None,
          extra_env: dict[str, str] | None = None) -> dict:
    """Run one worker process to completion and return its JSON record.

    With ``trace_file`` the worker traces its timed ops and writes the spans there.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--min-ops", str(MIN_OPS), "--out-dir", str(out_dir)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    env = child_env(root, args.workload, extra_env or {})
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, args.deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workers did not finish within {DEADLINE_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def op_times(record: dict, workload: str) -> list[float]:
    """Op times scaled to the reference machine speed (raw for RAW_TIME).

    Each op's wall time is multiplied by CALIBRATION_REF_S over the mean
    calibration time measured just before and just after it, so that a
    shared host drifting between fast and slow states (up to 2x apart, for
    seconds to minutes) moves the result far less than it moves raw times.
    """
    if workload in RAW_TIME:
        return record["op_s"]
    cal = record["calibration_s"]
    return [t * 2 * CALIBRATION_REF_S / (before + after)
            for t, before, after in zip(record["op_s"], cal, cal[1:])]


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with >= 10 samples beyond it: (value, percentile, beyond).

    With 20 samples or fewer that percentile would not lie above the
    median, so the maximum is returned with the count beyond it (0).
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def end_to_end(root, args, out_root) -> tuple[dict, dict, list[dict]]:
    # Ops are pooled over several fresh processes so that one process's
    # luck (thread placement, memory layout) does not set the median.
    records = [spawn(root, args, out_root / f"proc{i}",
                     seconds=args.seconds / PROCESSES) for i in range(PROCESSES)]
    times = [t for r in records for t in op_times(r, args.workload)]
    raw = [t for r in records for t in r["op_s"]]
    calibration = [c for r in records for c in r["calibration_s"]]
    tail_value, pct, beyond = tail(times)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(len(r["failures"]) for r in records)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "op_s_p50": statistics.median(times),
        "op_s_tail": tail_value,
        "peak_rss_mb": max(r["peak_rss_kib"] for r in records) / 1024,
        "ok_frac": 1 - failed / attempted,
    }
    notes = {
        "setup_s": f"median of {len(records)} fresh processes",
        "op_s_p50": f"{len(times)} timed ops in {len(records)} processes; raw median "
                    f"{statistics.median(raw):.4g} s, calibration median "
                    f"{statistics.median(calibration):.4g} s vs {CALIBRATION_REF_S} s",
        "op_s_tail": f"p{pct:.1f} of {len(times)} ops, {beyond} beyond it",
        "peak_rss_mb": "largest ru_maxrss of the processes",
        "ok_frac": f"failed_frac = {failed}/{attempted} = {failed / attempted:.4g}",
    }
    return values, notes, records


def per_layer(root, args, out_root, tag) -> tuple[dict, dict, list[dict]]:
    share = args.seconds / 3
    trace_file = out_root.parent / f"trace-{tag}.jsonl"
    untraced = spawn(root, args, out_root / "untraced", seconds=share)
    traced = spawn(root, args, out_root / "traced", seconds=share, trace_file=trace_file)
    blas1 = spawn(root, args, out_root / "blas1", seconds=share, extra_env=ONE_THREAD)
    p50 = {name: statistics.median(op_times(r, args.workload))
           for name, r in (("untraced", untraced), ("traced", traced), ("blas1", blas1))}
    values = dict(traced["layers"])
    values.update({
        "raw.op_s_p50": statistics.median(untraced["op_s"]),
        "machine.calibration_s": statistics.median(untraced["calibration_s"]),
        "trace.op_s_p50": p50["traced"],
        "trace.overhead_s": p50["traced"] - p50["untraced"],
        "blas1.op_s_p50": p50["blas1"],
        "blas1.speedup": p50["untraced"] / p50["blas1"],
    })
    notes = {
        "trace.overhead_s": f"traced {len(traced['op_s'])} ops minus untraced "
                            f"{len(untraced['op_s'])} ops; spans in {trace_file.name}",
        "blas1.op_s_p50": f"{len(blas1['op_s'])} ops, BLAS pinned to 1 thread",
        "blas1.speedup": "default-thread op_s_p50 / one-thread op_s_p50",
    }
    return values, notes, [untraced, traced, blas1]


def main() -> int:
    root = Path.cwd().resolve()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    args.deadline = time.monotonic() + DEADLINE_S

    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
        if not (root / "src" / "hardylab" / "__init__.py").is_file():
            raise BenchError(f"no hardylab sources under {root / 'src'}")
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")
        declared = spec["per_layer" if args.trace else "end_to_end"]

        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
        out_root = root / "bench_out" / tag
        try:
            if args.trace:
                values, notes, records = per_layer(root, args, out_root, tag)
            else:
                values, notes, records = end_to_end(root, args, out_root)
        finally:
            shutil.rmtree(out_root, ignore_errors=True)

        declared_names = {m["name"] for m in declared}
        if args.trace:
            # A span absent from the trace was never called on this workload.
            values = {**dict.fromkeys(declared_names, 0.0), **values}
        missing = sorted(declared_names - set(values))
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    metrics = {}
    for m in declared:
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"{m['name']:<44} {value:.6g} {m['unit']}{note}")
    failures = [f for r in records for f in r["failures"]]
    for failure in failures:
        print(f"FAILED {failure}")
    env = dict(records[0]["env"], git_commit=git_commit(root), workload=args.workload,
               seed=args.seed, seconds=args.seconds)
    print("env " + json.dumps(env, sort_keys=True))
    attempted = sum(r["attempted"] for r in records)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
