"""One fresh benchmark process: set up, then time ops of one workload.

Started by run.py, never by hand.  It imports hardylab from the
checkout's ``src``, runs one untimed warm-up op (set-up time runs from the
moment run.py spawned this process), then times ``hardylab.cli.main(argv)``
calls until ``--seconds`` have passed and at least ``--min-ops`` ops have
run, timing a fixed calibration kernel before the first op and after each
one.  Every op, the warm-up included, is checked.  The last stdout line
is a JSON record for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS  # noqa: E402


def calibration_s() -> float:
    """Time of a fixed pure-Python kernel: the speed of the machine right now.

    Shared hosts drift between fast and slow states lasting seconds to
    minutes; timing this kernel between ops lets run.py factor that out.
    """
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start


def blas_threads() -> dict[str, int]:
    """Thread count each loaded OpenBLAS library reports it will use."""
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    import hardylab

    def blas(config):
        dep = config.get("Build Dependencies", {}).get("blas", {})
        return f"{dep.get('name')} {dep.get('version')}"

    cpu_model = platform.machine()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": blas(numpy.show_config(mode="dicts")),
        "blas_scipy": blas(scipy.show_config(mode="dicts")),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS") or k == "LAB_THREADS"},
        "hardylab": hardylab.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--trace-file", default=None,
                        help="trace the timed ops and write their spans to this file")
    args = parser.parse_args()

    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import hardylab
    from hardylab.cli import main as cli_main

    src = Path.cwd().resolve() / "src"
    if src not in Path(hardylab.__file__).resolve().parents:
        print(f"hardylab imported from {hardylab.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    out_dir = Path(args.out_dir)
    argvs = workload.argvs(args.seed, out_dir)
    failures: list[str] = []

    def run_op(tracer=None, op_id=None):
        argv = next(argvs)
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli_main(argv) if tracer is None else tracer.run_op(op_id, cli_main, argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:
            rc = f"exception {exc!r}"
        elapsed = time.perf_counter() - start
        problem = f"exit {rc}"
        if rc == 0:
            try:
                problem = workload.check(argv, buf.getvalue(), out_dir)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problem = f"unreadable output: {exc!r}"
        bytes_written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
        if problem is not None:
            failures.append(f"{' '.join(argv[2:])}: {problem}")
        return elapsed, bytes_written

    run_op()
    setup_s = time.monotonic() - args.spawned_at

    tracer = None
    if args.trace_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    times, written, calibration = [], [], [calibration_s()]
    deadline = time.monotonic() + args.seconds
    while len(times) < args.min_ops or time.monotonic() < deadline:
        elapsed, nbytes = run_op(tracer, len(times))
        calibration.append(calibration_s())
        times.append(elapsed)
        written.append(nbytes)
    record = {
        "setup_s": setup_s,
        "op_s": times,
        "calibration_s": calibration,
        "attempted": 1 + len(times),
        "failures": failures,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(),
    }
    if tracer is not None:
        from tracer import summarize

        layers = summarize(tracer, list(range(len(times))))
        layers["cli.bytes_written"] = sum(written) / len(written)
        record["layers"] = layers
        tracer.write(args.trace_file)
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
