"""Span tracing of hardylab from outside the package.

The package imports names directly (``from .series import axpy``), so a
function is wrapped in every hardylab module namespace that holds it, and
in ``verify.SUITES``; ``scipy.linalg.qr`` is wrapped on the module object
that ``hardylab.projection`` reaches it through.  Spans (id, name, start,
end, parent id, op id) stay in memory and are written out once at exit.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict

# (module, function) pairs that get a span; names match the metric names.
SPANNED = [
    ("series", "formal_log"),
    ("series", "axpy"),
    ("series", "cumsum"),
    ("semigroup", "weighted_dilation"),
    ("semigroup", "weighted_dilation_adjoint"),
    ("special", "hk_closed_form"),
    ("special", "hk_oracle"),
    ("spectral", "spectral_disk_scan"),
    ("spectral", "adjoint_eigenvector"),
    ("projection", "distance_to_span"),
    ("cli", "cmd_gen_hk"),
    ("cli", "cmd_baez_duarte"),
    ("cli", "cmd_verify"),
    ("cli", "cmd_spectrum"),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._op = self.wrap(lambda fn, *args: fn(*args), "op")

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is threading.main_thread() else []
            self._local.stack = stack
        return stack

    def count(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def wrap(self, fn, name: str, on_call=None):
        """``fn`` recording one span per call; ``on_call(args, result)`` adds counts."""

        def traced(*args, **kwargs):
            stack = self._stack()
            # A pool thread has no span of its own yet: the span the main
            # thread is in (the one that started the pool) caused it.
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent, self.op_id))
            if on_call is not None:
                on_call(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import hardylab.cli  # noqa: F401  (loads every hardylab module)
        from hardylab import projection, series, verify

        modules = [m for name, m in list(sys.modules.items())
                   if name == "hardylab" or name.startswith("hardylab.")]

        def replace_everywhere(original, wrapped):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
            for key, value in list(verify.SUITES.items()):
                if value is original:
                    verify.SUITES[key] = wrapped

        def count_coeffs(args, result):
            self.count("special.hk_closed_form.coeffs", len(result.coeffs))

        for mod_name, fn_name in SPANNED:
            original = getattr(sys.modules[f"hardylab.{mod_name}"], fn_name)
            hook = count_coeffs if fn_name == "hk_closed_form" else None
            replace_everywhere(original, self.wrap(original, f"{mod_name}.{fn_name}", hook))
        for suite_name, original in list(verify.SUITES.items()):
            replace_everywhere(original, self.wrap(original, f"verify.suite_{suite_name}"))

        def count_flops(args, result):
            m, n = args[0].shape
            self.count("projection.qr.flops", 2 * m * n * n - 2 * n**3 / 3)

        linalg = projection.scipy.linalg
        linalg.qr = self.wrap(linalg.qr, "projection.qr", count_flops)

        original_post_init = series.CoeffSeries.__post_init__

        def counted_post_init(obj):
            original_post_init(obj)
            self.count("series.CoeffSeries.constructed", 1)
            self.count("series.CoeffSeries.bytes", obj.coeffs.nbytes)

        series.CoeffSeries.__post_init__ = counted_post_init

    def run_op(self, op_id: int, fn, *args):
        """``fn(*args)`` under the root span of op ``op_id``."""
        self.op_id = op_id
        return self._op(fn, *args)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(tracer: Tracer, op_ids: list[int]) -> dict[str, float]:
    """Per-op means of calls, busy time and self time for every span name.

    Self time is a span's duration minus the part of it that its child
    spans cover.  ``projection.op_share`` is the median over ops of the
    share of the op covered by projection spans.
    """
    ops = set(op_ids)
    spans = [s for s in tracer.spans if s[5] in ops]
    children = defaultdict(list)
    for span_id, _, start, end, parent, _ in spans:
        children[parent].append((start, end))
    stats: dict[str, float] = defaultdict(float)
    for span_id, name, start, end, _, _ in spans:
        covered = _union_length(children.get(span_id, ()), start, end)
        stats[f"{name}.calls"] += 1
        stats[f"{name}.busy_s"] += end - start
        stats[f"{name}.self_s"] += end - start - covered
    for key, value in tracer.counts.items():
        stats[key] += value
    per_op = {key: value / len(ops) for key, value in stats.items()}

    roots = {}
    projection_spans = defaultdict(list)
    for _, name, start, end, _, op_id in spans:
        if name == "op":
            roots[op_id] = (start, end)
        elif name.startswith("projection."):
            projection_spans[op_id].append((start, end))
    per_op["projection.op_share"] = statistics.median(
        _union_length(projection_spans[op_id], start, end) / (end - start)
        for op_id, (start, end) in roots.items()
    )
    return per_op
