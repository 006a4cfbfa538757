"""Outside-in tracing: spans around the package's public functions.

Nothing in the package changes.  ``Tracer.install`` wraps every function
named in a layer module's ``__all__`` (plus a few hot methods and the CLI
entry point) and rebinds the wrapper in every ``asymspec`` module that
imported the name, so internal calls are seen too.  Each call records a span
(name, start, end, parent) in memory.  Self time is a span's duration minus
the time its direct children cover; time spent in unwrapped helpers is
charged to the nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("series", "scaling", "ase", "gkf", "kernels", "degenerate", "oracle",
          "serialize", "pipeline", "cli")

# public methods on the hot paths, wrapped as <layer>.<Class>.<name>
METHODS = {
    "series": {"MatrixSeries": ("entry", "scale_rows_cols", "__matmul__", "congruence")},
    "kernels": {"KernelModel": ("psi_coeff",)},
}
# functions outside __all__ that a per-layer metric needs
EXTRA = {"serialize": ("dumps",), "cli": ("main",)}
# tiny helpers with very high call counts: wrapping them would swamp the run
SKIP = {"series": ("as_exponent",), "kernels": ("monomials_of_degree",)}
# counts computed from a wrapped function's result
RESULT_COUNTS = {
    "kernels.vandermonde": ("kernels.vandermonde.cols", lambda r: r.shape[1]),
    "oracle.eigen_sweep": ("oracle.eigen_sweep.points", lambda r: len(r.eps_grid)),
}

PARSE = ("serialize.matrix_series_from_json", "serialize.gkf_from_json",
         "serialize.scaling_from_json", "serialize.exponent_from_json",
         "serialize.ase_from_json", "serialize.read_nodes_csv")
EMIT = ("serialize.ase_to_json", "serialize.dumps", "serialize.match_report_to_json",
        "serialize.sweep_csv_lines")

# per-layer metrics reported by name: (metric, unit); "<span>.s" is the time
# inside the outermost spans of that name, "<span>.calls" their number
NAMED = (
    ("series.valuation_matrix.s", "s"),
    ("series.MatrixSeries.entry.s", "s"),
    ("series.MatrixSeries.entry.calls", "count"),
    ("series.MatrixSeries.scale_rows_cols.s", "s"),
    ("series.MatrixSeries.matmul.s", "s"),
    ("series.series_matrix_inverse.s", "s"),
    ("scaling.auto_scale_exponents.s", "s"),
    ("scaling.check_valid.s", "s"),
    ("scaling.extract_H.s", "s"),
    ("ase.schur_chain.s", "s"),
    ("ase.schur_chain.calls", "count"),
    ("ase.eigen_readout.s", "s"),
    ("gkf.block_rrqr.s", "s"),
    ("gkf.build_H.s", "s"),
    ("gkf.ase_from_gkf.s", "s"),
    ("kernels.vandermonde.calls", "count"),
    ("kernels.vandermonde.cols", "count"),
    ("kernels.KernelModel.psi_coeff.calls", "count"),
    ("kernels.wronskian.s", "s"),
    ("kernels.smooth_flat_limit.s", "s"),
    ("kernels.finite_smooth_flat_limit.s", "s"),
    ("kernels.kernel_matrix.s", "s"),
    ("degenerate.iterative_ase.s", "s"),
    ("degenerate.rounds", "count"),
    ("pipeline.fallback_frac", "ratio"),
    ("oracle.eigen_sweep.s", "s"),
    ("oracle.eigen_sweep.points", "count"),
    ("oracle.match_ase.s", "s"),
    ("oracle.estimate_valuations.s", "s"),
    ("serialize.parse_s", "s"),
    ("serialize.emit_s", "s"),
    ("serialize.bytes_out", "bytes"),
)


def metric_units() -> dict:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update(NAMED)
    units["trace.overhead_frac"] = "ratio"
    return units


class Tracer:
    """Spans kept in memory; ``take`` folds them into per-name totals."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list = []
        self._restore: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = RESULT_COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                counts[count[0]] += count[1](result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "asymspec" or name.startswith("asymspec.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"asymspec.{layer}")
            names = list(getattr(mod, "__all__", ())) + list(EXTRA.get(layer, ()))
            for fname in names:
                fn = getattr(mod, fname)
                if (not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or fname in SKIP.get(layer, ())):
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for m in modules:  # `from .x import f` copies the binding
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._set(m, attr, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    label = meth.strip("_")
                    self._set(cls, meth, self._wrap(f"{layer}.{cls_name}.{label}",
                                                    cls.__dict__[meth]))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def take(self, totals: "SpanTotals"):
        """Fold the recorded spans into ``totals`` and forget them."""
        totals.add(self.spans, self.counts)
        self.spans.clear()
        self.counts.clear()


class SpanTotals:
    """Per-name inclusive time, self time and calls, summed over operations."""

    def __init__(self):
        self.inclusive = defaultdict(float)  # outermost spans of a name only
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.rounds = 0  # auto_scale_with_permutation called by iterative_ase

    def add(self, spans, counts):
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            self.calls[name] += 1
            self.self_s[name] += (end - start) - child[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                self.inclusive[name] += end - start
            if (name == "scaling.auto_scale_with_permutation" and parent >= 0
                    and spans[parent][0] == "degenerate.iterative_ase"):
                self.rounds += 1
        self.counts.update(counts)

    def metrics(self, bytes_out: int) -> dict:
        """Every per-layer metric except the overhead, summed over the spans taken."""
        out = {}
        for layer in LAYERS:
            names = [k for k in self.calls if k.split(".", 1)[0] == layer]
            out[f"{layer}.self_s"] = sum(self.self_s[k] for k in names)
            out[f"{layer}.calls"] = sum(self.calls[k] for k in names)
        analyze = self.calls["pipeline.analyze_series"]
        special = {
            "kernels.vandermonde.cols": self.counts["kernels.vandermonde.cols"],
            "oracle.eigen_sweep.points": self.counts["oracle.eigen_sweep.points"],
            "degenerate.rounds": self.rounds,
            "pipeline.fallback_frac": (
                self.calls["degenerate.iterative_ase"] / analyze if analyze else 0.0),
            "serialize.parse_s": sum(self.inclusive[k] for k in PARSE),
            "serialize.emit_s": sum(self.inclusive[k] for k in EMIT),
            "serialize.bytes_out": bytes_out,
        }
        for metric, _ in NAMED:
            if metric in special:
                out[metric] = special[metric]
            else:
                base, _, kind = metric.rpartition(".")
                out[metric] = self.inclusive[base] if kind == "s" else self.calls[base]
        return out
