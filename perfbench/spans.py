"""Spans recorded around calls into glda's layers, and the per-layer metrics.

The traced run wraps public functions at the module attributes their
callers look up (``glda.cli.fit_grouped`` and ``glda.solvers.fit_grouped``
are separate bindings of one function), records one span per call and
restores every attribute on exit. A layer is the glda module a span's name
starts with. Nothing here imports numpy, so the arithmetic can be tested on
synthetic spans.
"""

import functools
import importlib
import os
import statistics
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "io", "model", "simulate", "solvers", "simplex", "select", "classify")

# (module, attribute, span name). A module binds the functions it imports
# from another layer under its own name, so each binding is wrapped.
TARGETS = (
    ("glda.cli", "kfold_cv", "select.kfold_cv"),
    ("glda.cli", "lambda_grid", "select.lambda_grid"),
    ("glda.cli", "lambda_max", "select.lambda_max"),
    ("glda.cli", "support_metrics", "select.support_metrics"),
    ("glda.cli", "fit_grouped", "solvers.fit_grouped"),
    ("glda.select", "fit_grouped", "solvers.fit_grouped"),
    ("glda.solvers", "fit_grouped", "solvers.fit_grouped"),
    ("glda.cli", "fit_single_lasso", "solvers.fit_single_lasso"),
    ("glda.solvers", "fit_single_lasso", "solvers.fit_single_lasso"),
    ("glda.cli", "fit_lpd", "solvers.fit_lpd"),
    ("glda.solvers", "fit_lpd", "solvers.fit_lpd"),
    ("glda.cli", "hard_threshold", "solvers.hard_threshold"),
    ("glda.solvers", "hard_threshold", "solvers.hard_threshold"),
    ("glda.solvers", "lipschitz_upper", "solvers.lipschitz_upper"),
    ("glda.solvers", "solve_inequality_lp", "simplex.solve_inequality_lp"),
    ("glda.io", "read_dataset_csv", "io.read_dataset_csv"),
    ("glda.io", "read_feature_csv", "io.read_feature_csv"),
    ("glda.io", "write_dataset_csv", "io.write_dataset_csv"),
    ("glda.io", "write_model_file", "io.write_model_file"),
    ("glda.io", "read_model_file", "io.read_model_file"),
    ("glda.io", "write_truth_file", "io.write_truth_file"),
    ("glda.io", "read_truth_file", "io.read_truth_file"),
    ("glda.io", "atomic_write_text", "io.atomic_write_text"),
    ("glda.model", "summarize", "model.summarize"),
    ("glda.cli", "summarize", "model.summarize"),
    ("glda.select", "summarize", "model.summarize"),
    ("glda.model", "pooled_scatter", "model.pooled_scatter"),
    ("glda.cli", "pooled_scatter", "model.pooled_scatter"),
    ("glda.select", "pooled_scatter", "model.pooled_scatter"),
    ("glda.simulate", "sample", "simulate.sample"),
    ("glda.cli", "sample", "simulate.sample"),
    ("glda.select", "evaluate", "classify.evaluate"),
    ("glda.select", "build_model", "classify.build_model"),
    ("glda.cli", "build_model", "classify.build_model"),
    ("glda.cli", "predict_batch", "classify.predict"),
    ("glda.cli", "naive_bayes_predict_batch", "classify.predict"),
    ("glda.cli", "pseudoinverse_lda_fit", "classify.pinv_fit"),
    ("glda.cli", "naive_bayes_fit", "classify.nbayes_fit"),
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """Keeps spans in memory; a span's parent is the innermost open span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def open(self, name):
        span = Span(len(self.spans), name, self.clock(), float("nan"),
                    self._stack[-1].id if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        self._stack.pop()


def _observe(name, args, result, attrs):
    """Attributes read from a call's arguments and result.

    A call whose arguments or result no longer have the expected shape is
    recorded without them rather than stopping the run.
    """
    try:
        _read_attrs(name, args, result, attrs)
    except (LookupError, TypeError, AttributeError, ValueError, OSError):
        pass


def _read_attrs(name, args, result, attrs):
    if name in ("solvers.fit_grouped", "solvers.fit_single_lasso"):
        report = result[1]
        attrs["iterations"] = int(report.iterations)
        attrs["converged"] = bool(report.converged)
    elif name == "simplex.solve_inequality_lp":
        attrs["rows"] = int(len(args[2]))
    elif name == "io.read_feature_csv":
        attrs["bytes"] = os.path.getsize(args[0])


def _wrap(fn, name, recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.attrs["raised"] = type(exc).__name__
            raise
        finally:
            recorder.close(span)
        _observe(name, args, result, span.attrs)
        return result

    return traced


class patched:
    """Context manager that wraps every available target and restores it.

    Targets whose module or attribute does not exist are skipped and listed
    in ``skipped``, so the benchmark still runs when the package moves a
    function; the restore runs on every exit path.
    """

    def __init__(self, recorder, targets=TARGETS):
        self.recorder = recorder
        self.targets = targets
        self.saved = []
        self.skipped = []

    def __enter__(self):
        try:
            for mod_name, attr, span_name in self.targets:
                try:
                    mod = importlib.import_module(mod_name)
                    fn = getattr(mod, attr)
                except (ImportError, AttributeError):
                    self.skipped.append(f"{mod_name}.{attr}")
                    continue
                self.saved.append((mod, attr, fn))
                setattr(mod, attr, _wrap(fn, span_name, self.recorder))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self.saved:
            mod, attr, fn = self.saved.pop()
            setattr(mod, attr, fn)


def self_times(spans):
    """Span id -> duration minus the part of it covered by child spans."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        edge = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = s.duration - covered
    return out


def _quantile_ms(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(spans):
    """Per-layer metrics of one traced pass, keyed by the BENCHMARK.json names."""
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name, pred=lambda s: True):
        return sum((s.duration for s in by_name.get(name, ()) if pred(s)), 0.0)

    parents = {s.id: s for s in spans}

    def outside_io(s):
        return s.parent is None or parents[s.parent].layer != "io"

    grouped = by_name.get("solvers.fit_grouped", [])
    grouped_ok = [s for s in grouped if "raised" not in s.attrs]
    lpd = by_name.get("solvers.fit_lpd", [])
    lpd_infeasible = [s for s in lpd if s.attrs.get("raised") == "LpInfeasibleError"]
    read_s = total("io.read_feature_csv")
    read_bytes = sum(s.attrs.get("bytes", 0) for s in by_name.get("io.read_feature_csv", ()))

    m = {
        "io.read_dataset_s": read_s,
        "io.read_MBps": read_bytes / 1e6 / read_s if read_s > 0 else 0.0,
        "io.write_dataset_s": total("io.write_dataset_csv"),
        "io.write_text_s": total("io.atomic_write_text", outside_io),
        "io.model_file_s": total("io.write_model_file") + total("io.read_model_file"),
        "model.summarize_s": total("model.summarize"),
        "model.pooled_scatter_s": total("model.pooled_scatter"),
        "simulate.sample_s": total("simulate.sample"),
        "solvers.lipschitz_s": total("solvers.lipschitz_upper"),
        "solvers.lipschitz_calls": len(by_name.get("solvers.lipschitz_upper", ())),
        "solvers.grouped_s": total("solvers.fit_grouped"),
        "solvers.grouped_fits": len(grouped),
        "solvers.grouped_iters": sum(s.attrs.get("iterations", 0) for s in grouped),
        "solvers.grouped_fit_ms_p50": _quantile_ms([s.duration for s in grouped], 50),
        "solvers.grouped_fit_ms_p90": _quantile_ms([s.duration for s in grouped], 90),
        "solvers.grouped_maxiter_frac": (
            sum(1 for s in grouped_ok if not s.attrs.get("converged", True)) / len(grouped_ok)
            if grouped_ok else 0.0
        ),
        "solvers.single_s": total("solvers.fit_single_lasso"),
        "solvers.single_iters": sum(
            s.attrs.get("iterations", 0) for s in by_name.get("solvers.fit_single_lasso", ())
        ),
        "solvers.lpd_s": total("solvers.fit_lpd"),
        "solvers.lpd_fits": len(lpd),
        "solvers.lpd_infeasible_frac": len(lpd_infeasible) / len(lpd) if lpd else 0.0,
        "solvers.lpd_infeasible_s": sum((s.duration for s in lpd_infeasible), 0.0),
        "simplex.lp_solves": len(by_name.get("simplex.solve_inequality_lp", ())),
        "simplex.lp_s": total("simplex.solve_inequality_lp"),
        "simplex.lp_rows_max": max(
            (s.attrs.get("rows", 0) for s in by_name.get("simplex.solve_inequality_lp", ())),
            default=0,
        ),
        "select.kfold_cv_self_s": sum(
            (selfs[s.id] for s in by_name.get("select.kfold_cv", ())), 0.0
        ),
        "classify.evaluate_s": total("classify.evaluate"),
        "classify.predict_s": total("classify.predict"),
        "classify.pinv_fit_s": total("classify.pinv_fit"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((selfs[s.id] for s in spans if s.layer == layer), 0.0)
    return m
