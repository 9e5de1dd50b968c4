"""Tests of the span recorder, the wrappers and the per-layer arithmetic.

Not collected by a bare ``pytest``; run with
``python3 -m pytest perfbench/tests/check_*.py``.
"""

import importlib
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import spans  # noqa: E402
from spans import Span  # noqa: E402


def _bindings():
    out = {}
    for mod_name, attr, _ in spans.TARGETS:
        mod = importlib.import_module(mod_name)
        out[(mod_name, attr)] = getattr(mod, attr)
    return out


def test_every_target_exists_at_this_commit():
    assert _bindings()


def test_patched_wraps_and_restores_on_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.patched(spans.Recorder()) as patch:
            assert patch.skipped == []
            for (mod_name, attr), fn in before.items():
                assert getattr(importlib.import_module(mod_name), attr) is not fn
            raise RuntimeError("boom")
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


def test_patched_skips_missing_targets_and_restores():
    import glda.io

    original = glda.io.fmt
    targets = (("glda.io", "fmt", "io.fmt"), ("glda.io", "no_such_function", "io.none"),
               ("glda.no_such_module", "f", "x.f"))
    rec = spans.Recorder()
    with spans.patched(rec, targets) as patch:
        assert glda.io.fmt(1.5) == "1.5"
    assert patch.skipped == ["glda.io.no_such_function", "glda.no_such_module.f"]
    assert glda.io.fmt is original
    assert [s.name for s in rec.spans] == ["io.fmt"]


def test_wrapper_records_raise_and_reraises():
    rec = spans.Recorder()

    def fails():
        raise ValueError("no")

    with pytest.raises(ValueError):
        spans._wrap(fails, "solvers.fit_lpd", rec)()
    assert rec.spans[0].attrs == {"raised": "ValueError"}
    assert rec.spans[0].end >= rec.spans[0].start


def test_recorder_nesting_with_fake_clock():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))
    a = rec.open("select.kfold_cv")      # t=0
    b = rec.open("solvers.fit_grouped")  # t=1
    rec.close(b)                         # t=2
    c = rec.open("classify.evaluate")    # t=3
    rec.close(c)                         # t=4
    rec.close(a)                         # t=5
    assert [s.parent for s in rec.spans] == [None, a.id, a.id]
    assert spans.self_times(rec.spans) == {a.id: 3.0, b.id: 1.0, c.id: 1.0}


def test_self_time_uses_the_union_of_children_clipped_to_the_parent():
    tree = [
        Span(0, "cli.cv", 0.0, 10.0, None),
        Span(1, "select.kfold_cv", 1.0, 4.0, 0),
        Span(2, "io.read_feature_csv", 3.0, 6.0, 0),   # overlaps span 1
        Span(3, "model.summarize", 8.0, 12.0, 0),      # ends after its parent
        Span(4, "solvers.fit_grouped", 2.0, 3.0, 1),
    ]
    assert spans.self_times(tree) == {0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0}


def test_layer_metrics_on_a_synthetic_tree():
    tree = [
        Span(0, "select.kfold_cv", 0.0, 10.0, None),
        Span(1, "solvers.fit_grouped", 1.0, 3.0, 0, {"iterations": 5000, "converged": False}),
        Span(2, "solvers.lipschitz_upper", 1.0, 1.5, 1),
        Span(3, "solvers.fit_grouped", 4.0, 5.0, 0, {"iterations": 10, "converged": True}),
        Span(4, "classify.evaluate", 6.0, 7.0, 0),
        Span(5, "solvers.fit_lpd", 11.0, 13.0, None, {"raised": "LpInfeasibleError"}),
        Span(6, "simplex.solve_inequality_lp", 11.5, 12.5, 5, {"rows": 12}),
        Span(7, "solvers.fit_lpd", 14.0, 14.5, None),
        Span(8, "io.write_dataset_csv", 20.0, 22.0, None),
        Span(9, "io.atomic_write_text", 21.0, 22.0, 8),
        Span(10, "io.atomic_write_text", 23.0, 23.25, None),
        Span(11, "io.read_feature_csv", 24.0, 26.0, None, {"bytes": 4_000_000}),
    ]
    m = spans.layer_metrics(tree)
    assert m["select.kfold_cv_self_s"] == 6.0
    assert m["select.self_s"] == 6.0
    assert m["solvers.grouped_s"] == 3.0
    assert m["solvers.grouped_fits"] == 2
    assert m["solvers.grouped_iters"] == 5010
    assert m["solvers.grouped_maxiter_frac"] == 0.5
    assert m["solvers.lipschitz_calls"] == 1
    assert m["solvers.lpd_fits"] == 2
    assert m["solvers.lpd_infeasible_frac"] == 0.5
    assert m["solvers.lpd_infeasible_s"] == 2.0
    assert m["simplex.lp_solves"] == 1
    assert m["simplex.lp_rows_max"] == 12
    assert m["simplex.self_s"] == 1.0
    # fit_grouped self 1.5 + 1.0, lipschitz 0.5, fit_lpd self 1.0 + 0.5
    assert m["solvers.self_s"] == 4.5
    assert m["classify.evaluate_s"] == 1.0
    assert m["io.write_dataset_s"] == 2.0
    assert m["io.write_text_s"] == 0.25  # the write inside write_dataset_csv is not counted
    assert m["io.self_s"] == 4.25
    assert m["io.read_dataset_s"] == 2.0
    assert m["io.read_MBps"] == 2.0


def test_layer_metrics_of_no_spans_are_zero():
    m = spans.layer_metrics([])
    assert all(v == 0 for v in m.values())
    assert {f"{layer}.self_s" for layer in spans.LAYERS} <= set(m)
