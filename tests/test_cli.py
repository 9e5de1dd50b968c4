import json

import numpy as np
import pytest

from glda import io
from glda.cli import main
from glda.simulate import sample, spec_from_directions


def write_training_csv(path, seed=0, n_k=15, p=6, strength=3.0):
    B = np.zeros((p, 2))
    B[0, 0], B[1, 1] = strength, -strength
    spec = spec_from_directions(np.eye(p), B, (n_k, n_k, n_k), seed)
    d = sample(spec)
    io.write_dataset_csv(path, d.features, d.labels)
    return d


def test_fit_predict_round_trip(tmp_path):
    train = tmp_path / "train.csv"
    write_training_csv(train)
    model = tmp_path / "model.txt"
    assert main(["fit", str(train), "--estimator", "grouped", "--lambda", "0.5",
                 "--out", str(model)]) == 0
    pred = tmp_path / "pred.csv"
    assert main(["predict", str(model), str(train), "--out", str(pred)]) == 0
    lines = pred.read_text().strip().split("\n")
    assert lines[0] == "label"
    labels = np.array([int(v) for v in lines[1:]])
    d = io.read_dataset_csv(train)
    assert labels.shape == d.labels.shape
    assert 0.0 <= np.mean(labels != d.labels) <= 1.0


def test_fit_zero_model_at_lambda_max(tmp_path):
    train = tmp_path / "train.csv"
    write_training_csv(train, seed=5)
    from glda.model import summarize
    from glda.select import lambda_max

    cs = summarize(io.read_dataset_csv(train))
    model = tmp_path / "model.txt"
    assert main(["fit", str(train), "--lambda", str(2 * lambda_max(cs.deltas)),
                 "--out", str(model)]) == 0
    loaded, _ = io.read_model_file(model)
    assert np.all(loaded.directions.matrix == 0.0)


def test_fit_missing_file_exit2(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    assert main(["fit", str(missing), "--lambda", "1",
                 "--out", str(tmp_path / "m.txt")]) == 2
    assert f"cannot open {missing}" in capsys.readouterr().err

    train = tmp_path / "train.csv"
    write_training_csv(train)
    missing_model = tmp_path / "nope.txt"
    assert main(["predict", str(missing_model), str(train),
                 "--out", str(tmp_path / "p.csv")]) == 2
    assert f"cannot open {missing_model}" in capsys.readouterr().err

    out = tmp_path / "nodir" / "m.txt"
    assert main(["fit", str(train), "--lambda", "0.5", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot open {out}\n"


def test_fit_requires_lambda(tmp_path, capsys):
    train = tmp_path / "train.csv"
    write_training_csv(train)
    assert main(["fit", str(train), "--out", str(tmp_path / "m.txt")]) == 2
    capsys.readouterr()
    # the flag is checked before the data file is opened
    assert main(["fit", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.txt")]) == 2
    assert capsys.readouterr().err == "error: --lambda is required for estimator grouped\n"


@pytest.mark.parametrize("estimator", ["grouped", "single", "lpd"])
def test_fit_rejects_non_finite_lambda_exit2(tmp_path, capsys, estimator):
    train = tmp_path / "train.csv"
    write_training_csv(train)
    model = tmp_path / "m.txt"
    for lam in ("nan", "inf"):
        assert main(["fit", str(train), "--estimator", estimator, "--lambda", lam,
                     "--out", str(model)]) == 2
        assert "lambdas must be finite" in capsys.readouterr().err
        assert not model.exists()


def test_fit_non_finite_feature_exit2(tmp_path, capsys):
    train = tmp_path / "train.csv"
    write_training_csv(train)
    lines = train.read_text().split("\n")
    fields = lines[3].split(",")
    fields[2] = "nan"
    lines[3] = ",".join(fields)
    train.write_text("\n".join(lines))
    model = tmp_path / "m.txt"
    assert main(["fit", str(train), "--lambda", "0.5", "--out", str(model)]) == 2
    assert "non-finite value" in capsys.readouterr().err
    assert not model.exists()


def test_fit_negative_zeta_exit2(tmp_path, capsys):
    train = tmp_path / "train.csv"
    write_training_csv(train)
    model = tmp_path / "m.txt"
    for zeta in ("-1", "nan"):
        assert main(["fit", str(train), "--lambda", "0.5", "--zeta", zeta,
                     "--out", str(model)]) == 2
        assert "zeta must be nonnegative" in capsys.readouterr().err
        assert not model.exists()
    # the flag is checked before the data file is opened
    assert main(["fit", str(tmp_path / "nope.csv"), "--lambda", "0.5", "--zeta", "-1",
                 "--out", str(model)]) == 2
    assert capsys.readouterr().err == "error: zeta must be nonnegative\n"


def test_fit_all_estimators(tmp_path):
    train = tmp_path / "train.csv"
    write_training_csv(train)
    for est in ("grouped", "single", "lpd", "nbayes", "pinv"):
        out = tmp_path / f"{est}.txt"
        args = ["fit", str(train), "--estimator", est, "--out", str(out)]
        if est in ("grouped", "single", "lpd"):
            args += ["--lambda", "1.0"]
        assert main(args) == 0, est
        loaded, name = io.read_model_file(out)
        assert name == est


def test_fit_strict_nonconvergence_exit3(tmp_path):
    # N - K = 2 with p = 6: singular scatter and lam=0 cannot converge
    rng = np.random.default_rng(0)
    X = rng.normal(size=(5, 6))
    y = np.array([1, 1, 2, 2, 3])
    train = tmp_path / "train.csv"
    io.write_dataset_csv(train, X, y)
    code = main(["fit", str(train), "--lambda", "0.0", "--strict",
                 "--out", str(tmp_path / "m.txt")])
    assert code == 3


def _unbounded_at_zero_penalty(tmp_path):
    # the instance above: at lam=0 the grouped objective has no finite minimiser
    rng = np.random.default_rng(0)
    train = tmp_path / "train.csv"
    io.write_dataset_csv(train, rng.normal(size=(5, 6)), np.array([1, 1, 2, 2, 3]))
    return train


def test_fit_strict_names_the_unbounded_status(tmp_path, capsys):
    train = _unbounded_at_zero_penalty(tmp_path)
    model = tmp_path / "m.txt"
    for est in ("grouped", "single"):
        assert main(["fit", str(train), "--estimator", est, "--lambda", "0.0", "--strict",
                     "--out", str(model)]) == 3
        assert "did not converge: unbounded" in capsys.readouterr().err
        assert not model.exists()


def test_strict_names_the_max_iter_status():
    from glda.cli import CommandError, _check_converged
    from glda.solvers import SolverReport

    rep = SolverReport(5000, np.zeros(2), 1.0, "max_iter")
    _check_converged("grouped", [rep], strict=False)
    with pytest.raises(CommandError, match="did not converge: max_iter") as exc:
        _check_converged("grouped", [rep], strict=True)
    assert exc.value.code == 3


def test_fit_unbounded_without_strict_writes_a_finite_model(tmp_path, capsys):
    train = _unbounded_at_zero_penalty(tmp_path)
    model = tmp_path / "m.txt"
    assert main(["fit", str(train), "--lambda", "0.0", "--out", str(model)]) == 0
    out = capsys.readouterr().out
    solver = [ln for ln in out.splitlines() if ln.startswith("solver grouped")]
    assert len(solver) == 1
    assert " converged false kkt " in solver[0] and solver[0].endswith(" status unbounded")
    loaded, _ = io.read_model_file(model)
    assert np.all(np.isfinite(loaded.directions.matrix))


def test_path_reports_fit_statuses_on_stderr(tmp_path, capsys):
    train = _unbounded_at_zero_penalty(tmp_path)
    out = tmp_path / "path.csv"
    assert main(["path", str(train), "--lambda-grid", "1.0:5:2.0", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"written {out}\n"
    assert captured.err == "path: 5 fits, 0 max_iter, 4 unbounded\n"
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 5 * 2 * 6
    assert all(np.isfinite(float(v)) for r in rows for v in r.split(","))


@pytest.mark.parametrize(
    "estimator, code, err",
    [
        ("grouped", 3, "error: grouped solver did not converge: unbounded"
                       " (no finite minimiser at this lambda)\n"),
        ("single", 3, "error: single-direction solver 1 did not converge: unbounded"
                      " (no finite minimiser at this lambda)\n"),
        ("lpd", 4, "error: LPD infeasible at this lambda\n"),
    ],
    ids=["grouped", "single", "lpd"],
)
def test_path_strict_stops_at_the_first_uncertified_point(tmp_path, capsys, estimator, code, err):
    # design 1's default grid runs below the unbounded threshold, so a strict
    # path fails there and writes nothing
    data, out = tmp_path / "sim.csv", tmp_path / "path.csv"
    assert main(["simulate", "sim1", "--seed", "7", "--out", str(data),
                 "--truth-out", str(tmp_path / "truth.json")]) == 0
    capsys.readouterr()
    assert main(["path", str(data), "--estimator", estimator, "--strict", "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.err == err and captured.out == ""
    assert not out.exists()


def test_fit_lpd_infeasible_exit4(tmp_path):
    rng = np.random.default_rng(1)
    X = rng.normal(size=(6, 8))
    y = np.array([1, 1, 2, 2, 3, 3])
    train = tmp_path / "train.csv"
    io.write_dataset_csv(train, X, y)
    code = main(["fit", str(train), "--estimator", "lpd", "--lambda", "0.01",
                 "--out", str(tmp_path / "m.txt")])
    assert code == 4


def test_fit_lpd_simplex_failure_exit3(tmp_path, monkeypatch, capsys):
    from glda import solvers
    from glda.simplex import LpNumericalError

    def fail(lp, A, b):
        raise LpNumericalError("simplex did not terminate within the pivot budget")

    monkeypatch.setattr(solvers.InequalityLP, "append", fail)
    train = tmp_path / "train.csv"
    write_training_csv(train)
    out = tmp_path / "m.txt"
    code = main(["fit", str(train), "--estimator", "lpd", "--lambda", "0.1", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == "error: simplex did not terminate within the pivot budget\n"
    assert not out.exists()


def test_cv_outputs_and_tie_break(tmp_path):
    train = tmp_path / "train.csv"
    write_training_csv(train, seed=2)
    out = tmp_path / "cv.csv"
    assert main(["cv", str(train), "--lambda-grid", "3.0:6:1.5", "--folds", "3",
                 "--seed", "9", "--out", str(out)]) == 0
    text = out.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "lambda,mean_error,sd_error"
    assert lines[-1].startswith("# chosen_lambda,")
    rows = [ln.split(",") for ln in lines[1:-1]]
    assert len(rows) == 6
    lams = np.array([float(r[0]) for r in rows])
    means = np.array([float(r[1]) for r in rows])
    chosen = float(lines[-1].split(",")[1])
    assert chosen == lams[means == means.min()].max()


def test_cv_deterministic(tmp_path):
    train = tmp_path / "train.csv"
    write_training_csv(train, seed=3)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        assert main(["cv", str(train), "--lambda-grid", "2.0:5:1.0", "--folds", "3",
                     "--seed", "4", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cv_small_class_exit5(tmp_path, capsys):
    train = tmp_path / "train.csv"
    write_training_csv(train, n_k=5)
    assert main(["cv", str(train), "--lambda-grid", "1.0:3:1.0", "--folds", "6",
                 "--seed", "0", "--out", str(tmp_path / "cv.csv")]) == 5
    assert capsys.readouterr().err == "error: class 1 has fewer samples than fold count\n"


def test_cv_too_few_folds_exit2(tmp_path, capsys):
    train = tmp_path / "train.csv"
    write_training_csv(train)
    out = tmp_path / "cv.csv"
    for folds in ("1", "0"):
        assert main(["cv", str(train), "--lambda-grid", "1.0:3:1.0", "--folds", folds,
                     "--seed", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: need at least 2 folds, got {folds}\n"
        assert not out.exists()


@pytest.mark.parametrize("spec", ["inf:10:3", "nan:10:3", "1.0:10:inf"])
def test_cv_non_finite_grid_exit2(tmp_path, capsys, spec):
    train = tmp_path / "train.csv"
    write_training_csv(train)
    out = tmp_path / "cv.csv"
    assert main(["cv", str(train), "--lambda-grid", spec, "--folds", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: lmax and decades must be finite\n"
    assert not out.exists()


def test_predict_unlabeled_and_dimension_mismatch(tmp_path, capsys):
    train = tmp_path / "train.csv"
    write_training_csv(train)
    model = tmp_path / "model.txt"
    main(["fit", str(train), "--lambda", "0.5", "--out", str(model)])
    capsys.readouterr()

    test_unlabeled = tmp_path / "test.csv"
    io.write_dataset_csv(test_unlabeled, np.zeros((4, 6)))
    assert main(["predict", str(model), str(test_unlabeled),
                 "--out", str(tmp_path / "p.csv")]) == 0
    assert "error_rate" not in capsys.readouterr().out

    narrow = tmp_path / "narrow.csv"
    io.write_dataset_csv(narrow, np.zeros((4, 3)))
    assert main(["predict", str(model), str(narrow),
                 "--out", str(tmp_path / "p2.csv")]) == 6


def test_predict_empty_file_exit2(tmp_path):
    train = tmp_path / "train.csv"
    write_training_csv(train)
    model = tmp_path / "model.txt"
    main(["fit", str(train), "--lambda", "0.5", "--out", str(model)])
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert main(["predict", str(model), str(empty),
                 "--out", str(tmp_path / "p.csv")]) == 2


def test_predict_non_finite_model_exit2(tmp_path, capsys):
    train = tmp_path / "train.csv"
    write_training_csv(train)
    model = tmp_path / "model.txt"
    assert main(["fit", str(train), "--lambda", "0.5", "--out", str(model)]) == 0
    lines = model.read_text().split("\n")
    row = lines.index("means") + 2
    lines[row] = " ".join("nan" for _ in lines[row].split())
    model.write_text("\n".join(lines))
    capsys.readouterr()
    pred = tmp_path / "p.csv"
    assert main(["predict", str(model), str(train), "--out", str(pred)]) == 2
    assert capsys.readouterr().err == f"error: {model}: model entries must be finite\n"
    assert not pred.exists()


def test_path_file_shape_and_zero_block(tmp_path):
    train = tmp_path / "train.csv"
    write_training_csv(train, seed=4)
    from glda.model import summarize
    from glda.select import lambda_max

    cs = summarize(io.read_dataset_csv(train))
    lmax = lambda_max(cs.deltas)
    out = tmp_path / "path.csv"
    assert main(["path", str(train), "--lambda-grid", f"{lmax}:4:1.0",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "lambda,direction,feature,coefficient,group_norm"
    body = [ln.split(",") for ln in lines[1:]]
    assert len(body) == 4 * 2 * 6  # grid x directions x features
    top = [r for r in body if float(r[0]) == pytest.approx(lmax)]
    assert all(float(r[3]) == 0.0 for r in top)


def test_path_writes_no_negative_zero(tmp_path):
    # the proximal step zeroes entries by multiplying by 0.0, which keeps the
    # sign of a negative entry; design 1 at seed 41 has such entries on its
    # default grouped path, and DirectionSet must store them as +0.0
    data, out = tmp_path / "sim.csv", tmp_path / "path.csv"
    assert main(["simulate", "sim1", "--seed", "41", "--out", str(data),
                 "--truth-out", str(tmp_path / "truth.json")]) == 0
    assert main(["path", str(data), "--out", str(out)]) == 0
    fields = [f for line in out.read_text().split("\n")[1:] for f in line.split(",")]
    zeros = [f for f in fields if f and float(f) == 0.0]
    assert zeros and not any(f.startswith("-") for f in zeros)


@pytest.mark.parametrize("estimator", ["single", "lpd"])
def test_path_matches_fit_directions(tmp_path, estimator):
    from glda.model import pooled_scatter, summarize
    from glda.select import lambda_grid, lambda_max
    from glda.solvers import fit_directions

    train = tmp_path / "train.csv"
    d = write_training_csv(train)
    cs = summarize(d)
    S = pooled_scatter(d, cs)
    lmax = lambda_max(cs.deltas)
    out = tmp_path / "path.csv"
    # every point of this grid is LPD-feasible on this data
    assert main(["path", str(train), "--estimator", estimator,
                 "--lambda-grid", f"{lmax!r}:4:1.0", "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
    grid = lambda_grid(lmax, 4, 1.0).values
    assert len(rows) == grid.size * 2 * 6
    for i, lam in enumerate(grid):
        ds, _ = fit_directions(estimator, S, cs.deltas, float(lam))
        block = rows[i * 12:(i + 1) * 12]
        assert all(float(r[0]) == lam for r in block)
        got = np.array([float(r[3]) for r in block]).reshape(2, 6).T
        assert np.array_equal(got, ds.matrix)
    assert np.any(got != 0.0)


def test_fit_nbayes_predict_round_trip(tmp_path, capsys):
    train = tmp_path / "train.csv"
    write_training_csv(train)
    model = tmp_path / "nb.txt"
    assert main(["fit", str(train), "--estimator", "nbayes", "--out", str(model)]) == 0
    pred = tmp_path / "pred.csv"
    assert main(["predict", str(model), str(train), "--out", str(pred)]) == 0
    out = capsys.readouterr().out
    assert "error_rate" in out


def test_fit_sim1_at_theoretical_lambda(tmp_path):
    import math

    from glda.simulate import delta_quadratic, sim1_spec
    from glda.solvers import (
        TheoreticalLambdaParams,
        pi_bar_from_priors,
        theoretical_lambda,
    )

    data = tmp_path / "sim.csv"
    truth = tmp_path / "truth.json"
    assert main(["simulate", "sim1", "--seed", "4", "--out", str(data),
                 "--truth-out", str(truth)]) == 0
    spec = sim1_spec(4)
    lam = theoretical_lambda(TheoreticalLambdaParams(
        sigma_max_plus=1.0,
        delta_total=sum(delta_quadratic(spec.sigma, dd) for dd in spec.deltas()),
        K=3, N=60, pi_bar=pi_bar_from_priors([1 / 3] * 3), t=math.log(200),
    ))
    model = tmp_path / "model.txt"
    assert main(["fit", str(data), "--lambda", repr(lam), "--zeta", "0.25",
                 "--out", str(model)]) == 0
    loaded, _ = io.read_model_file(model)
    nnz_rows = int(np.count_nonzero(np.linalg.norm(loaded.directions.matrix, axis=1)))
    assert nnz_rows <= loaded.p


def test_path_feature12_zero_at_cv_lambda(tmp_path):
    # reference seeded design-1 run: the noise feature 12 carries no weight
    # at the cross-validated penalty
    data = tmp_path / "sim.csv"
    truth = tmp_path / "truth.json"
    main(["simulate", "sim1", "--seed", "7", "--out", str(data),
          "--truth-out", str(truth)])
    from glda.model import summarize
    from glda.select import lambda_max

    cs = summarize(io.read_dataset_csv(data))
    grid_spec = f"{lambda_max(cs.deltas)}:8:1.2"
    cv_out = tmp_path / "cv.csv"
    assert main(["cv", str(data), "--lambda-grid", grid_spec, "--folds", "5",
                 "--seed", "7", "--out", str(cv_out)]) == 0
    chosen = float(cv_out.read_text().strip().split("\n")[-1].split(",")[1])
    path_out = tmp_path / "path.csv"
    assert main(["path", str(data), "--lambda-grid", grid_spec,
                 "--out", str(path_out)]) == 0
    rows = [ln.split(",") for ln in path_out.read_text().strip().split("\n")[1:]]
    at_chosen = [r for r in rows if float(r[0]) == chosen and int(r[2]) == 12]
    assert at_chosen and all(float(r[4]) == 0.0 for r in at_chosen)


def test_simulate_outputs(tmp_path):
    out, truth = tmp_path / "sim.csv", tmp_path / "truth.json"
    assert main(["simulate", "sim1", "--seed", "7", "--out", str(out),
                 "--truth-out", str(truth)]) == 0
    d = io.read_dataset_csv(out)
    assert d.n_samples == 60 and d.p == 200
    payload = json.loads(truth.read_text())
    assert payload["support_joint"] == [1, 2, 3]
    assert payload["delta"] == [pytest.approx(14.0), pytest.approx(6.44)]

    out2, truth2 = tmp_path / "sim2.csv", tmp_path / "truth2.json"
    assert main(["simulate", "sim2", "--seed", "1", "--out", str(out2),
                 "--truth-out", str(truth2)]) == 0
    assert json.loads(truth2.read_text())["support_joint"] == [1, 2, 3, 4]


def test_simulate_deterministic(tmp_path):
    a1, t1 = tmp_path / "a1.csv", tmp_path / "t1.json"
    a2, t2 = tmp_path / "a2.csv", tmp_path / "t2.json"
    main(["simulate", "sim1", "--seed", "3", "--out", str(a1), "--truth-out", str(t1)])
    main(["simulate", "sim1", "--seed", "3", "--out", str(a2), "--truth-out", str(t2)])
    assert a1.read_bytes() == a2.read_bytes()
    assert t1.read_bytes() == t2.read_bytes()


def test_simulate_unknown_design_exit2(tmp_path):
    assert main(["simulate", "sim9", "--seed", "0", "--out", str(tmp_path / "x.csv"),
                 "--truth-out", str(tmp_path / "t.json")]) == 2


def test_diagnose_true_model_and_zero_model(tmp_path):
    data, truth = tmp_path / "sim.csv", tmp_path / "truth.json"
    main(["simulate", "sim1", "--seed", "5", "--out", str(data),
          "--truth-out", str(truth)])
    payload = json.loads(truth.read_text())
    B = np.asarray(payload["true_directions"])
    d = io.read_dataset_csv(data)
    from glda.classify import ClassifierModel
    from glda.model import DirectionSet, summarize

    cs = summarize(d)
    model_true = tmp_path / "true_model.txt"
    io.write_model_file(
        model_true,
        ClassifierModel(directions=DirectionSet(B), means=cs.means, priors=cs.priors),
        "grouped",
    )
    out = tmp_path / "diag.jsonl"
    assert main(["diagnose", str(model_true), str(truth), str(data),
                 "--zeta", "0.25", "--out", str(out)]) == 0
    records = [json.loads(ln) for ln in out.read_text().strip().split("\n")]
    by_metric = {r["metric"]: r for r in records}
    assert by_metric["cone_condition"]["value"] is True
    assert by_metric["sup_group_error"]["value"] == 0.0
    assert by_metric["support"]["joint"]["exact"] is True

    model_zero = tmp_path / "zero_model.txt"
    io.write_model_file(
        model_zero,
        ClassifierModel(directions=DirectionSet(np.zeros_like(B)), means=cs.means,
                        priors=cs.priors),
        "grouped",
    )
    out2 = tmp_path / "diag2.jsonl"
    assert main(["diagnose", str(model_zero), str(truth), str(data),
                 "--zeta", "0.25", "--out", str(out2)]) == 0
    records = [json.loads(ln) for ln in out2.read_text().strip().split("\n")]
    support = next(r for r in records if r["metric"] == "support")
    assert support["joint"]["fn"] == 3 and support["joint"]["fp"] == 0


def test_diagnose_missing_truth_exit2(tmp_path):
    data = tmp_path / "sim.csv"
    truth = tmp_path / "truth.json"
    main(["simulate", "sim1", "--seed", "2", "--out", str(data),
          "--truth-out", str(truth)])
    model = tmp_path / "m.txt"
    main(["fit", str(data), "--lambda", "1.5", "--out", str(model)])
    assert main(["diagnose", str(model), str(tmp_path / "missing.json"), str(data),
                 "--zeta", "0.1", "--out", str(tmp_path / "d.jsonl")]) == 2


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda t: {}, "missing 'true_directions'"),
        (lambda t: [t], "not a truth file"),
        (lambda t: {**t, "support_joint": [999]}, "support entries must be integers in 1..200"),
        (lambda t: {**t, "support_joint": [0]}, "support entries must be integers in 1..200"),
        (
            lambda t: {**t, "true_directions": [[np.nan, 0.0]] + t["true_directions"][1:]},
            "true directions must be finite",
        ),
        (
            lambda t: {**t, "sigma_summary": {**t["sigma_summary"], "plus_min": np.nan}},
            "covariance summary must be finite",
        ),
    ],
    ids=["empty-object", "list", "support-above-p", "support-zero", "nan-direction", "nan-sigma"],
)
def test_diagnose_malformed_truth_exit2(tmp_path, capsys, edit, reason):
    data, truth = tmp_path / "sim.csv", tmp_path / "truth.json"
    main(["simulate", "sim1", "--seed", "2", "--out", str(data), "--truth-out", str(truth)])
    model = tmp_path / "m.txt"
    main(["fit", str(data), "--estimator", "pinv", "--out", str(model)])
    truth.write_text(json.dumps(edit(json.loads(truth.read_text()))))
    capsys.readouterr()
    out = tmp_path / "d.jsonl"
    assert main(["diagnose", str(model), str(truth), str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {truth}: {reason}\n"
    assert not out.exists()


def test_diagnose_end_to_end_positive_error(tmp_path):
    data, truth = tmp_path / "sim.csv", tmp_path / "truth.json"
    main(["simulate", "sim1", "--seed", "9", "--out", str(data),
          "--truth-out", str(truth)])
    model = tmp_path / "m.txt"
    assert main(["fit", str(data), "--lambda", "1.3", "--out", str(model)]) == 0
    out = tmp_path / "diag.jsonl"
    assert main(["diagnose", str(model), str(truth), str(data),
                 "--zeta", "0.25", "--out", str(out)]) == 0
    records = [json.loads(ln) for ln in out.read_text().strip().split("\n")]
    sup_err = next(r for r in records if r["metric"] == "sup_group_error")["value"]
    assert np.isfinite(sup_err) and sup_err > 0
