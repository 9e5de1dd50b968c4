"""The three workloads, written once against a runner.

A runner executes one step at a time and reports how long it took:

* ``run.cli(argv)`` runs ``glda ARGV``;
* ``run.lib(name, **kwargs)`` runs the step ``name`` of lib.py and returns
  ``(result_dict, step)``.

A step has ``code``, ``out``, ``err`` and ``seconds``. The untraced runner
(run.py) starts a fresh process per step and times it from launch to exit;
the traced runner (traced.py) calls glda in its own process.

Each workload has ``setup`` (makes the inputs from the seed), ``round`` (the
timed operations, returning their times) and ``check`` (reads the last
round's outputs back; untimed). Every CLI command and every library fit is
one operation; ``Tally`` counts them and records why any failed.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

STUDY_SEEDS_PER_RUN = 5
CV_POINTS = 10
CV_DECADES = 3
CV_FOLDS = 5
DIAGNOSE_ZETA = 0.25
WIDE_LAMBDA_FRACTION = 0.25


@dataclass
class Step:
    code: int
    out: str
    err: str
    seconds: float

    def problem(self):
        """Why the step failed, or None."""
        return None if self.code == 0 else f"exit code {self.code}: {self.err.strip()[-300:]}"


class Tally:
    """Operations attempted and failed, and quality figures read from outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.quality = {}

    def op(self, label, problem=None):
        self.attempted += 1
        if problem:
            self.failures.append(f"{label}: {problem}")


def _command(run, tally, label, argv, expected=(0,)):
    """Run ``glda ARGV``; exit codes in ``expected`` are documented outcomes."""
    step = run.cli([str(a) for a in argv])
    tally.op(label, None if step.code in expected else step.problem())
    return step, step.code == 0


def _library(run, tally, label, name, **kwargs):
    result, step = run.lib(name, **kwargs)
    tally.op(label, step.problem())
    return result, step


def _verify(tally, label, check, *args):
    """Run an output check; a problem it raises marks the operation failed."""
    try:
        return check(*args)
    except (OSError, ValueError, IndexError, KeyError, StopIteration) as exc:
        tally.failures.append(f"{label}: {exc}")
        return None


def _printed(out, key):
    """Value printed on a ``key value`` line of a command's stdout, or None."""
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == key:
            return parts[1]
    return None


def _finite_floats(fields):
    vals = [float(v) for v in fields]
    if not all(math.isfinite(v) for v in vals):
        raise ValueError("non-finite value")
    return vals


def labels_of(csv_path):
    """Class labels of a dataset CSV (first column), read without numpy."""
    with open(csv_path, encoding="utf-8") as fh:
        next(fh)
        return [int(line.split(",", 1)[0]) for line in fh if line.strip()]


def check_cv(path, printed_lambda, n_points):
    """(chosen lambda, mean CV error at it) from a CV table."""
    lines = Path(path).read_text().splitlines()
    rows = [_finite_floats(ln.split(",")) for ln in lines[1:-1]]
    if lines[0] != "lambda,mean_error,sd_error" or len(rows) != n_points:
        raise ValueError("malformed CV table")
    if not lines[-1].startswith("# chosen_lambda,"):
        raise ValueError("CV table lacks the chosen lambda")
    chosen = float(lines[-1].split(",")[1])
    best = min(r[1] for r in rows)
    if not all(0.0 <= r[1] <= 1.0 for r in rows):
        raise ValueError("CV error outside [0, 1]")
    if chosen != max(r[0] for r in rows if r[1] == best):
        raise ValueError("chosen lambda is not the largest minimiser")
    if printed_lambda is None or float(printed_lambda) != chosen:
        raise ValueError("printed lambda differs from the table")
    return chosen, best


def check_path(path, n_points, n_directions, p):
    with open(path, encoding="utf-8") as fh:
        header = next(fh).strip()
        rows = [_finite_floats(ln.split(",")) for ln in fh if ln.strip()]
    if header != "lambda,direction,feature,coefficient,group_norm":
        raise ValueError("malformed path header")
    if len(rows) != n_points * n_directions * p:
        raise ValueError(f"path has {len(rows)} rows")
    if len({r[0] for r in rows}) != n_points:
        raise ValueError("path does not cover the grid")
    return True


def check_prediction(step, pred_path, labels, n_classes):
    """Error rate of a ``glda predict`` run on labelled data."""
    lines = Path(pred_path).read_text().split()
    pred = [int(v) for v in lines[1:]]
    if lines[0] != "label" or len(pred) != len(labels):
        raise ValueError("prediction file does not match the data")
    if not all(1 <= v <= n_classes for v in pred):
        raise ValueError("predicted label outside 1..K")
    err = sum(a != b for a, b in zip(pred, labels)) / len(labels)
    printed = _printed(step.out, "error_rate")
    if printed is None or abs(float(printed) - err) > 1e-12:
        raise ValueError(f"printed error rate {printed} differs from {err!r}")
    return err


def check_diagnose(path):
    records = [json.loads(ln) for ln in Path(path).read_text().splitlines()]
    metrics = {r["metric"] for r in records}
    if not {"cone_condition", "event_d", "sup_group_error", "linf_error", "support"} <= metrics:
        raise ValueError("diagnostics lack a record")
    values = [r["value"] for r in records if isinstance(r.get("value"), float)]
    if not all(math.isfinite(v) for v in values):
        raise ValueError("non-finite diagnostic")
    return True


def _grouped_converged(step):
    """The solver's own convergence flag, from ``glda fit`` output."""
    for line in step.out.splitlines():
        parts = line.split()
        if parts[:2] == ["solver", "grouped"] and "converged" in parts:
            return parts[parts.index("converged") + 1] == "true"
    return False


def _check_models(run, tally, train, models):
    result, step = run.lib("check_models", train=str(train), models=models)
    if step.code != 0:
        tally.failures.append(f"model check: {step.problem()}")
        return
    for problem in result["problems"]:
        # the operation was counted when the model was fitted
        tally.failures.append(f"model check: {problem}")


class Sim1Cli:
    """Design 1 through the command line: cv, path, fit, predict, diagnose."""

    name = "sim1-cli"
    P, K, PATH_POINTS = 200, 3, 50

    def setup(self, run, d, seed, tally):
        st = {"train": d / "train.csv", "truth": d / "truth.json", "test": d / "test.csv"}
        _command(run, tally, "simulate train", ["simulate", "sim1", "--seed", seed,
                                                "--out", st["train"], "--truth-out", st["truth"]])
        _command(run, tally, "simulate test", ["simulate", "sim1", "--seed", seed + 1,
                                               "--out", st["test"],
                                               "--truth-out", d / "test_truth.json"])
        res, _ = _library(run, tally, "lambda_max", "lambda_max_of", train=str(st["train"]))
        st["grid"] = f"{res['lambda_max']!r}:{CV_POINTS}:{CV_DECADES}" if res else "missing"
        return st

    def round(self, run, d, st, tally):
        t = {"cv_s": 0.0, "path_s": 0.0, "fit_s": 0.0, "predict_s": 0.0}
        cv_csv = d / "cv.csv"
        step, ok = _command(run, tally, "cv", ["cv", st["train"], "--lambda-grid", st["grid"],
                                               "--folds", CV_FOLDS, "--seed", 0, "--out", cv_csv])
        t["cv_s"] = step.seconds
        chosen = ok and _verify(tally, "cv", check_cv, cv_csv,
                                _printed(step.out, "chosen_lambda"), CV_POINTS)
        if not chosen:
            return {**t, "wall_s": t["cv_s"]}
        lam, tally.quality["cv_error"] = chosen
        tally.quality["chosen_lambda"] = lam

        step, ok = _command(run, tally, "path", ["path", st["train"], "--out", d / "path.csv"])
        t["path_s"] = step.seconds
        if ok:
            _verify(tally, "path", check_path, d / "path.csv", self.PATH_POINTS, self.K - 1, self.P)

        st["models"] = []
        for est in ("grouped", "single", "lpd"):
            out = d / f"model_{est}.txt"
            # exit 4 is the documented infeasible-LPD outcome, not a failure
            step, ok = _command(run, tally, f"fit {est}",
                                ["fit", st["train"], "--estimator", est,
                                 "--lambda", repr(lam), "--out", out],
                                expected=(0, 4) if est == "lpd" else (0,))
            t["fit_s"] += step.seconds
            if est == "lpd":
                tally.quality["lpd_infeasible"] = step.code == 4
            if ok:
                st["models"].append({"path": str(out), "estimator": est, "lam": lam,
                                     "converged": _grouped_converged(step)})
        grouped = d / "model_grouped.txt"
        step, ok = _command(run, tally, "predict", ["predict", grouped, st["test"],
                                                    "--out", d / "pred.csv"])
        t["predict_s"] = step.seconds
        if ok:
            tally.quality["test_error"] = _verify(tally, "predict", check_prediction, step,
                                                  d / "pred.csv", labels_of(st["test"]), self.K)
        step, ok = _command(run, tally, "diagnose", ["diagnose", grouped, st["truth"], st["train"],
                                                     "--zeta", DIAGNOSE_ZETA,
                                                     "--out", d / "diag.jsonl"])
        t["diagnose_s"] = step.seconds
        if ok:
            _verify(tally, "diagnose", check_diagnose, d / "diag.jsonl")
        t["wall_s"] = sum(t.values())
        return t

    def check(self, run, d, st, tally):
        _check_models(run, tally, st["train"], st.get("models", []))


class Sim1Recovery:
    """The criterion-5 support-recovery study as library calls."""

    name = "sim1-recovery"

    def setup(self, run, d, seed, tally):
        seeds = list(range(STUDY_SEEDS_PER_RUN * seed, STUDY_SEEDS_PER_RUN * (seed + 1)))
        _library(run, tally, "prepare study", "prepare_study", seeds=seeds)
        return {"seeds": seeds}

    def round(self, run, d, st, tally):
        res, step = run.lib("recovery_study", seeds=st["seeds"])
        if step.code != 0:
            tally.op("recovery study", step.problem())
            return {"wall_s": step.seconds, "study_s": step.seconds, "fit_s": 0.0}
        tally.attempted += res["attempted"]
        tally.failures.extend(res["failures"])
        for key in ("grouped_exact", "lpd_exact", "grouped_fits", "grouped_iters",
                    "grouped_maxiter", "lpd_infeasible_lambdas"):
            tally.quality[key] = res[key]
        # the study's own clock leaves out interpreter start-up and the checks
        return {"wall_s": res["study_s"], "study_s": res["study_s"], "fit_s": res["fit_s"]}

    def check(self, run, d, st, tally):
        pass  # the study checks every fit as it goes


class WideIo:
    """p=2000 CSVs: reads, writes, the wide scatter, pinv and scoring."""

    name = "wide-io"
    K = 3

    def setup(self, run, d, seed, tally):
        st = {"train": d / "train.csv", "test": d / "test.csv"}
        res, _ = _library(run, tally, "write inputs", "write_wide", train=str(st["train"]),
                          test=str(st["test"]), seed=seed)
        st["lam"] = WIDE_LAMBDA_FRACTION * res["lambda_max"] if res else 1.0
        return st

    def round(self, run, d, st, tally):
        t = {"fit_s": 0.0, "predict_s": 0.0}
        st["models"] = []
        for est in ("grouped", "single", "pinv", "nbayes"):
            out = d / f"model_{est}.txt"
            argv = ["fit", st["train"], "--estimator", est, "--out", out]
            if est in ("grouped", "single"):
                argv += ["--lambda", repr(st["lam"])]
            step, ok = _command(run, tally, f"fit {est}", argv)
            t["fit_s"] += step.seconds
            if ok:
                st["models"].append({"path": str(out), "estimator": est, "lam": st["lam"],
                                     "converged": _grouped_converged(step)})
        for est in ("grouped", "nbayes"):
            pred = d / f"pred_{est}.csv"
            step, ok = _command(run, tally, f"predict {est}",
                                ["predict", d / f"model_{est}.txt", st["test"], "--out", pred])
            t["predict_s"] += step.seconds
            if ok:
                if "labels" not in st:
                    st["labels"] = labels_of(st["test"])
                err = _verify(tally, f"predict {est}", check_prediction, step, pred,
                              st["labels"], self.K)
                if est == "grouped":
                    tally.quality["test_error"] = err
        t["wall_s"] = t["fit_s"] + t["predict_s"]
        return t

    def check(self, run, d, st, tally):
        _check_models(run, tally, st["train"], st.get("models", []))


WORKLOADS = {w.name: w for w in (Sim1Cli(), Sim1Recovery(), WideIo())}
