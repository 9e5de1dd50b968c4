"""Command-line surface: fit, cv, predict, path, simulate, diagnose.

Every command is deterministic given its flags and seed; output files are
written atomically. Exit codes: 0 success, 2 usage/parse errors, 3 solver
non-convergence (a fit not ending optimal under --strict, or an LPD simplex
that ran out of pivots or whose proof of an empty box failed its check), 4
infeasible LPD, 5 a class smaller than the fold count, 6 model/data
dimension mismatch.
"""

import argparse
import json
import sys

import numpy as np

from . import io
from .classify import (
    NaiveBayesModel,
    build_model,
    naive_bayes_fit,
    predict_batch,
    pseudoinverse_lda_fit,
)
from .model import DirectionSet, group_norms, pooled_scatter, summarize
from .select import FoldSizeError, kfold_cv, lambda_grid, lambda_max, support_metrics
from .simulate import (
    CovarianceSummary,
    covariance_summary,
    delta_quadratic,
    event_d_check,
    cone_condition_check,
    sample,
    sim1_spec,
    sim2_spec,
)
from .solvers import LpInfeasibleError, LpNumericalError, fit_directions, hard_threshold

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOCONV = 3
EXIT_INFEASIBLE = 4
EXIT_SMALL_CLASS = 5
EXIT_DIM = 6

ESTIMATORS = ("grouped", "single", "lpd", "nbayes", "pinv")


class CommandError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _parse_grid(text):
    try:
        lmax_s, n_s, dec_s = text.split(":")
        return float(lmax_s), int(n_s), float(dec_s)
    except ValueError:
        raise CommandError(EXIT_PARSE, f"bad grid spec '{text}', expected lmax:n:decades") from None


def _grid_for(args, deltas):
    if args.lambda_grid is not None:
        lmax, n, dec = _parse_grid(args.lambda_grid)
        try:
            return lambda_grid(lmax, n, dec)
        except ValueError as exc:
            raise CommandError(EXIT_PARSE, str(exc)) from None
    return lambda_grid(lambda_max(deltas), 50, 3.0)


_NOCONV_REASONS = {
    "unbounded": "unbounded (no finite minimiser at this lambda)",
    "max_iter": "max_iter (iteration budget exhausted)",
}


def _check_converged(estimator, reports, strict):
    """Under --strict, a proximal-gradient fit that did not end optimal is an error."""
    if not strict:
        return
    for k, rep in enumerate(reports):
        if not rep.converged:
            which = "grouped solver" if estimator == "grouped" else f"single-direction solver {k + 1}"
            reason = _NOCONV_REASONS[rep.status]
            raise CommandError(EXIT_NOCONV, f"{which} did not converge: {reason}")


def cmd_fit(args):
    if args.lam is None and args.estimator not in ("nbayes", "pinv"):
        raise CommandError(EXIT_PARSE, f"--lambda is required for estimator {args.estimator}")
    if args.estimator != "nbayes" and not args.zeta >= 0:
        raise CommandError(EXIT_PARSE, "zeta must be nonnegative")
    data = io.read_dataset_csv(args.data)
    if args.estimator == "nbayes":
        model = naive_bayes_fit(data)
        io.write_model_file(args.out, model, "nbayes")
        print(f"estimator nbayes classes {model.n_classes} features {model.p}")
        print(f"written {args.out}")
        return EXIT_OK
    cs = summarize(data)
    S = pooled_scatter(data, cs)
    if args.estimator == "pinv":
        ds = pseudoinverse_lda_fit(S, cs)
        lines = ["solver pinv done"]
    else:
        ds, reports = fit_directions(args.estimator, S, cs.deltas, args.lam)
        _check_converged(args.estimator, reports, args.strict)
        if args.estimator == "lpd":
            lines = [f"solver lpd direction {k + 1} done" for k in range(ds.n_directions)]
        else:
            lines = []
            for k, rep in enumerate(reports):
                which = f" direction {k + 1}" if args.estimator == "single" else ""
                lines.append(
                    f"solver {args.estimator}{which} iterations {rep.iterations}"
                    f" converged {str(rep.converged).lower()} kkt {rep.kkt_residual:.3e}"
                    f" status {rep.status}"
                )
    ds = hard_threshold(ds, args.zeta)
    model = build_model(cs, ds)
    io.write_model_file(args.out, model, args.estimator)
    for ln in lines:
        print(ln)
    print(f"nonzero_rows {int(np.count_nonzero(group_norms(ds)))}")
    print(f"written {args.out}")
    return EXIT_OK


def cmd_cv(args):
    data = io.read_dataset_csv(args.data)
    grid = _grid_for(args, summarize(data).deltas)
    result = kfold_cv(data, grid, folds=args.folds, seed=args.seed)
    table = np.column_stack((result.lambdas, result.mean_errors, result.sd_errors))
    io.write_table(args.out, "lambda,mean_error,sd_error\n", table, f"# chosen_lambda,{io.fmt(result.chosen_lambda)}\n")
    print(f"chosen_lambda {io.fmt(result.chosen_lambda)}")
    print(f"written {args.out}")
    return EXIT_OK


def cmd_predict(args):
    model, _ = io.read_model_file(args.model)
    X, labels = io.read_feature_csv(args.data)
    if X.shape[1] != model.p:
        raise CommandError(EXIT_DIM, "model and data feature dimensions differ")
    pred = predict_batch(model, X)
    io.atomic_write_text(args.out, "label\n" + "\n".join(str(int(v)) for v in pred) + "\n")
    if labels is not None:
        err = float(np.mean(pred != labels))
        print(f"error_rate {io.fmt(err)}")
    print(f"written {args.out}")
    return EXIT_OK


def cmd_path(args):
    data = io.read_dataset_csv(args.data)
    cs = summarize(data)
    S = pooled_scatter(data, cs)
    grid = _grid_for(args, cs.deltas)
    rows, statuses = [], []
    for lam in grid.values:
        ds, reports = fit_directions(args.estimator, S, cs.deltas, float(lam))
        _check_converged(args.estimator, reports, args.strict)
        statuses += [rep.status for rep in reports] or ["optimal"] * ds.n_directions
        # one row per (direction, feature): lambda, direction, feature, coefficient, group norm
        block = np.empty((ds.n_directions, ds.p, 5))
        block[..., 0] = lam
        block[..., 1] = np.arange(1, ds.n_directions + 1)[:, None]
        block[..., 2] = np.arange(1, ds.p + 1)
        block[..., 3] = ds.matrix.T
        block[..., 4] = group_norms(ds)
        rows.append(block.reshape(-1, 5))
    io.write_table(args.out, "lambda,direction,feature,coefficient,group_norm\n", np.concatenate(rows))
    print(
        f"path: {len(statuses)} fits, {statuses.count('max_iter')} max_iter,"
        f" {statuses.count('unbounded')} unbounded",
        file=sys.stderr,
    )
    print(f"written {args.out}")
    return EXIT_OK


def cmd_simulate(args):
    if args.design == "sim1":
        spec = sim1_spec(args.seed)
    elif args.design == "sim2":
        spec = sim2_spec(args.seed)
    else:
        raise CommandError(EXIT_PARSE, f"unknown design '{args.design}'")
    data = sample(spec)
    io.write_dataset_csv(args.out, data.features, data.labels)
    B = spec.true_directions
    summary = covariance_summary(spec.sigma)
    payload = {
        "design": args.design,
        "seed": args.seed,
        "K": spec.n_classes,
        "p": spec.p,
        "n_per_class": [int(v) for v in spec.n_per_class],
        "true_directions": [[float(v) for v in row] for row in B.matrix],
        "support_per_direction": [
            [int(j) + 1 for j in B.column_support(k)] for k in range(B.n_directions)
        ],
        "support_joint": [int(j) + 1 for j in B.joint_support()],
        "sigma_summary": {
            "plus_min": summary.plus_min,
            "plus_max": summary.plus_max,
            "minus_max": summary.minus_max,
        },
        "delta": [delta_quadratic(spec.sigma, d) for d in spec.deltas()],
    }
    io.write_truth_file(args.truth_out, payload)
    print(f"written {args.out}")
    print(f"written {args.truth_out}")
    return EXIT_OK


def _read_truth(path):
    """The true directions, 0-based joint support and covariance summary of a truth sidecar."""
    truth = io.read_truth_file(path)
    if not isinstance(truth, dict):
        raise io.FormatError(f"{path}: not a truth file")
    try:
        B_true = DirectionSet(np.asarray(truth["true_directions"], dtype=float))
        support = truth["support_joint"]
        sig = CovarianceSummary(**{k: float(v) for k, v in truth["sigma_summary"].items()})
    except KeyError as exc:
        raise io.FormatError(f"{path}: missing {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise io.FormatError(f"{path}: {exc}") from None
    if not np.all(np.isfinite(B_true.matrix)):
        raise io.FormatError(f"{path}: true directions must be finite")
    if not isinstance(support, list) or not all(type(j) is int and 1 <= j <= B_true.p for j in support):
        raise io.FormatError(f"{path}: support entries must be integers in 1..{B_true.p}")
    return B_true, [j - 1 for j in support], sig


def cmd_diagnose(args):
    model, _ = io.read_model_file(args.model)
    if isinstance(model, NaiveBayesModel):
        raise CommandError(EXIT_PARSE, "diagnose needs a direction-based model")
    B_true, T, sig = _read_truth(args.truth)
    data = io.read_dataset_csv(args.data)
    est = model.directions
    if est.matrix.shape != B_true.matrix.shape or data.p != est.p:
        raise CommandError(EXIT_DIM, "model, truth and data dimensions differ")
    cs = summarize(data)
    S = pooled_scatter(data, cs)
    gap = est.matrix - B_true.matrix
    sup_err = float(np.linalg.norm(gap, axis=1).max())
    metrics = support_metrics(est, B_true, zeta=args.zeta)
    records = [
        {"metric": "cone_condition", "value": bool(cone_condition_check(est, B_true, T))},
        {"metric": "event_d", "value": bool(event_d_check(S, sig))},
        {"metric": "sup_group_error", "value": sup_err},
    ]
    for k in range(est.n_directions):
        records.append(
            {
                "metric": "linf_error",
                "direction": k + 1,
                "value": float(np.abs(gap[:, k]).max()),
            }
        )
    records.append(
        {
            "metric": "support",
            "zeta": args.zeta,
            "joint": {
                "tp": metrics.joint.tp,
                "fp": metrics.joint.fp,
                "fn": metrics.joint.fn,
                "exact": metrics.joint.exact,
            },
            "per_direction": [
                {"tp": c.tp, "fp": c.fp, "fn": c.fn, "exact": c.exact}
                for c in metrics.per_direction
            ],
        }
    )
    text = "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    io.atomic_write_text(args.out, text)
    print(f"written {args.out}")
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="glda",
        description="Grouped-lasso sparse multi-class linear discriminant analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit directions on a training CSV and save a model")
    p_fit.add_argument("data", help="training CSV (label,f1,...,fp)")
    p_fit.add_argument("--estimator", choices=ESTIMATORS, default="grouped")
    p_fit.add_argument("--lambda", dest="lam", type=float, default=None)
    p_fit.add_argument("--zeta", type=float, default=0.0)
    p_fit.add_argument("--strict", action="store_true")
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_cv = sub.add_parser("cv", help="cross-validate the grouped penalty level")
    p_cv.add_argument("data")
    p_cv.add_argument("--lambda-grid", dest="lambda_grid", default=None, metavar="LMAX:N:DECADES")
    p_cv.add_argument("--folds", type=int, default=5)
    p_cv.add_argument("--seed", type=int, default=0)
    p_cv.add_argument("--out", required=True)
    p_cv.set_defaults(func=cmd_cv)

    p_pred = sub.add_parser("predict", help="predict labels for a CSV with a saved model")
    p_pred.add_argument("model")
    p_pred.add_argument("data")
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_path = sub.add_parser("path", help="trace coefficients along a penalty grid")
    p_path.add_argument("data")
    p_path.add_argument("--estimator", choices=("grouped", "single", "lpd"), default="grouped")
    p_path.add_argument("--lambda-grid", dest="lambda_grid", default=None, metavar="LMAX:N:DECADES")
    p_path.add_argument("--strict", action="store_true")
    p_path.add_argument("--out", required=True)
    p_path.set_defaults(func=cmd_path)

    p_sim = sub.add_parser("simulate", help="write a synthetic dataset and its truth sidecar")
    p_sim.add_argument("design", help="sim1 or sim2")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--truth-out", dest="truth_out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_diag = sub.add_parser("diagnose", help="theory-side diagnostics of a fit against the truth")
    p_diag.add_argument("model")
    p_diag.add_argument("truth")
    p_diag.add_argument("data")
    p_diag.add_argument("--zeta", type=float, default=0.0)
    p_diag.add_argument("--out", required=True)
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except LpInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except LpNumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOCONV
    except FoldSizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SMALL_CLASS
    except FileNotFoundError as exc:
        print(f"error: cannot open {exc.filename}", file=sys.stderr)
        return EXIT_PARSE
    except (io.FormatError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
