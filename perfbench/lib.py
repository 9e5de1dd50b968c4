"""Library-side steps of the benchmark: inputs, the recovery study, checks.

Each step is a function of JSON-able keyword arguments returning a dict.
``python3 perfbench/lib.py STEP 'JSON-KWARGS'`` runs one step in a fresh
process and prints its result as one JSON line; the traced run calls the
same functions in its own process. glda is reached through module
attributes at call time so the traced run's wrappers see every call.
"""

import json
import sys
import time

import numpy as np

from glda import io, model, select, simulate, solvers

# The grouped solver flags a run converged when its KKT residual, in units
# of max(|delta|_inf, lambda), is at most 1e-5.
KKT_TOL = 1e-5
# Slack on the LPD box |S b - delta|_inf <= lambda (the solver itself
# accepts rows within 1e-9 of the box).
LPD_TOL = 1e-8

STUDY_GRID = (2.5, 14, 0.8)
STUDY_ZETA = 0.25

WIDE_P = 2000
WIDE_TRAIN_PER_CLASS = 200
WIDE_TEST_PER_CLASS = 500


def env_info():
    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def lambda_max_of(train):
    cs = model.summarize(io.read_dataset_csv(train))
    return {"lambda_max": select.lambda_max(cs.deltas)}


def _wide_spec(n_per_class, seed):
    B = np.zeros((WIDE_P, 2))
    B[0:3, 0] = (-2.0, 3.0, 1.0)
    B[0:3, 1] = (1.0, -2.0, -1.2)
    return simulate.spec_from_directions(np.eye(WIDE_P), B, (n_per_class,) * 3, seed)


def write_wide(train, test, seed):
    """Design-1 directions under identity covariance at p=2000, as CSV files."""
    d = simulate.sample(_wide_spec(WIDE_TRAIN_PER_CLASS, seed))
    io.write_dataset_csv(train, d.features, d.labels)
    t = simulate.sample(_wide_spec(WIDE_TEST_PER_CLASS, seed + 1))
    io.write_dataset_csv(test, t.features, t.labels)
    return {"lambda_max": select.lambda_max(model.summarize(d).deltas)}


def prepare_study(seeds):
    """Draw every study dataset once so a bad design fails before timing."""
    for s in seeds:
        simulate.sample(simulate.sim1_spec(s))
    return {"datasets": len(seeds)}


def _grouped_problem(S, deltas, lam, ds, converged):
    """None if a grouped fit passes its checks, else the reason."""
    if not np.all(np.isfinite(ds.matrix)):
        return "non-finite coefficients"
    if converged:
        scale = max(float(np.abs(deltas).max()), lam)
        kkt = solvers.kkt_residual(S, deltas, lam, ds)
        if not kkt <= KKT_TOL * scale * 1.01:
            return f"reported converged with KKT residual {kkt:.3e}"
    return None


def _lpd_problem(S, delta, lam, beta):
    if not np.all(np.isfinite(beta)):
        return "non-finite coefficients"
    resid = float(np.abs(S.matrix @ beta - delta).max())
    if not resid <= lam + LPD_TOL * max(1.0, lam):
        return f"box violated: |S b - delta|_inf = {resid!r} > lambda = {lam!r}"
    return None


def recovery_study(seeds):
    """The criterion-5 study: grouped and LPD exact joint recovery per lambda."""
    grid = select.lambda_grid(*STUDY_GRID)
    target = {0, 1, 2}
    rec_grouped = [0] * len(grid)
    rec_lpd = [0] * len(grid)
    fits = maxiter = iterations = infeasible = 0
    failures = []
    fit_s = 0.0
    check_s = 0.0  # time spent in the benchmark's own checks, not in the study
    t0 = time.perf_counter()
    for seed in seeds:
        d = simulate.sample(simulate.sim1_spec(seed))
        cs = model.summarize(d)
        S = model.pooled_scatter(d, cs)
        for i, lam in enumerate(grid.values):
            lam = float(lam)
            fits += 1
            f0 = time.perf_counter()
            try:
                ds, rep = solvers.fit_grouped(S, cs.deltas, lam)
            except Exception as exc:  # any raise is a failed operation
                failures.append(f"seed {seed} grouped lambda {lam!r}: {exc!r}")
                continue
            finally:
                fit_s += time.perf_counter() - f0
            iterations += rep.iterations
            maxiter += not rep.converged
            c0 = time.perf_counter()
            why = _grouped_problem(S, cs.deltas, lam, ds, rep.converged)
            check_s += time.perf_counter() - c0
            if why:
                failures.append(f"seed {seed} grouped lambda {lam!r}: {why}")
            support = set(solvers.hard_threshold(ds, STUDY_ZETA).joint_support().tolist())
            rec_grouped[i] += support == target
            cols = []
            for k in range(cs.deltas.shape[0]):
                fits += 1
                f0 = time.perf_counter()
                try:
                    beta = solvers.fit_lpd(S, cs.deltas[k], lam)
                except solvers.LpInfeasibleError:
                    infeasible += 1
                    break
                except Exception as exc:
                    failures.append(f"seed {seed} lpd {k + 1} lambda {lam!r}: {exc!r}")
                    break
                finally:
                    fit_s += time.perf_counter() - f0
                c0 = time.perf_counter()
                why = _lpd_problem(S, cs.deltas[k], lam, beta)
                check_s += time.perf_counter() - c0
                if why:
                    failures.append(f"seed {seed} lpd {k + 1} lambda {lam!r}: {why}")
                cols.append(beta)
            else:
                lp = solvers.hard_threshold(model.DirectionSet(np.column_stack(cols)), STUDY_ZETA)
                rec_lpd[i] += set(lp.joint_support().tolist()) == target
    return {
        "study_s": time.perf_counter() - t0 - check_s,
        "fit_s": fit_s,
        "attempted": fits,
        "failures": failures,
        "grouped_fits": len(seeds) * len(grid),
        "grouped_iters": iterations,
        "grouped_maxiter": maxiter,
        "lpd_infeasible_lambdas": infeasible,
        "grouped_exact": max(rec_grouped),
        "lpd_exact": max(rec_lpd),
    }


def check_models(train, models):
    """Read each saved model back and check it against the training data.

    ``models`` holds dicts with ``path``, ``estimator``, ``lam`` (or None)
    and ``converged`` (the solver's own flag, grouped fits only). Returns
    the list of problems found.
    """
    d = io.read_dataset_csv(train)
    cs = model.summarize(d)
    S = model.pooled_scatter(d, cs)
    problems = []
    for m in models:
        fitted, estimator = io.read_model_file(m["path"])
        arrays = [fitted.means, fitted.priors,
                  fitted.variances if estimator == "nbayes" else fitted.directions.matrix]
        why = None
        if estimator != m["estimator"]:
            why = f"model file names estimator {estimator}"
        elif not all(np.all(np.isfinite(a)) for a in arrays):
            why = "non-finite model entries"
        elif estimator == "grouped":
            why = _grouped_problem(S, cs.deltas, m["lam"], fitted.directions, m["converged"])
        elif estimator == "lpd":
            for k in range(cs.deltas.shape[0]):
                why = why or _lpd_problem(S, cs.deltas[k], m["lam"], fitted.directions.column(k))
        if why:
            problems.append(f"{m['path']}: {why}")
    return {"problems": problems}


STEPS = {
    "env_info": env_info,
    "lambda_max_of": lambda_max_of,
    "write_wide": write_wide,
    "prepare_study": prepare_study,
    "recovery_study": recovery_study,
    "check_models": check_models,
}


def main(argv):
    result = STEPS[argv[0]](**json.loads(argv[1] if len(argv) > 1 else "{}"))
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
