"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The whole module is
seeded and deterministic; the slow simulation criteria stay within their
stated runtime budgets on a desktop-class machine.
"""

import itertools
import math

import numpy as np

from glda import io
from glda.cli import main
from glda.classify import ClassifierModel, predict_batch
from glda.model import Dataset, DirectionSet, pooled_scatter, summarize
from glda.select import lambda_grid
from glda.simulate import (
    bayes_error_binary,
    delta_quadratic,
    sample,
    sim1_spec,
    sim2_spec,
    spec_from_directions,
)
from glda.solvers import (
    LpInfeasibleError,
    TheoreticalLambdaParams,
    fit_grouped,
    fit_lpd,
    fit_single_lasso,
    group_prox,
    hard_threshold,
    kkt_residual,
    pi_bar_from_priors,
    theoretical_lambda,
)


def _report(num, name, ok, detail=""):
    tail = f" - {detail}" if detail else ""
    print(f"\n[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def grouped_objective(S, D, lam, M):
    lam = np.broadcast_to(np.asarray(lam, float), (M.shape[0],))
    return (
        0.5 * np.sum(M * (S @ M))
        - np.sum(D.T * M)
        + np.sum(lam * np.linalg.norm(M, axis=1))
    )


# -----------------------------------------------------------------------
# 1. prox against an independent numeric minimizer
# -----------------------------------------------------------------------


def _prox_numeric_oracle(x, lam):
    from scipy.optimize import minimize

    x = np.asarray(x, dtype=float)

    def fg(v):
        nv = np.linalg.norm(v)
        f = 0.5 * np.sum((v - x) ** 2) + lam * nv
        g = (v - x) + (lam * v / nv if nv > 0 else 0.0)
        return f, g

    res = minimize(fg, x, jac=True, method="L-BFGS-B",
                   options={"ftol": 1e-18, "gtol": 1e-14, "maxiter": 1000})
    if 0.5 * np.sum(x * x) <= res.fun:
        return np.zeros_like(x)
    return res.x


def test_criterion_01_prox_oracle():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 9))
        x = rng.normal(scale=rng.uniform(0.1, 5.0), size=m)
        lam = rng.uniform(0.0, 2.0) * np.linalg.norm(x)
        gap = np.abs(group_prox(x, lam) - _prox_numeric_oracle(x, lam)).max()
        worst = max(worst, gap)
    assert _report(1, "prox oracle", worst < 1e-6, f"max linf gap {worst:.2e}")


# -----------------------------------------------------------------------
# 2. grouped-solver optimality
# -----------------------------------------------------------------------


def test_criterion_02_grouped_optimality():
    rng = np.random.default_rng(200)
    worst_kkt = 0.0
    beaten = True
    for _ in range(50):
        p = int(rng.integers(2, 21))
        kp = int(rng.integers(1, 4))
        n = 2 * p
        A = rng.normal(size=(n, p))
        S = A.T @ A / n + 0.1 * np.eye(p)
        D = rng.normal(size=(kp, p))
        lam = rng.uniform(0.05, 0.8)
        ds, rep = fit_grouped(S, D, lam)
        worst_kkt = max(worst_kkt, kkt_residual(S, D, lam, ds))
        f_hat = grouped_objective(S, D, lam, ds.matrix)
        for _ in range(200):
            pert = ds.matrix + rng.normal(scale=rng.uniform(1e-4, 0.5), size=ds.matrix.shape)
            if grouped_objective(S, D, lam, pert) < f_hat - 1e-10:
                beaten = False
    ok = beaten and worst_kkt <= 1e-5
    assert _report(2, "grouped optimality", ok,
                   f"max kkt {worst_kkt:.2e}, perturbations never improve: {beaten}")


# -----------------------------------------------------------------------
# 3. K=2 reduction of the grouped estimator to the single lasso
# -----------------------------------------------------------------------


def test_criterion_03_k2_reduction():
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(20):
        p = int(rng.integers(2, 15))
        n = 3 * p
        A = rng.normal(size=(n, p))
        S = A.T @ A / n + 0.1 * np.eye(p)
        delta = rng.normal(size=p)
        lam = rng.uniform(0.02, 0.7)
        ds, _ = fit_grouped(S, delta[None, :], lam)
        beta, _ = fit_single_lasso(S, delta, lam)
        worst = max(worst, float(np.abs(ds.matrix[:, 0] - beta).max()))
    assert _report(3, "K=2 reduction", worst < 1e-4, f"max linf gap {worst:.2e}")


# -----------------------------------------------------------------------
# 4. LPD against an exhaustive vertex-enumeration oracle
# -----------------------------------------------------------------------


def _lpd_vertex_oracle(S, d, lam):
    p = d.size
    best = np.inf
    if np.abs(d).max() <= lam + 1e-12:
        best = 0.0
    for f in range(1, p + 1):
        for free in itertools.combinations(range(p), f):
            for rows in itertools.combinations(range(p), f):
                block = S[np.ix_(rows, free)]
                for signs in itertools.product((-1.0, 1.0), repeat=f):
                    rhs = d[list(rows)] + lam * np.asarray(signs)
                    try:
                        sol = np.linalg.solve(block, rhs)
                    except np.linalg.LinAlgError:
                        break
                    beta = np.zeros(p)
                    beta[list(free)] = sol
                    if np.abs(S @ beta - d).max() <= lam * (1 + 1e-9) + 1e-9:
                        best = min(best, float(np.abs(beta).sum()))
    return best


def test_criterion_04_lpd_vertex_oracle():
    rng = np.random.default_rng(400)
    worst_gap = 0.0
    feasible_always = True
    for _ in range(50):
        p = int(rng.integers(1, 5))
        A = rng.normal(size=(3 * p, p))
        S = A.T @ A / (3 * p) + 0.3 * np.eye(p)
        d = 2.0 * rng.normal(size=p)
        lam = rng.uniform(0.2, 1.2)
        beta = fit_lpd(S, d, lam)
        if np.abs(S @ beta - d).max() > lam + 1e-8:
            feasible_always = False
        worst_gap = max(worst_gap, abs(np.abs(beta).sum() - _lpd_vertex_oracle(S, d, lam)))
    ok = worst_gap <= 1e-8 and feasible_always
    assert _report(4, "LPD vertex oracle", ok,
                   f"max objective gap {worst_gap:.2e}, always feasible: {feasible_always}")


# -----------------------------------------------------------------------
# 5. design-1 support recovery, grouped vs per-direction LPD
# -----------------------------------------------------------------------


def test_criterion_05_sim1_support_recovery():
    grid = lambda_grid(2.5, 14, 0.8)
    target = {0, 1, 2}
    zeta = 0.25
    n_seeds = 50
    rec_grouped = np.zeros(len(grid), dtype=int)
    rec_lpd = np.zeros(len(grid), dtype=int)
    supports = [[] for _ in grid.values]  # each grid point's grouped support, seed by seed
    for seed in range(n_seeds):
        d = sample(sim1_spec(seed))
        cs = summarize(d)
        S = pooled_scatter(d, cs)
        for i, lam in enumerate(grid.values):
            ds, _ = fit_grouped(S, cs.deltas, float(lam))
            sup = set(hard_threshold(ds, zeta).joint_support().tolist())
            supports[i].append(sup)
            rec_grouped[i] += sup == target
            try:
                cols = [fit_lpd(S, cs.deltas[k], float(lam)) for k in range(2)]
            except LpInfeasibleError:
                continue
            lp = hard_threshold(DirectionSet(np.column_stack(cols)), zeta)
            rec_lpd[i] += set(lp.joint_support().tolist()) == target
    best = int(np.argmax(rec_grouped))
    best_grouped = int(rec_grouped[best])
    best_lpd = int(rec_lpd.max())
    # what the seeds that fail at the best grouped lambda get wrong
    failing = [sup for sup in supports[best] if sup != target]
    lost = {j + 1: sum(j not in sup for sup in failing) for j in sorted(target)}
    kept_false = sum(bool(sup - target) for sup in failing)
    clause1 = best_grouped >= int(0.8 * n_seeds)
    clause2 = best_grouped >= best_lpd
    ok = clause1 and clause2
    assert _report(
        5,
        "design-1 exact joint recovery",
        ok,
        f"grouped best {best_grouped}/{n_seeds} (need >= {int(0.8 * n_seeds)}), "
        f"lpd best {best_lpd}/{n_seeds}, grouped >= lpd: {clause2}; "
        f"at lambda {grid.values[best]:.4g} the {len(failing)} failing seeds lost true (1-based) "
        f"{', '.join(f'feature {j} on {n} seed(s)' for j, n in lost.items() if n)}, "
        f"and {kept_false} of them kept a false one",
    )


# -----------------------------------------------------------------------
# 6. design-2 feature ranking by per-feature group norm
# -----------------------------------------------------------------------


def test_criterion_06_sim2_top4_ranking():
    # sweep the penalty path per seed and ask whether some penalty level
    # ranks the four informative features on top (Figure-3-style check)
    grid = lambda_grid(2.4, 40, math.log10(2.4 / 0.4))
    target = {0, 1, 2, 3}
    hits = 0
    n_seeds = 20
    for seed in range(n_seeds):
        d = sample(sim2_spec(seed))
        cs = summarize(d)
        S = pooled_scatter(d, cs)
        for lam in grid.values:
            ds, _ = fit_grouped(S, cs.deltas, float(lam))
            gn = np.linalg.norm(ds.matrix, axis=1)
            order = np.argsort(-gn)
            if gn[order[3]] > 0 and set(order[:4].tolist()) == target:
                hits += 1
                break
    ok = hits >= int(0.7 * n_seeds)
    assert _report(6, "design-2 top-4 ranking", ok,
                   f"{hits}/{n_seeds} seeds (need >= {int(0.7 * n_seeds)})")


# -----------------------------------------------------------------------
# 7. binary error rate against the closed-form Bayes error
# -----------------------------------------------------------------------


def test_criterion_07_bayes_error_sanity():
    rng = np.random.default_rng(700)
    p = 4
    mu1 = np.zeros(p)
    mu2 = np.array([2.0, 0.0, 0.0, 0.0])  # Delta = 4 under identity covariance
    beta = (mu1 - mu2)[:, None]
    model = ClassifierModel(
        directions=DirectionSet(beta),
        means=np.vstack([mu1, mu2]),
        priors=np.array([0.5, 0.5]),
    )
    n = 50000
    X = np.vstack([
        mu1 + rng.standard_normal((n, p)),
        mu2 + rng.standard_normal((n, p)),
    ])
    y = np.concatenate([np.ones(n, dtype=int), np.full(n, 2)])
    err = float(np.mean(predict_batch(model, X) != y))
    expect = bayes_error_binary(4.0)
    ok = abs(err - expect) <= 0.01
    assert _report(7, "binary Bayes-error sanity", ok,
                   f"empirical {err:.4f} vs closed form {expect:.4f}")


# -----------------------------------------------------------------------
# 8. error rate scales like 1/sqrt(N - K)
# -----------------------------------------------------------------------


def test_criterion_08_rate_scaling():
    base = sim1_spec(0)
    sigma = base.sigma
    B = base.true_directions
    delta_total = sum(delta_quadratic(sigma, dd) for dd in base.deltas())
    pibar = pi_bar_from_priors([1 / 3, 1 / 3, 1 / 3])
    medians = {}
    for n_k in (20, 80):
        N = 3 * n_k
        lam = theoretical_lambda(TheoreticalLambdaParams(
            sigma_max_plus=1.0, delta_total=delta_total, K=3, N=N,
            pi_bar=pibar, t=math.log(max(200, N)),
        ))
        errs = []
        for seed in range(20):
            spec = spec_from_directions(sigma, B, (n_k,) * 3, seed)
            d = sample(spec)
            cs = summarize(d)
            S = pooled_scatter(d, cs)
            ds, _ = fit_grouped(S, cs.deltas, lam)
            errs.append(float(np.linalg.norm(ds.matrix - B.matrix, axis=1).max()))
        medians[N] = float(np.median(errs))
    ratio = medians[240] / medians[60]
    ok = 0.35 <= ratio <= 0.7
    assert _report(8, "1/sqrt(N-K) rate scaling", ok,
                   f"median sup error {medians[60]:.3f} @N=60, {medians[240]:.3f} @N=240, "
                   f"ratio {ratio:.3f}")


# -----------------------------------------------------------------------
# 9. end-to-end cv -> fit -> predict on a strongly separated 4-class problem
# -----------------------------------------------------------------------


def test_criterion_09_end_to_end_cli(tmp_path):
    p, K = 500, 4
    B = np.zeros((p, K - 1))
    for k in range(K - 1):
        B[k, k] = 5.0  # Delta_k = 25 >= 16 under identity covariance
    train_spec = spec_from_directions(np.eye(p), B, (60,) * K, seed=900)
    test_spec = spec_from_directions(np.eye(p), B, (500,) * K, seed=901)
    train, test = sample(train_spec), sample(test_spec)
    for k in range(K - 1):
        assert delta_quadratic(np.eye(p), train_spec.deltas()[k]) >= 16.0

    train_csv = tmp_path / "train.csv"
    test_csv = tmp_path / "test.csv"
    io.write_dataset_csv(train_csv, train.features, train.labels)
    io.write_dataset_csv(test_csv, test.features, test.labels)

    cv_out = tmp_path / "cv.csv"
    assert main(["cv", str(train_csv), "--lambda-grid", "6.0:8:1.2", "--folds", "5",
                 "--seed", "7", "--out", str(cv_out)]) == 0
    chosen = float(cv_out.read_text().strip().split("\n")[-1].split(",")[1])

    model_out = tmp_path / "model.txt"
    assert main(["fit", str(train_csv), "--estimator", "grouped",
                 "--lambda", repr(chosen), "--out", str(model_out)]) == 0

    pred_out = tmp_path / "pred.csv"
    assert main(["predict", str(model_out), str(test_csv), "--out", str(pred_out)]) == 0
    pred = np.array([int(v) for v in pred_out.read_text().strip().split("\n")[1:]])
    err = float(np.mean(pred != test.labels))
    ok = err <= 0.05
    assert _report(9, "end-to-end cv/fit/predict", ok,
                   f"test error {err:.4f} at cv lambda {chosen:.4f}")


# -----------------------------------------------------------------------
# 10. byte-identical CLI re-runs
# -----------------------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path):
    def run_all(root):
        root.mkdir()
        sim = root / "sim1.csv"
        truth = root / "truth1.json"
        main(["simulate", "sim1", "--seed", "11", "--out", str(sim),
              "--truth-out", str(truth)])
        sim2 = root / "sim2.csv"
        truth2 = root / "truth2.json"
        main(["simulate", "sim2", "--seed", "3", "--out", str(sim2),
              "--truth-out", str(truth2)])
        model = root / "model.txt"
        main(["fit", str(sim), "--estimator", "grouped", "--lambda", "1.3",
              "--zeta", "0.25", "--out", str(model)])
        pred = root / "pred.csv"
        main(["predict", str(model), str(sim), "--out", str(pred)])
        diag = root / "diag.jsonl"
        main(["diagnose", str(model), str(truth), str(sim), "--zeta", "0.25",
              "--out", str(diag)])

        rng = np.random.default_rng(5)
        small = Dataset(rng.normal(size=(30, 5)), np.array([1, 2, 3] * 10))
        small_csv = root / "small.csv"
        io.write_dataset_csv(small_csv, small.features, small.labels)
        cv = root / "cv.csv"
        main(["cv", str(small_csv), "--lambda-grid", "2.0:5:1.0", "--folds", "3",
              "--seed", "4", "--out", str(cv)])
        path = root / "path.csv"
        main(["path", str(small_csv), "--lambda-grid", "2.0:4:1.0",
              "--out", str(path)])
        return sorted(f for f in root.iterdir())

    files1 = run_all(tmp_path / "r1")
    files2 = run_all(tmp_path / "r2")
    names1 = [f.name for f in files1]
    names2 = [f.name for f in files2]
    identical = names1 == names2 and all(
        a.read_bytes() == b.read_bytes() for a, b in zip(files1, files2)
    )
    assert _report(10, "CLI determinism", identical,
                   f"{len(files1)} files byte-compared")
