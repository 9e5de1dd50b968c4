import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glda.model import DirectionSet, PooledScatter
from glda.solvers import (
    LpInfeasibleError,
    SolverOptions,
    SolverReport,
    TheoreticalLambdaParams,
    fit_directions,
    fit_grouped,
    fit_lpd,
    fit_single_lasso,
    group_prox,
    hard_threshold,
    kkt_residual,
    lipschitz_upper,
    oracle_restricted_fit,
    pi_bar_from_priors,
    theoretical_lambda,
)


def numeric_prox_oracle(x, lam):
    """Minimize 0.5||v-x||^2 + lam||v|| with a generic smooth optimizer."""
    from scipy.optimize import minimize

    x = np.asarray(x, dtype=float)

    def fun(v):
        return 0.5 * np.sum((v - x) ** 2) + lam * np.linalg.norm(v)

    best_v, best_f = np.zeros_like(x), fun(np.zeros_like(x))
    for start in (x, 0.5 * x):
        res = minimize(fun, start, method="Nelder-Mead",
                       options={"fatol": 1e-16, "xatol": 1e-12, "maxiter": 20000})
        if res.fun < best_f:
            best_v, best_f = res.x, res.fun
    return best_v


def grouped_objective(S, D, lam, M):
    lam = np.broadcast_to(np.asarray(lam, float), (M.shape[0],))
    return (
        0.5 * np.sum(M * (S @ M))
        - np.sum(D.T * M)
        + np.sum(lam * np.linalg.norm(M, axis=1))
    )


# --- group_prox ---------------------------------------------------------


def test_prox_identity_at_zero_lam():
    assert np.allclose(group_prox([3.0, 4.0], 0.0), [3.0, 4.0])


def test_prox_collapse_at_threshold():
    assert np.all(group_prox([3.0, 4.0], 5.0) == 0.0)


def test_prox_matches_numeric_oracle():
    v = group_prox([3.0, 4.0], 2.5)
    assert np.allclose(v, [1.5, 2.0])
    oracle = numeric_prox_oracle([3.0, 4.0], 2.5)
    assert np.allclose(v, oracle, atol=1e-6)


def test_prox_rejects_negative_lam():
    with pytest.raises(ValueError):
        group_prox([1.0], -0.1)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=6),
    st.lists(st.floats(-50, 50), min_size=1, max_size=6),
    st.floats(0, 30),
)
def test_prox_nonexpansive(xs, ys, lam):
    n = min(len(xs), len(ys))
    x, y = np.array(xs[:n]), np.array(ys[:n])
    d_in = np.linalg.norm(x - y)
    d_out = np.linalg.norm(group_prox(x, lam) - group_prox(y, lam))
    assert d_out <= d_in + 1e-12


# --- lipschitz_upper ----------------------------------------------------


def test_lipschitz_examples():
    # 1.05 times the top eigenvalue
    assert lipschitz_upper(np.eye(3)) == pytest.approx(1.05, abs=1e-9)
    assert lipschitz_upper(np.diag([1.0, 4.0])) == pytest.approx(1.05 * 4.0, abs=1e-9)
    assert lipschitz_upper(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(
        1.05 * 3.0, abs=1e-9
    )


def test_lipschitz_floor_and_boost():
    assert lipschitz_upper(np.zeros((3, 3))) > 0
    a = lipschitz_upper(np.eye(2))
    assert a == pytest.approx(1.05, rel=1e-9)


# --- fit_grouped --------------------------------------------------------


def test_grouped_zero_above_lambda_max():
    S = np.eye(4)
    D = np.array([[1.0, 2.0, 0.0, 0.5], [0.0, 1.0, 3.0, -0.5]])
    lmax = np.linalg.norm(D, axis=0).max()
    ds, rep = fit_grouped(S, D, lmax)
    assert np.all(ds.matrix == 0.0)
    assert rep.converged


def test_grouped_unpenalized_identity_scatter():
    D = np.array([[1.0, -2.0, 0.3], [0.4, 1.0, -1.0]])
    ds, rep = fit_grouped(np.eye(3), D, 0.0)
    assert np.allclose(ds.matrix, D.T, atol=1e-7)
    assert rep.converged


def test_grouped_matches_gridded_oracle():
    # p=2, K'=2 instance checked against coordinate grid + simplex polish
    from scipy.optimize import minimize

    S = np.array([[1.0, 0.3], [0.3, 1.0]])
    D = np.array([[1.0, 0.0], [0.0, 1.0]])
    lam = 0.2
    ds, rep = fit_grouped(S, D, lam, SolverOptions(tol=1e-12))

    pts = np.linspace(-1.5, 1.5, 13)
    best, best_f = None, np.inf
    for a in pts:
        for b in pts:
            for c in pts:
                for d in pts:
                    M = np.array([[a, b], [c, d]])
                    f = grouped_objective(S, D, lam, M)
                    if f < best_f:
                        best, best_f = M, f
    res = minimize(
        lambda v: grouped_objective(S, D, lam, v.reshape(2, 2)),
        best.ravel(),
        method="Nelder-Mead",
        options={"fatol": 1e-16, "xatol": 1e-12, "maxiter": 50000},
    )
    oracle = res.x.reshape(2, 2)
    assert np.abs(ds.matrix - oracle).max() < 1e-5


def test_grouped_monotone_trace_and_kkt_contract():
    rng = np.random.default_rng(0)
    for _ in range(5):
        p, kp = 8, 2
        A = rng.normal(size=(20, p))
        S = A.T @ A / 20 + 0.1 * np.eye(p)
        D = rng.normal(size=(kp, p))
        ds, rep = fit_grouped(S, D, 0.3)
        assert np.all(np.diff(rep.objective_trace) <= 1e-10)
        if rep.converged:
            assert rep.kkt_residual <= 1e-5
            assert kkt_residual(S, D, 0.3, ds) <= 1e-5


def test_grouped_beats_random_points():
    rng = np.random.default_rng(1)
    p, kp = 6, 3
    A = rng.normal(size=(30, p))
    S = A.T @ A / 30 + 0.1 * np.eye(p)
    D = rng.normal(size=(kp, p))
    lam = rng.uniform(0.05, 0.5, size=p)
    ds, _ = fit_grouped(S, D, lam)
    f_hat = grouped_objective(S, D, lam, ds.matrix)
    assert f_hat <= grouped_objective(S, D, lam, np.zeros((p, kp))) + 1e-10
    for _ in range(100):
        M = rng.normal(scale=1.5, size=(p, kp))
        assert f_hat <= grouped_objective(S, D, lam, M) + 1e-10


def test_grouped_k2_reduces_to_single_lasso():
    rng = np.random.default_rng(4)
    for _ in range(5):
        p = rng.integers(3, 10)
        A = rng.normal(size=(25, p))
        S = A.T @ A / 25 + 0.1 * np.eye(p)
        delta = rng.normal(size=p)
        lam = rng.uniform(0.05, 0.6)
        ds, _ = fit_grouped(S, delta[None, :], lam)
        beta, _ = fit_single_lasso(S, delta, lam)
        f_g = grouped_objective(S, delta[None, :], lam, ds.matrix)
        f_s = grouped_objective(S, delta[None, :], lam, beta[:, None])
        assert abs(f_g - f_s) < 1e-7
        assert np.abs(ds.matrix[:, 0] - beta).max() < 1e-4


def test_grouped_scaling_homogeneity():
    S = np.array([[1.0, 0.2, 0.0], [0.2, 1.0, 0.1], [0.0, 0.1, 1.0]])
    D = np.array([[5.0, 1.0, 0.0], [1.0, -5.0, 2.0]])
    lam = 0.5
    opts = SolverOptions(tol=1e-11)
    base, _ = fit_grouped(S, D, lam, opts)
    for c in (2.0**10, 2.0**-7, 3.7, 0.013):
        scaled, _ = fit_grouped(S, c * D, c * lam, opts)
        rel = np.abs(scaled.matrix - c * base.matrix).max() / max(
            1e-12, np.abs(c * base.matrix).max()
        )
        assert rel < 1e-6


def test_grouped_flat_quadratic_objective_value():
    # singular scatter, lam=0, consistent delta: objective value is what counts
    S = np.diag([1.0, 0.0])
    D = np.array([[1.0, 0.0]])
    ds, _ = fit_grouped(S, D, 0.0)
    f = grouped_objective(S, D, 0.0, ds.matrix)
    assert f == pytest.approx(-0.5, abs=1e-8)


def test_grouped_dimension_mismatch():
    with pytest.raises(ValueError):
        fit_grouped(np.eye(3), np.ones((2, 4)), 0.1)
    with pytest.raises(ValueError):
        fit_grouped(np.eye(3), np.ones((2, 3)), -0.1)


def test_grouped_nonconverged_is_returned():
    rng = np.random.default_rng(9)
    A = rng.normal(size=(10, 6))
    S = A.T @ A / 10
    D = rng.normal(size=(2, 6))
    ds, rep = fit_grouped(S, D, 0.01, SolverOptions(max_iter=3))
    assert ds.matrix.shape == (6, 2)
    assert rep.iterations == 3
    assert not rep.converged


def test_accepts_pooled_scatter_type():
    S = PooledScatter(matrix=np.eye(2), dof=5)
    ds, _ = fit_grouped(S, np.array([[1.0, 0.0]]), 0.0)
    assert np.allclose(ds.matrix[:, 0], [1.0, 0.0], atol=1e-8)


# --- fit_single_lasso ---------------------------------------------------


def test_lasso_scalar_soft_threshold():
    beta, rep = fit_single_lasso(np.array([[1.0]]), np.array([3.0]), 1.0)
    assert beta[0] == pytest.approx(2.0, abs=1e-8)
    assert rep.converged


def test_lasso_unpenalized_solves_system():
    rng = np.random.default_rng(12)
    A = rng.normal(size=(30, 5))
    S = A.T @ A / 30 + 0.2 * np.eye(5)
    delta = rng.normal(size=5)
    beta, _ = fit_single_lasso(S, delta, 0.0)
    assert np.allclose(beta, np.linalg.solve(S, delta), atol=1e-6)


def test_lasso_zero_above_linf():
    delta = np.array([0.5, -2.0, 1.0])
    beta, _ = fit_single_lasso(np.eye(3), delta, 2.0)
    assert np.all(beta == 0.0)


# --- fit_lpd ------------------------------------------------------------


def test_lpd_zero_when_feasible_at_origin():
    beta = fit_lpd(np.eye(3), np.array([0.5, -1.0, 0.2]), 1.0)
    assert np.all(beta == 0.0)


def test_lpd_scalar_hand_case():
    beta = fit_lpd(np.array([[2.0]]), np.array([3.0]), 1.0)
    assert beta[0] == pytest.approx(1.0, abs=1e-9)


def test_lpd_diagonal_hand_case():
    beta = fit_lpd(np.diag([1.0, 2.0]), np.array([3.0, 4.0]), 1.0)
    assert np.allclose(beta, [2.0, 1.5], atol=1e-9)


def test_lpd_infeasible_raises():
    # rank-1 scatter cannot push both coordinates to opposite signs
    S = np.array([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(LpInfeasibleError, match="LPD infeasible"):
        fit_lpd(S, np.array([2.0, -2.0]), 0.5)


def test_lpd_requires_positive_lambda():
    with pytest.raises(ValueError):
        fit_lpd(np.eye(2), np.array([1.0, 1.0]), 0.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, -0.1])
@pytest.mark.parametrize("fit", [fit_grouped, fit_single_lasso, fit_lpd])
def test_fits_reject_negative_or_non_finite_lambda(fit, lam):
    with pytest.raises(ValueError, match="lambdas must be"):
        fit(np.eye(2), np.array([1.0, 1.0]), lam)


def test_lpd_feasibility_and_dominance_over_feasible_points():
    rng = np.random.default_rng(21)
    for _ in range(10):
        p = int(rng.integers(2, 7))
        A = rng.normal(size=(20, p))
        S = A.T @ A / 20 + 0.3 * np.eye(p)
        delta = rng.normal(size=p)
        ds, _ = fit_grouped(S, delta[None, :], 0.1)
        lasso, _ = fit_single_lasso(S, delta, 0.15)
        for other in (ds.matrix[:, 0], lasso):
            lam = float(np.abs(S @ other - delta).max()) + 1e-9
            beta = fit_lpd(S, delta, lam)
            assert np.abs(S @ beta - delta).max() <= lam + 1e-8
            assert np.abs(beta).sum() <= np.abs(other).sum() + 1e-8


# --- fit_directions -----------------------------------------------------


def _three_class_problem(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(30, 5))
    S = A.T @ A / 30 + 0.2 * np.eye(5)
    return S, rng.normal(size=(2, 5))


def test_fit_directions_grouped_is_one_joint_fit():
    S, D = _three_class_problem(30)
    ds, reports = fit_directions("grouped", S, D, 0.3)
    ref, rep = fit_grouped(S, D, 0.3)
    assert np.array_equal(ds.matrix, ref.matrix)
    assert [r.iterations for r in reports] == [rep.iterations]


def test_fit_directions_single_fits_each_column():
    S, D = _three_class_problem(31)
    ds, reports = fit_directions("single", S, D, 0.3)
    assert ds.matrix.shape == (5, 2) and len(reports) == 2
    for k in range(2):
        beta, rep = fit_single_lasso(S, D[k], 0.3)
        assert np.array_equal(ds.column(k), beta)
        assert reports[k].iterations == rep.iterations


def test_fit_directions_lpd_fits_each_column():
    S, D = _three_class_problem(32)
    ds, reports = fit_directions("lpd", S, D, 0.3)
    assert reports == []
    for k in range(2):
        assert np.array_equal(ds.column(k), fit_lpd(S, D[k], 0.3))


def test_fit_directions_rejects_other_estimators():
    S, D = _three_class_problem(33)
    with pytest.raises(ValueError, match="does not produce directions"):
        fit_directions("pinv", S, D, 0.3)


# --- hard_threshold -----------------------------------------------------


def test_hard_threshold_examples():
    ds = DirectionSet(np.array([[3.0], [1.5], [-2.0]]))
    out = hard_threshold(ds, 2.0)
    assert np.allclose(out.matrix.ravel(), [3.0, 0.0, -2.0])
    ident = hard_threshold(ds, 0.0)
    assert np.array_equal(ident.matrix, ds.matrix)
    # boundary |x| = zeta is kept
    kept = hard_threshold(DirectionSet(np.array([[2.0]])), 2.0)
    assert kept.matrix[0, 0] == 2.0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8), st.floats(0, 5))
def test_hard_threshold_idempotent(entries, zeta):
    ds = DirectionSet(np.array(entries)[:, None])
    once = hard_threshold(ds, zeta)
    twice = hard_threshold(once, zeta)
    assert np.array_equal(once.matrix, twice.matrix)


# --- theoretical_lambda -------------------------------------------------


def test_theoretical_lambda_formula():
    params = TheoreticalLambdaParams(
        sigma_max_plus=1.0, delta_total=1.0, K=3, N=103, pi_bar=2.0, t=1.0
    )
    assert theoretical_lambda(params) == pytest.approx(2.0 * np.sqrt(0.06), rel=1e-12)


def test_theoretical_lambda_vanishes_at_t0():
    params = TheoreticalLambdaParams(
        sigma_max_plus=1.0, delta_total=1.0, K=3, N=103, pi_bar=2.0, t=0.0
    )
    assert theoretical_lambda(params) == 0.0


def test_theoretical_lambda_sqrt_scaling():
    base = TheoreticalLambdaParams(
        sigma_max_plus=1.0, delta_total=5.0, K=2, N=102, pi_bar=2.0, t=1.0
    )
    quadrupled = TheoreticalLambdaParams(
        sigma_max_plus=1.0, delta_total=5.0, K=2, N=402, pi_bar=2.0, t=1.0
    )
    assert theoretical_lambda(quadrupled) == pytest.approx(
        theoretical_lambda(base) / 2.0, rel=1e-12
    )


def test_pi_bar():
    assert pi_bar_from_priors([0.5, 0.5]) == pytest.approx(2.0)
    assert pi_bar_from_priors([1 / 3, 1 / 3, 1 / 3]) == pytest.approx(np.sqrt(6.0))


# --- kkt_residual -------------------------------------------------------


def test_kkt_zero_solution_with_large_lambda():
    S = np.eye(3)
    D = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, -0.5]])
    lam = np.linalg.norm(D, axis=0) + 0.1
    ds = DirectionSet(np.zeros((3, 2)))
    assert kkt_residual(S, D, lam, ds) == 0.0


def test_kkt_exact_unpenalized_solution():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(20, 4))
    S = A.T @ A / 20 + 0.3 * np.eye(4)
    D = rng.normal(size=(2, 4))
    sol = np.linalg.solve(S, D.T)
    assert kkt_residual(S, D, 0.0, DirectionSet(sol)) <= 1e-9


def test_kkt_detects_perturbation():
    S = np.eye(2)
    D = np.array([[1.0, 2.0]])
    sol = D.T.copy()
    assert kkt_residual(S, D, 0.0, DirectionSet(sol)) <= 1e-12
    sol2 = sol.copy()
    sol2[0, 0] += 0.1
    assert kkt_residual(S, D, 0.0, DirectionSet(sol2)) > 0.05


# --- oracle_restricted_fit ---------------------------------------------


def test_oracle_restricted_identity():
    beta = oracle_restricted_fit(np.eye(4), np.array([1.0, 2.0, 3.0, 4.0]), [0, 2])
    assert np.allclose(beta, [1.0, 0.0, 3.0, 0.0])


def test_oracle_restricted_empty_support():
    beta = oracle_restricted_fit(np.eye(3), np.ones(3), [])
    assert np.all(beta == 0.0)


def test_oracle_restricted_hand_solve():
    S = np.array([[2.0, 1.0], [1.0, 2.0]])
    beta = oracle_restricted_fit(S, np.array([3.0, 3.0]), [0, 1])
    assert np.allclose(beta, [1.0, 1.0])


def test_oracle_restricted_singular_block():
    S = np.ones((2, 2))
    with pytest.raises(np.linalg.LinAlgError):
        oracle_restricted_fit(S, np.array([1.0, 2.0]), [0, 1])


# --- report invariants ---------------------------------------------------


def test_report_rejects_increasing_objective():
    with pytest.raises(ValueError):
        SolverReport(2, np.array([0.0, 1.0]), 0.0, True)


def test_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(max_iter=0)
    with pytest.raises(ValueError):
        SolverOptions(tol=0.0)


def test_concurrent_fits_match_sequential():
    # fits are pure functions of their inputs; shared-input runs in worker
    # threads must reproduce the sequential results exactly
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(77)
    A = rng.normal(size=(40, 10))
    S = A.T @ A / 40 + 0.1 * np.eye(10)
    D = rng.normal(size=(2, 10))
    lams = [0.05, 0.1, 0.2, 0.4, 0.8, 1.2]
    sequential = [fit_grouped(S, D, lam)[0].matrix for lam in lams]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda lam: fit_grouped(S, D, lam)[0].matrix, lams))
    for a, b in zip(sequential, threaded):
        assert np.array_equal(a, b)
