import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glda import solvers
from glda.classify import pseudoinverse_lda_fit
from glda.model import (
    Dataset,
    DirectionSet,
    PooledScatter,
    as_scatter,
    pooled_scatter,
    summarize,
)
from glda.select import lambda_max
from glda.simulate import bayes_error_binary
from glda.solvers import (
    LpInfeasibleError,
    SolverReport,
    TheoreticalLambdaParams,
    fit_directions,
    fit_grouped,
    fit_lpd,
    fit_single_lasso,
    group_prox,
    hard_threshold,
    kkt_residual,
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
    return 0.5 * np.sum(M * (S @ M)) - np.sum(D.T * M) + lam * np.sum(np.linalg.norm(M, axis=1))


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
    with pytest.raises(ValueError, match="nonnegative"):
        group_prox([1.0], -0.1)
    for lam in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            group_prox([3.0, 4.0], lam)


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


@pytest.mark.parametrize("k", [1, 2, 3, 8, 9])
def test_row_norms_match_numpy_norm_byte_for_byte(k):
    # 8 and 9 columns reach numpy's pairwise summation; the rewrite uses the
    # same reduction, so it matches there too
    rng = np.random.default_rng(k)
    M = rng.normal(size=(40, k)) * np.exp(rng.normal(scale=5.0, size=(40, k)))
    M[0] = 0.0
    M[1] = 1e-300
    M[2] = 1e150
    M[3, 0] = -1e150
    M[4, -1] = 1e-300
    assert solvers._row_norms(M).tobytes() == np.linalg.norm(M, axis=1).tobytes()


# --- fit_grouped --------------------------------------------------------


def test_grouped_zero_scatter_above_delta_norm():
    # the top eigenvalue is 0, so the step is floored at machine epsilon
    D = np.array([[1.0, -2.0]])
    ds, rep = fit_grouped(np.zeros((2, 2)), D, np.linalg.norm(D))
    assert np.all(ds.matrix == 0.0)
    assert rep.converged


def test_fits_reject_indefinite_scatter():
    with pytest.raises(ValueError, match="positive semidefinite"):
        fit_grouped(np.diag([1.0, -1.0]), [[1.0, 1.0]], 0.1)


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
    ds, rep = fit_grouped(S, D, lam)

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
    lam = rng.uniform(0.05, 0.5)
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
    base, _ = fit_grouped(S, D, lam)
    for c in (2.0**10, 2.0**-7, 3.7, 0.013):
        scaled, _ = fit_grouped(S, c * D, c * lam)
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


def test_grouped_nonconverged_is_returned(monkeypatch):
    rng = np.random.default_rng(9)
    A = rng.normal(size=(10, 6))
    S = A.T @ A / 10
    D = rng.normal(size=(2, 6))
    monkeypatch.setattr(solvers, "_MAX_ITER", 3)
    ds, rep = fit_grouped(S, D, 0.01)
    assert ds.matrix.shape == (6, 2)
    assert rep.iterations == 3
    assert not rep.converged
    assert rep.status == "max_iter" and rep.ray is None


def test_accepts_pooled_scatter_type():
    S = PooledScatter(factor=np.eye(2))
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


# --- Newton finish on the settled support ---------------------------------


def _no_newton(*args):
    # a support Newton step that never lands: the plain accelerated run
    return None


def _newton_spy(monkeypatch):
    """Record (|A|, K', landed) for every support Newton attempt."""
    real = solvers._support_newton
    attempts = []

    def spy(S, X, G, lam, active, *rest):
        out = real(S, X, G, lam, active, *rest)
        attempts.append((int(np.count_nonzero(active)), X.shape[1], out is not None))
        return out

    monkeypatch.setattr(solvers, "_support_newton", spy)
    return attempts


def _study_problems(seeds):
    """(S, deltas, grid) of design 1 at each seed, on the criterion-5 grid."""
    from glda.select import lambda_grid
    from glda.simulate import sample, sim1_spec

    grid = lambda_grid(2.5, 14, 0.8).values
    for seed in seeds:
        d = sample(sim1_spec(seed))
        cs = summarize(d)
        yield pooled_scatter(d, cs), cs.deltas, grid


def test_support_newton_gate_on_a_hand_lasso():
    # 0.5 b'Sb - delta'b + |b|_1 with S = diag(1, 2), delta = (3, 4) has
    # its minimiser at (2, 1.5)
    S = as_scatter(np.diag([1.0, 2.0]))
    G = np.array([[3.0], [4.0]])
    lam = 1.0
    X = np.array([[0.5], [0.1]])
    both = np.array([True, True])
    Z, f = solvers._support_newton(S, X, G, lam, both, np.inf)
    assert np.allclose(Z[:, 0], [2.0, 1.5], rtol=0, atol=1e-15)
    assert f == pytest.approx(-4.25, abs=1e-15)
    # a wrong support is repaired: the solve on row 0 leaves row 1 with
    # residual 4 > lam, which joins at its own block's minimiser and lands
    Z, f = solvers._support_newton(S, X, G, lam, np.array([True, False]), np.inf)
    assert np.allclose(Z[:, 0], [2.0, 1.5], rtol=0, atol=1e-15)
    assert f == pytest.approx(-4.25, abs=1e-15)
    # a point above the last objective, a singular block
    assert solvers._support_newton(S, X, G, lam, both, f - 1.0) is None
    flat = as_scatter(np.ones((2, 2)))
    assert solvers._support_newton(flat, X, G, lam, both, np.inf) is None


def test_support_newton_drops_a_row_whose_sign_flips():
    # S = I, delta = (3, 0.5), lam = 1: the minimiser is (2, 0). The solve
    # on both rows with the iterate's signs (+, +) gives (2, -0.5); row 1
    # turned over, so it is dropped, and the solve on row 0 lands
    S = as_scatter(np.eye(2))
    G = np.array([[3.0], [0.5]])
    X = np.array([[0.5], [0.1]])
    Z, f = solvers._support_newton(S, X, G, 1.0, np.array([True, True]), np.inf)
    assert np.array_equal(Z[:, 0], [2.0, 0.0])
    assert f == -2.0


def test_support_newton_stops_at_its_repair_cap(monkeypatch):
    # a chain S = tridiag(-0.4, 1, -0.4) with delta = 10 e_1 at lam = 0.05:
    # the minimiser has 7 nonzero rows, and from row 0 alone each repair
    # adds one row, so the attempt runs out of repairs after cap + 1 solves
    p = 8
    S = as_scatter(np.eye(p) - 0.4 * (np.eye(p, k=1) + np.eye(p, k=-1)))
    G = np.zeros((p, 1))
    G[0] = 10.0
    lam = 0.05
    X = np.zeros((p, 1))
    X[0] = 1.0
    first = X[:, 0] != 0
    solve = np.linalg.solve
    sizes = []
    monkeypatch.setattr(np.linalg, "solve", lambda H, b: sizes.append(H.shape[0]) or solve(H, b))
    assert solvers._support_newton(S, X, G, lam, first, np.inf) is None
    assert sizes == list(range(1, solvers._NEWTON_REPAIRS + 2))
    # with room for six repairs it lands on the exact lasso solve of rows 0-6
    sizes.clear()
    monkeypatch.setattr(solvers, "_NEWTON_REPAIRS", 6)
    Z, _ = solvers._support_newton(S, X, G, lam, first, np.inf)
    assert sizes == list(range(1, 8))
    ref = solve(S.matrix[:7, :7], G[:7, 0] - lam)
    assert np.all(ref > 0) and Z[7, 0] == 0.0
    assert np.abs(Z[:7, 0] - ref).max() <= 1e-14 * ref.max()


def test_landed_single_step_is_the_exact_support_solve(monkeypatch):
    # with one direction the Newton step is the lasso solve on the support:
    # S_AA b_A = delta_A - lam sign(b_A), with every other entry zero
    attempts = _newton_spy(monkeypatch)
    checked = 0
    for S, D, grid in _study_problems(range(5)):
        for lam in grid:
            for delta in D:
                attempts.clear()
                beta, rep = fit_single_lasso(S, delta, float(lam))
                if rep.status != "optimal" or not any(landed for *_, landed in attempts):
                    continue
                A = np.flatnonzero(beta)
                FA = S.factor[:, A]
                ref = np.linalg.solve(FA.T @ FA, delta[A] - lam * np.sign(beta[A]))
                assert np.abs(beta[A] - ref).max() <= 1e-10 * np.abs(ref).max(), lam
                # the landed point's objective closes the trace
                assert rep.objective_trace.size == rep.iterations + 2
                assert np.all(np.diff(rep.objective_trace) <= 1e-10)
                checked += 1
    assert checked > 50


def test_newton_finish_keeps_the_statuses_and_supports_of_plain_fista(monkeypatch):
    problems = list(_study_problems(range(5)))

    def fit_all():
        out = []
        for S, D, grid in problems:
            for lam in grid:
                ds, rep = fit_grouped(S, D, float(lam))
                out.append((ds.matrix, rep))
                for delta in D:
                    beta, rep = fit_single_lasso(S, delta, float(lam))
                    out.append((beta[:, None], rep))
        return out

    newton = fit_all()
    monkeypatch.setattr(solvers, "_support_newton", _no_newton)
    plain = fit_all()
    iters, kkt = np.zeros(2), [[], []]
    for (X, rep), (Xp, rep_p) in zip(newton, plain):
        assert rep.status == rep_p.status
        if rep.status != "optimal":
            # no attempt lands on these runs, so they are the plain runs
            assert np.array_equal(X, Xp) and rep.iterations == rep_p.iterations
            continue
        support = (np.abs(X) >= 0.25).any(axis=1)
        assert np.array_equal(support, (np.abs(Xp) >= 0.25).any(axis=1))
        # both pass the KKT exit; the plain run's coefficients are within
        # 1e-4 of max|coef| here (9.1e-5 at most)
        assert np.abs(X - Xp).max() <= 1e-3 * np.abs(Xp).max()
        iters += rep.iterations, rep_p.iterations
        kkt[0].append(rep.kkt_residual)
        kkt[1].append(rep_p.kkt_residual)
    assert iters[0] < 0.5 * iters[1]
    assert np.median(kkt[0]) < 1e-3 * np.median(kkt[1])


def test_newton_solves_no_system_beyond_the_rank_bound(monkeypatch):
    # with |A| > K' rank(S) the Hessian is singular and no solve is tried;
    # on the default path of design 1 no solve exceeds K'^2 rank(S) either
    from glda.select import lambda_grid, lambda_max
    from glda.simulate import sample, sim1_spec

    d = sample(sim1_spec(0))
    cs = summarize(d)
    S = pooled_scatter(d, cs)
    attempts = _newton_spy(monkeypatch)
    solve = np.linalg.solve
    sizes = []

    def solve_spy(H, b):
        sizes.append(H.shape[0])
        return solve(H, b)

    monkeypatch.setattr(np.linalg, "solve", solve_spy)
    for estimator, k in (("grouped", 2), ("single", 1)):
        G = np.ascontiguousarray(cs.deltas[:k].T)
        active = np.zeros(S.p, dtype=bool)
        active[: k * S.rank + 1] = True
        X = active[:, None] * np.ones(k)
        assert solvers._support_newton(S, X, G, 0.5, active, np.inf) is None
        assert sizes == [], estimator
        attempts.clear()
        for lam in lambda_grid(lambda_max(cs.deltas), 50, 3.0).values:
            fit_directions(estimator, S, cs.deltas, float(lam))
        assert all(kp == k for _, kp, _ in attempts)
        assert len(sizes) > 0 and max(sizes) <= k * k * S.rank, estimator
        sizes.clear()


def test_hard_bounded_fit_backs_off_its_newton_attempts(monkeypatch):
    # design 1, seed 61, lam = 0.698 has a finite minimiser with 94 active
    # rows (max_iter=50000 reaches it after 25,322 plain iterations), and
    # its support keeps growing: without the repair every attempt missed
    # and the run ended max_iter at KKT residual 1.03e-4. The repair lands
    # an attempt, and the doubling backoff keeps the attempts within
    # log2(max_iter)
    S, D, grid = next(_study_problems([61]))
    lam = float(grid[9])
    assert lam == pytest.approx(0.698, abs=5e-4)
    attempts = _newton_spy(monkeypatch)
    X, rep = fit_grouped(S, D, lam)
    assert rep.status == "optimal" and attempts[-1][2]
    assert rep.kkt_residual <= solvers._KKT_EXIT * max(np.abs(D).max(), lam)
    assert 0 < len(attempts) <= np.log2(solvers._MAX_ITER)
    assert X.joint_support().size == 94


def test_newton_lands_on_its_first_attempt_on_the_study_grid(monkeypatch):
    # the repair lands almost every fit that Newton finishes on the first
    # attempt: 132 of 137 grouped and single fits at study seeds 0-4 (the
    # attempt without the repair landed first in 82 of 135)
    attempts = _newton_spy(monkeypatch)
    firsts = []
    for S, D, grid in _study_problems(range(5)):
        for lam in grid:
            for fit, deltas in [(fit_grouped, D), *((fit_single_lasso, delta) for delta in D)]:
                attempts.clear()
                fit(S, deltas, float(lam))
                if any(landed for *_, landed in attempts):
                    firsts.append(attempts[0][2])
    assert len(firsts) > 100
    assert np.mean(firsts) >= 0.95


def _singular_solve(H, b):
    raise np.linalg.LinAlgError("Singular matrix")


def _overflowed_solve(H, b):
    return np.full_like(b, np.inf)


def _zero_row_solve(H, b, solve=np.linalg.solve):
    Z = solve(H, b)
    Z[:2] = 0.0  # the first row of the |A| x 2 step
    return Z


@pytest.mark.parametrize("patch", [_singular_solve, _overflowed_solve, _zero_row_solve])
def test_newton_bail_outs_leave_the_plain_run_to_finish(monkeypatch, patch):
    # design 1, seed 0, at the criterion grid's best point: the first
    # Newton attempt, at iteration 4 on 4 rows, drops one and lands on 3. A
    # solve that fails, overflows or zeroes a row makes every attempt bail
    # out, and the accelerated run reaches the same optimum by itself
    S, D, grid = next(_study_problems([0]))
    lam = float(grid[4])
    assert lam == pytest.approx(1.418, abs=5e-4)
    attempts = _newton_spy(monkeypatch)
    _, ref = fit_grouped(S, D, lam)
    assert ref.status == "optimal" and attempts[-1][2]
    attempts.clear()
    solves = []
    monkeypatch.setattr(np.linalg, "solve", lambda H, b: solves.append(1) or patch(H, b))
    _, rep = fit_grouped(S, D, lam)
    assert attempts and not any(landed for *_, landed in attempts)
    # a failed or overflowed solve ends its attempt at once; a zeroed row
    # is dropped and the set solved again, and as every solve zeroes a row
    # again each attempt runs until its repairs are spent
    per_attempt = solvers._NEWTON_REPAIRS + 1 if patch is _zero_row_solve else 1
    assert len(solves) == per_attempt * len(attempts)
    assert rep.status == ref.status
    assert rep.kkt_residual <= solvers._KKT_EXIT * max(np.abs(D).max(), lam)
    f, f_ref = rep.objective_trace[-1], ref.objective_trace[-1]
    assert abs(f - f_ref) <= 1e-9 * abs(f_ref)
    assert rep.iterations >= ref.iterations


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
    # rank-1 scatter cannot push both coordinates to opposite signs; the
    # null-space vector (1, -1)/sqrt(2) proves it
    S = np.array([[1.0, 1.0], [1.0, 1.0]])
    delta = np.array([2.0, -2.0])
    with pytest.raises(LpInfeasibleError, match="LPD infeasible") as info:
        fit_lpd(S, delta, 0.5)
    ray = info.value.ray
    assert_farkas_ray(as_scatter(S), delta, 0.5, ray)
    assert np.allclose(ray, [np.sqrt(0.5), -np.sqrt(0.5)])


def test_lpd_simplex_backstops_a_max_iter_pre_check(monkeypatch):
    calls = []

    def budget_out(S, G, lam):
        calls.append(G.shape)
        return np.zeros_like(G), SolverReport(solvers._MAX_ITER, np.zeros(1), 1.0, "max_iter")

    monkeypatch.setattr(solvers, "_proximal_gradient", budget_out)
    S = np.array([[1.0, 1.0], [1.0, 1.0]])
    delta = np.array([2.0, -2.0])
    with pytest.raises(LpInfeasibleError, match="LPD infeasible") as info:
        fit_lpd(S, delta, 0.5)
    ray = info.value.ray
    assert_farkas_ray(as_scatter(S), delta, 0.5, ray)
    assert np.allclose(ray, [np.sqrt(0.5), -np.sqrt(0.5)])
    assert calls == [(2, 1)]


def test_lpd_simplex_proof_that_fails_its_check_is_a_numerical_error(monkeypatch):
    # a simplex certificate is raised only once it maps to a checked ray
    monkeypatch.setattr(solvers, "_proximal_gradient", _empty_seed)
    monkeypatch.setattr(solvers, "_recession_ray", lambda *args: None)
    with pytest.raises(solvers.LpNumericalError, match="failed its check"):
        fit_lpd(np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([2.0, -2.0]), 0.5)


def test_lpd_pivot_budget_exit_is_a_numerical_error(monkeypatch):
    # each contrast of this full-rank problem takes 4 or 5 dual pivots; a
    # budget of one pivot ends the simplex at its budget exit
    from glda import simplex

    S, D = _three_class_problem(34)
    pivots, pivot = [], simplex._pivot
    monkeypatch.setattr(simplex, "_pivot", lambda *args: pivots.append(1) or pivot(*args))
    for delta in D:
        pivots.clear()
        fit_lpd(S, delta, 0.05)
        assert len(pivots) > 1
    monkeypatch.setattr(simplex, "_budget", lambda T: 1)
    for delta in D:
        pivots.clear()
        with pytest.raises(solvers.LpNumericalError, match="within the pivot budget"):
            fit_lpd(S, delta, 0.05)
        assert len(pivots) == 1


def test_lpd_max_iter_pre_check_still_reaches_the_optimum_of_a_feasible_box(monkeypatch):
    # the pre-check's support only seeds the activation: a budget-out whose
    # support misses the binding rows still ends at the LP optimum
    def budget_out(S, G, lam):
        X = np.zeros_like(G)
        X[2] = 1.0
        return X, SolverReport(solvers._MAX_ITER, np.zeros(1), 1.0, "max_iter")

    monkeypatch.setattr(solvers, "_proximal_gradient", budget_out)
    S = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    delta = np.array([2.0, 2.0, 0.2])
    beta = fit_lpd(S, delta, 0.5)
    assert np.abs(S @ beta - delta).max() <= 0.5 + 1e-9
    assert np.abs(beta).sum() == pytest.approx(1.5, abs=1e-12)
    assert beta[2] == 0.0


def test_lpd_skips_the_pre_check_on_a_full_rank_scatter(monkeypatch):
    calls = []
    real = solvers._proximal_gradient

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solvers, "_proximal_gradient", spy)
    S, D = _three_class_problem(34)
    for delta in D:
        assert np.any(fit_lpd(S, delta, 0.05) != 0.0)
    assert calls == []


def test_lpd_infeasible_exactly_below_the_lp_threshold_on_the_study_grid():
    # the scipy LP threshold lam* = min_b |S b - delta|_inf is an oracle that
    # shares nothing with the certificate: the box is empty exactly below it
    from glda.select import lambda_grid
    from glda.simulate import sample, sim1_spec

    grid = lambda_grid(2.5, 14, 0.8).values
    raised = feasible = 0
    for seed in range(5):
        d = sample(sim1_spec(seed))
        cs = summarize(d)
        S = pooled_scatter(d, cs)
        for delta in cs.deltas:
            lam_star = _lp_threshold(S, delta)
            for lam in grid:
                if abs(lam / lam_star - 1.0) < 1e-6:
                    continue
                try:
                    beta = fit_lpd(S, delta, float(lam))
                except LpInfeasibleError as exc:
                    assert lam < lam_star, (seed, lam)
                    assert_farkas_ray(S, delta, float(lam), exc.ray)
                    raised += 1
                else:
                    assert lam > lam_star, (seed, lam)
                    assert np.abs(S.dot(beta) - delta).max() <= lam + 1e-8
                    feasible += 1
    assert raised > 0 and feasible > 0


def _empty_seed(S, G, lam):
    # a pre-check that leaves the activation its rows violated at 0 only
    return np.zeros_like(G), SolverReport(solvers._MAX_ITER, np.zeros(1), 1.0, "max_iter")


def _lpd_l1_by_highs(S, delta, lam):
    # min |b|_1 over the box, with b = u - v and w = F b so that the box
    # reads |F'w - delta|_inf <= lam: far fewer nonzeros than S itself
    from scipy.optimize import linprog

    F = S.factor
    n, p = F.shape
    zeros = np.zeros((p, 2 * p))
    res = linprog(
        np.r_[np.ones(2 * p), np.zeros(n)],
        A_ub=np.block([[zeros, F.T], [zeros, -F.T]]),
        b_ub=np.r_[lam + delta, lam - delta],
        A_eq=np.hstack([F, -F, -np.eye(n)]),
        b_eq=np.zeros(n),
        bounds=[(0.0, None)] * (2 * p) + [(None, None)] * n,
        method="highs",
    )
    assert res.status == 0
    return float(res.fun)


def test_seeded_lpd_is_the_exact_optimum_on_the_study_grid(monkeypatch):
    from glda.select import lambda_grid
    from glda.simulate import sample, sim1_spec

    grid = lambda_grid(2.5, 14, 0.8).values
    feasible = []
    for seed in range(5):
        d = sample(sim1_spec(seed))
        cs = summarize(d)
        S = pooled_scatter(d, cs)
        for delta in cs.deltas:
            for lam in grid:
                try:
                    beta = fit_lpd(S, delta, float(lam))
                except LpInfeasibleError:
                    continue
                feasible.append((S, delta, float(lam), beta))
    assert len(feasible) > 100
    for S, delta, lam, beta in feasible:
        l1 = np.abs(beta).sum()
        assert l1 == pytest.approx(_lpd_l1_by_highs(S, delta, lam), rel=1e-9, abs=1e-12)
        assert np.abs(S.dot(beta) - delta).max() <= lam + 1e-9
    monkeypatch.setattr(solvers, "_proximal_gradient", _empty_seed)
    for S, delta, lam, beta in feasible:
        cold = fit_lpd(S, delta, lam)
        assert np.array_equal(np.abs(beta) >= 0.25, np.abs(cold) >= 0.25), lam
        assert np.abs(cold).sum() == pytest.approx(np.abs(beta).sum(), rel=1e-9, abs=1e-12)


def test_lpd_simplex_certifies_every_empty_box_on_the_study_grid(monkeypatch):
    # with the pre-check stubbed out, the simplex proves every empty box, and
    # its Farkas vector maps to a null-space ray of the single objective
    from glda.select import lambda_grid
    from glda.simulate import sample, sim1_spec

    monkeypatch.setattr(solvers, "_proximal_gradient", _empty_seed)
    append = solvers.InequalityLP.append
    rounds = []

    def round_spy(lp, A, b):
        rounds[-1] += 1
        return append(lp, A, b)

    monkeypatch.setattr(solvers.InequalityLP, "append", round_spy)
    d = sample(sim1_spec(0))
    cs = summarize(d)
    S = pooled_scatter(d, cs)
    proved_in = []
    for delta in cs.deltas:
        for lam in lambda_grid(2.5, 14, 0.8).values:
            rounds.append(0)
            try:
                fit_lpd(S, delta, float(lam))
            except LpInfeasibleError as exc:
                assert_farkas_ray(S, delta, float(lam), exc.ray)
                proved_in.append(rounds[-1])
    assert len(proved_in) > 0
    # a proof after round 1 maps rows appended in several rounds back to
    # their features and signs
    assert max(proved_in) > 1


def test_lpd_is_covariant_under_a_rescaling_of_the_features():
    # features times s make S times s^2 and delta times s, so at lam times s
    # the box holds exactly beta / s: the simplex's cuts must not see s
    from glda.select import lambda_grid
    from glda.simulate import sample, sim1_spec

    grid = lambda_grid(2.5, 14, 0.8).values
    fits = {}
    for s in (1.0, 1e-3, 1e3):
        for seed in range(2):
            d = sample(sim1_spec(seed))
            d = Dataset(d.features * s, d.labels)
            cs = summarize(d)
            S = pooled_scatter(d, cs)
            for k, delta in enumerate(cs.deltas):
                for lam in grid:
                    try:
                        fits[s, seed, k, lam] = fit_lpd(S, delta, float(lam) * s) * s
                    except LpInfeasibleError:
                        fits[s, seed, k, lam] = None
    raised = 0
    for (s, seed, k, lam), beta in fits.items():
        base = fits[1.0, seed, k, lam]
        if base is None:
            assert beta is None, (s, seed, k, lam)
            raised += 1
            continue
        assert beta is not None, (s, seed, k, lam)
        assert np.abs(beta - base).max() <= 1e-9 * np.abs(base).max(), (s, seed, k, lam)
        assert np.array_equal(np.abs(beta) >= 0.25, np.abs(base) >= 0.25), (s, seed, k, lam)
    assert raised > 0


def test_lpd_pivot_count_on_the_study_grid(monkeypatch):
    # dual steepest-edge pricing takes 476 pivots over design 1, seeds 0-1,
    # both directions at the 14 study penalties (Dantzig's rule took 682)
    from glda import simplex
    from glda.select import lambda_grid
    from glda.simulate import sample, sim1_spec

    pivot = simplex._pivot
    pivots = []

    def pivot_spy(T, r, q):
        pivots.append(r)
        pivot(T, r, q)

    monkeypatch.setattr(simplex, "_pivot", pivot_spy)
    for seed in range(2):
        d = sample(sim1_spec(seed))
        cs = summarize(d)
        S = pooled_scatter(d, cs)
        for delta in cs.deltas:
            for lam in lambda_grid(2.5, 14, 0.8).values:
                try:
                    fit_lpd(S, delta, float(lam))
                except LpInfeasibleError:
                    pass
    assert len(pivots) == 476


def test_lpd_seed_enters_the_first_lp_and_saves_simplex_calls(monkeypatch):
    from glda.select import lambda_grid
    from glda.simulate import sample, sim1_spec

    d = sample(sim1_spec(0))
    cs = summarize(d)
    S = pooled_scatter(d, cs)
    M, p = S.matrix, S.p
    grid = lambda_grid(2.5, 14, 0.8).values
    lam = float(grid[9])
    assert lam == pytest.approx(0.698, abs=5e-4)
    real_pg, real_lp = solvers._proximal_gradient, solvers.InequalityLP.append
    seeds, lps, sols = [], [], []

    def pg_spy(*args):
        X, report = real_pg(*args)
        seeds.append(X[:, 0].copy())
        return X, report

    def lp_spy(lp, A, b):
        lps.append((A, b))
        x = real_lp(lp, A, b)
        sols.append(x)
        return x

    monkeypatch.setattr(solvers, "_proximal_gradient", pg_spy)
    monkeypatch.setattr(solvers.InequalityLP, "append", lp_spy)
    checked = 0
    for delta in cs.deltas:
        seeds.clear()
        lps.clear()
        try:
            fit_lpd(S, delta, lam)
        except LpInfeasibleError:
            continue
        checked += 1
        (seed,) = seeds
        support = np.flatnonzero(seed)
        assert support.size > 0
        A, b = lps[0]
        # row i of the first LP is one side s (S_j b - delta_j) <= lam of
        # feature j's box: the side the seed's sign makes tight on its
        # support, the side violated at b = 0 elsewhere, one row per feature
        dist = np.abs(A[:, None, :p] - np.vstack([M, -M])[None]).max(axis=2)
        hit = dist.argmin(axis=1)
        assert np.all(dist[np.arange(hit.size), hit] <= 1e-12 * np.abs(M).max())
        rows, s = hit % p, np.where(hit < p, 1.0, -1.0)
        assert np.array_equal(A[:, p:], -A[:, :p])
        assert np.array_equal(b, lam + s * delta[rows])
        assert np.array_equal(np.sort(rows), np.unique(rows))
        side = np.where(seed != 0, -np.sign(seed), -np.sign(delta) * (np.abs(delta) > lam))
        assert np.array_equal(np.sort(rows), np.flatnonzero(side))
        assert np.array_equal(s, side[rows])
    assert checked > 0

    # count the simplex calls over the grid's feasible boxes, seeded and
    # not; each LP after a fit's first appends only sides that the solution
    # before it breaks, never their mirrors
    seeded, later, feasible = 0, 0, []
    for delta in cs.deltas:
        for g in grid:
            lps.clear()
            sols.clear()
            try:
                fit_lpd(S, delta, float(g))
            except LpInfeasibleError:
                continue
            finally:
                seeded += len(lps)
            feasible.append((delta, float(g)))
            for (A, b), x in zip(lps[1:], sols):
                assert np.all(A @ x > b)
            later += len(lps) - 1
    assert later > 0
    monkeypatch.setattr(solvers, "_proximal_gradient", _empty_seed)
    lps.clear()
    for delta, g in feasible:
        fit_lpd(S, delta, g)
    assert seeded < len(lps)


def test_lpd_requires_positive_lambda():
    with pytest.raises(ValueError):
        fit_lpd(np.eye(2), np.array([1.0, 1.0]), 0.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf, -0.1])
@pytest.mark.parametrize("fit", [fit_grouped, fit_single_lasso, fit_lpd])
def test_fits_reject_negative_or_non_finite_lambda(fit, lam):
    with pytest.raises(ValueError, match="lambdas must be"):
        fit(np.eye(2), np.array([1.0, 1.0]), lam)


@pytest.mark.parametrize("lam", [np.full(2, 0.5), [0.5]], ids=["per-feature", "one-entry"])
@pytest.mark.parametrize(
    "fit",
    [
        fit_grouped,
        fit_single_lasso,
        fit_lpd,
        lambda S, D, lam: fit_directions("grouped", S, D, lam),
        lambda S, D, lam: fit_directions("single", S, D, lam),
        lambda S, D, lam: fit_directions("lpd", S, D, lam),
        lambda S, D, lam: kkt_residual(S, D, lam, DirectionSet(np.zeros((2, 1)))),
    ],
    ids=["grouped", "single", "lpd", "directions-grouped", "directions-single", "directions-lpd", "kkt"],
)
def test_fits_take_one_lambda(fit, lam):
    # the penalty is one level for every feature; a vector is refused, even of one entry
    with pytest.raises(ValueError, match="lambda must be a single number"):
        fit(np.eye(2), np.array([1.0, 1.0]), lam)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: fit_grouped(np.eye(3), [[np.nan, 1.0, 0.0]], 0.1), "deltas must be finite"),
        (lambda: fit_single_lasso(np.eye(3), [np.nan, 1.0, 0.0], 0.1), "deltas must be finite"),
        (lambda: fit_lpd(np.eye(3), [np.nan, 1.0, 0.0], 0.1), "deltas must be finite"),
        (lambda: fit_directions("lpd", np.eye(3), [[np.inf, 1.0, 0.0]], 0.1), "deltas must be finite"),
        (lambda: oracle_restricted_fit(np.eye(3), [np.nan, 1.0, 0.0], [0, 1]), "deltas must be finite"),
        (
            lambda: kkt_residual(np.eye(3), [[np.nan, 1.0, 0.0]], 0.1, DirectionSet(np.zeros((3, 1)))),
            "deltas must be finite",
        ),
        (lambda: PooledScatter(factor=[[1.0, np.inf], [0.0, 1.0]]), "scatter factor must be finite"),
        (lambda: as_scatter([[np.nan, 0.0], [0.0, 1.0]]), "scatter must be finite"),
        (lambda: as_scatter([[np.inf, 0.0], [0.0, 1.0]]), "scatter must be finite"),
        (lambda: fit_grouped([[1.0, 0.0], [0.0, np.nan]], [[1.0, 1.0]], 0.1), "scatter must be finite"),
    ],
    ids=[
        "grouped-delta",
        "single-delta",
        "lpd-delta",
        "directions-delta",
        "oracle-delta",
        "kkt-delta",
        "factor-inf",
        "scatter-nan",
        "scatter-inf",
        "grouped-scatter",
    ],
)
def test_non_finite_contrasts_and_scatters_are_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


_PARAMS = dict(sigma_max_plus=1.0, delta_total=1.0, K=3, N=103, pi_bar=2.0, t=1.0)


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: lambda_max([[np.nan, 1.0, 0.0]]), "deltas must be finite"),
        (lambda: lambda_max([[np.inf, 1.0, 0.0]]), "deltas must be finite"),
        (lambda: TheoreticalLambdaParams(**{**_PARAMS, "pi_bar": np.nan}), "must be finite"),
        (lambda: TheoreticalLambdaParams(**{**_PARAMS, "t": np.nan}), "must be finite"),
        (lambda: TheoreticalLambdaParams(**{**_PARAMS, "delta_total": np.inf}), "must be finite"),
        (lambda: pi_bar_from_priors([np.nan, 0.5]), "positive finite priors"),
        (lambda: pi_bar_from_priors([0.5, np.inf]), "positive finite priors"),
        (lambda: bayes_error_binary(np.nan), "finite and nonnegative"),
        (lambda: bayes_error_binary(np.inf), "finite and nonnegative"),
    ],
    ids=[
        "lambda-max-nan",
        "lambda-max-inf",
        "theory-pi-bar-nan",
        "theory-t-nan",
        "theory-delta-inf",
        "priors-nan",
        "priors-inf",
        "bayes-nan",
        "bayes-inf",
    ],
)
def test_non_finite_inputs_to_the_penalty_and_error_helpers_are_rejected(call, match):
    with pytest.raises(ValueError, match=match):
        call()


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
    lam = np.linalg.norm(D, axis=0).max() + 0.1
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


def test_oracle_restricted_rejects_support_outside_features():
    for support in ([-1], [3]):
        with pytest.raises(ValueError, match="support indices"):
            oracle_restricted_fit(np.eye(3), np.array([1.0, 2.0, 3.0]), support)


def test_fits_on_pooled_scatter_never_form_the_matrix():
    rng = np.random.default_rng(8)
    d = Dataset(rng.normal(size=(30, 8)), np.array([1, 2, 3] * 10))
    cs = summarize(d)
    S = pooled_scatter(d, cs)
    lam = 0.5 * float(np.abs(cs.deltas).max())
    for estimator in ("grouped", "single", "lpd"):
        ds, _ = fit_directions(estimator, S, cs.deltas, lam)
    pseudoinverse_lda_fit(S, cs)
    kkt_residual(S, cs.deltas, lam, ds)
    oracle_restricted_fit(S, cs.deltas[0], [0, 3])
    assert "matrix" not in vars(S)


def test_oracle_restricted_singular_block():
    S = np.ones((2, 2))
    with pytest.raises(np.linalg.LinAlgError):
        oracle_restricted_fit(S, np.array([1.0, 2.0]), [0, 1])


def test_oracle_block_is_singular_under_the_scatters_null_cut():
    # the block's eigenvalue ratio is 9e-12, below NULL_CUT (1e-10)
    S = PooledScatter(factor=np.diag([1.0, 3e-6]))
    with pytest.raises(np.linalg.LinAlgError):
        oracle_restricted_fit(S, np.array([1.0, 1.0]), [0, 1])
    assert oracle_restricted_fit(S, np.array([1.0, 1.0]), [0]).tolist() == [1.0, 0.0]


# --- unbounded certificate ---------------------------------------------
#
# With p > N - K the scatter is singular and, below a data-dependent
# penalty, the objective has no finite minimiser. The LPD threshold
# lam*_k = min_b |S b - delta_k|_inf brackets the grouped one between
# max_k lam*_k and sqrt(K') max_k lam*_k, and is exactly the single one.


def _lp_threshold(S, delta):
    from scipy.optimize import linprog

    M, p = S.matrix, S.p
    one = np.ones((p, 1))
    res = linprog(
        np.r_[np.zeros(p), 1.0],
        A_ub=np.block([[M, -one], [-M, -one]]),
        b_ub=np.r_[delta, -delta],
        bounds=[(None, None)] * p + [(0.0, None)],
        method="highs",
    )
    assert res.status == 0
    return float(res.fun)


@pytest.fixture(scope="module", params=["sim1-0", "sim1-1", "sim1-2", "random"])
def singular_problem(request):
    """(S, deltas, per-contrast LP thresholds) on a problem with p > N - K."""
    from glda.simulate import sample, sim1_spec

    if request.param == "random":
        rng = np.random.default_rng(3)
        d = Dataset(rng.normal(size=(12, 15)), np.array([1, 2, 3] * 4))
    else:
        d = sample(sim1_spec(int(request.param[-1])))
    cs = summarize(d)
    S = pooled_scatter(d, cs)
    assert S.p > S.rank
    return S, cs.deltas, np.array([_lp_threshold(S, dk) for dk in cs.deltas])


def assert_certifying_ray(S, D, lam, X, ray):
    """The ray is a unit null-space direction of positive gain along which f falls."""
    ray = ray.reshape(X.shape)
    assert np.linalg.norm(ray) == pytest.approx(1.0)
    assert np.linalg.norm(S.factor @ ray) <= 1e-10 * np.sqrt(S.top_eigenvalue)
    gain = np.sum(D.T * ray) - lam * np.sum(np.linalg.norm(ray, axis=1))
    assert gain > 0
    step = max(1.0, float(np.linalg.norm(X)))
    f = [grouped_objective(S.matrix, D, lam, X + s * step * ray) for s in (0, 1, 10, 100, 1000)]
    assert np.all(np.diff(f) < 0)


def assert_farkas_ray(S, delta, lam, ray):
    """A Farkas vector for an empty LPD box: a certifying ray of the single objective."""
    assert ray is not None and ray.shape == delta.shape
    assert_certifying_ray(S, delta[None, :], lam, np.zeros((delta.size, 1)), ray)


def test_grouped_status_follows_the_lp_bracket(singular_problem):
    S, D, thresholds = singular_problem
    lower = thresholds.max()
    upper = np.sqrt(D.shape[0]) * lower
    for f in (0.1, 0.5, 0.9, 0.99):
        ds, rep = fit_grouped(S, D, f * lower)
        assert rep.status == "unbounded", f
        assert np.all(np.isfinite(ds.matrix))
        assert_certifying_ray(S, D, f * lower, ds.matrix, rep.ray)
    for f in (1.01, 1.1, 2.0):
        _, rep = fit_grouped(S, D, f * upper)
        assert rep.status == "optimal", f
        assert rep.ray is None


def test_single_unbounded_exactly_when_lpd_infeasible(singular_problem):
    S, D, thresholds = singular_problem
    for delta, lam_star in zip(D, thresholds):
        for f in (0.5, 0.99, 1.01, 1.5):
            lam = f * lam_star
            beta, rep = fit_single_lasso(S, delta, lam)
            try:
                fit_lpd(S, delta, lam)
                infeasible = False
            except LpInfeasibleError:
                infeasible = True
            assert infeasible == (f < 1)
            assert (rep.status == "unbounded") == infeasible, f
            if infeasible:
                assert rep.ray.shape == beta.shape
                assert_certifying_ray(S, delta[None, :], lam, beta[:, None], rep.ray)


def _tiny_singular_problem():
    # N - K = 2 with p = 6: delta has a component in the null space of S
    rng = np.random.default_rng(0)
    d = Dataset(rng.normal(size=(5, 6)), np.array([1, 1, 2, 2, 3]))
    cs = summarize(d)
    return pooled_scatter(d, cs), cs.deltas


def test_unbounded_at_zero_penalty_stops_early():
    # at lam = 0 the null-space projection of G is itself a ray, so the fit
    # ends before its first iteration, at x = 0
    S, D = _tiny_singular_problem()
    ds, rep = fit_grouped(S, D, 0.0)
    assert rep.status == "unbounded" and rep.iterations == 0
    assert not ds.matrix.any()
    assert_certifying_ray(S, D, 0.0, ds.matrix, rep.ray)


def test_unbounded_past_the_projection_of_g_is_found_at_a_checkpoint():
    # at lam = 0.8 the projection of G loses to the penalty, yet the
    # objective is still unbounded: a later checkpoint finds the ray
    S, D = _tiny_singular_problem()
    lam = 0.8
    G = D.T
    assert solvers._recession_ray(S, G, lam, G) is None
    ds, rep = fit_grouped(S, D, lam)
    assert rep.status == "unbounded"
    assert rep.iterations > 0 and rep.iterations % 25 == 0
    assert_certifying_ray(S, D, lam, ds.matrix, rep.ray)


def test_default_path_fits_certified_before_the_first_iteration():
    # design 1, seed 0, default 50-point path: the projection of G certifies
    # 36 of the 38 unbounded grouped fits and 69 of the 74 unbounded single
    # fits at iteration 0, and the test at x = 0 ends the 1 grouped and 7
    # single fits whose solution is zero there
    from glda.select import lambda_grid, lambda_max
    from glda.simulate import sample, sim1_spec

    d = sample(sim1_spec(0))
    cs = summarize(d)
    S = pooled_scatter(d, cs)
    for estimator, unbounded, at_zero in (("grouped", 38, 37), ("single", 74, 76)):
        fits = []
        for lam in lambda_grid(lambda_max(cs.deltas), 50, 3.0).values:
            ds, reports = fit_directions(estimator, S, cs.deltas, float(lam))
            fits += zip(ds.matrix.T if estimator == "single" else [ds.matrix], reports)
        assert sum(r.status == "unbounded" for _, r in fits) == unbounded, estimator
        assert sum(r.iterations == 0 for _, r in fits) == at_zero, estimator
        assert all(
            r.status == "unbounded" or (r.status == "optimal" and not X.any())
            for X, r in fits
            if r.iterations == 0
        ), estimator


def test_fits_at_or_above_lambda_max_end_at_zero_before_iterating():
    # at lam >= lambda_max = max_j ||delta_j|| the KKT conditions hold at 0,
    # so no iteration is taken
    from glda.select import lambda_max
    from glda.simulate import sample, sim1_spec

    d = sample(sim1_spec(0))
    cs = summarize(d)
    S = pooled_scatter(d, cs)
    lmax = lambda_max(cs.deltas)
    for lam in (lmax, 1.5 * lmax):
        for estimator in ("grouped", "single"):
            ds, reports = fit_directions(estimator, S, cs.deltas, lam)
            assert not ds.matrix.any(), (estimator, lam)
            for rep in reports:
                assert rep.status == "optimal" and rep.iterations == 0, (estimator, lam)
                assert rep.objective_trace.tolist() == [0.0]


def test_singular_scatter_with_delta_in_its_range_is_bounded():
    # at lam = 0 the iterates stay in the range of S, so their null-space
    # projections are rounding noise and must not pass for a ray
    for seed in range(20):
        rng = np.random.default_rng(seed)
        S = PooledScatter(factor=rng.normal(size=(5, 20)))
        D = S.dot(rng.normal(size=(20, 2))).T
        _, rep = fit_grouped(S, D, 0.0)
        assert rep.status == "optimal", seed


def test_full_rank_scatter_is_never_unbounded(monkeypatch):
    # a nonsingular S always has a finite minimiser: only the budget can stop it
    rng = np.random.default_rng(9)
    A = rng.normal(size=(10, 6))
    monkeypatch.setattr(solvers, "_MAX_ITER", 60)
    _, rep = fit_grouped(A.T @ A / 10, rng.normal(size=(2, 6)), 0.0)
    assert rep.status in ("optimal", "max_iter")


# --- report invariants ---------------------------------------------------


def test_report_rejects_increasing_objective():
    with pytest.raises(ValueError):
        SolverReport(2, np.array([0.0, 1.0]), 0.0, "optimal")


def test_report_trace_cannot_be_changed_after_its_check():
    trace = np.array([1.0, 0.5])
    rep = SolverReport(1, trace, 0.0, "optimal")
    trace[1] = 2.0
    assert rep.objective_trace.tolist() == [1.0, 0.5]
    assert not rep.objective_trace.flags.writeable


def test_report_status_and_ray_invariants():
    assert SolverReport(1, np.zeros(2), 0.0, "optimal").converged
    assert not SolverReport(1, np.zeros(2), 0.0, "max_iter").converged
    ray = np.array([0.6, 0.8])
    rep = SolverReport(1, np.zeros(2), 0.0, "unbounded", ray)
    assert not rep.converged and not rep.ray.flags.writeable
    ray[0] = 1.0
    assert rep.ray.tolist() == [0.6, 0.8]
    with pytest.raises(ValueError, match="unknown solver status"):
        SolverReport(1, np.zeros(2), 0.0, "converged")
    with pytest.raises(ValueError, match="ray"):
        SolverReport(1, np.zeros(2), 0.0, "optimal", ray)
    with pytest.raises(ValueError, match="ray"):
        SolverReport(1, np.zeros(2), 0.0, "unbounded")


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


def _theory_params(**changes):
    base = dict(sigma_max_plus=1.0, delta_total=10.0, K=3, N=60, pi_bar=2.0, t=1.0)
    return TheoreticalLambdaParams(**{**base, **changes})


@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda: SolverReport(1, np.zeros(2), -1.0, "optimal"), "kkt_residual must be nonnegative"),
        (lambda: _theory_params(sigma_max_plus=0.0), "parameters must be strictly positive"),
        (lambda: _theory_params(t=-1.0), "t must be nonnegative"),
        (lambda: _theory_params(N=3), "need N > K"),
        (lambda: kkt_residual(np.eye(3), np.ones((2, 3)), 0.1, DirectionSet(np.zeros((3, 1)))),
         "direction set shape does not match deltas"),
    ],
    ids=["negative-kkt", "zero-parameter", "negative-t", "n-not-above-k", "kkt-shape"],
)
def test_solvers_validators(make, reason):
    with pytest.raises(ValueError, match=reason):
        make()
