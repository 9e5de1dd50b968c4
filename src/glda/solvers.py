"""Direction estimators for sparse multi-class discriminant analysis.

Three routes to the discriminant directions:

* ``fit_grouped``   - joint estimator coupling all K-1 directions through a
  per-feature (row-wise) Euclidean norm penalty, solved by accelerated
  proximal gradient with function-value adaptive restart.
* ``fit_single_lasso`` - one direction at a time under an l1 penalty: the
  grouped problem with a single direction, so one-entry groups.
* ``fit_lpd``       - one direction at a time, minimum l1 norm subject to an
  l-infinity residual box, solved as a linear program by the internal
  dense simplex.

``fit_directions`` picks one of the three by name and fits all K-1
directions. Plus the supporting pieces: the group proximal operator, a
power-iteration Lipschitz bound, hard thresholding for support recovery,
the theory-driven penalty level, KKT diagnostics and the
support-restricted oracle fit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import DirectionSet, scatter_matrix
from .simplex import LpInfeasibleError, LpNumericalError, solve_inequality_lp

__all__ = [
    "SolverOptions",
    "SolverReport",
    "TheoreticalLambdaParams",
    "group_prox",
    "lipschitz_upper",
    "fit_grouped",
    "fit_single_lasso",
    "fit_lpd",
    "fit_directions",
    "hard_threshold",
    "theoretical_lambda",
    "pi_bar_from_priors",
    "kkt_residual",
    "oracle_restricted_fit",
    "LpInfeasibleError",
]

# KKT residual (in units of the internal data scale) below which a run is
# flagged converged; the early-exit threshold scales with opts.tol so a
# tighter tol buys a tighter solution.
_KKT_CONVERGED = 1e-5


# Power iteration for the Lipschitz bound. The Rayleigh quotient approaches
# the top eigenvalue from below, hence the safety margin.
_LIPSCHITZ_BOOST = 1.05
_LIPSCHITZ_ITERS = 50
_LIPSCHITZ_RTOL = 1e-10


def _kkt_exit(opts):
    return max(100.0 * opts.tol, 1e-13)


@dataclass(frozen=True)
class SolverOptions:
    """Iteration controls shared by the proximal-gradient fits."""

    max_iter: int = 5000
    tol: float = 1e-8

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.tol <= 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class SolverReport:
    iterations: int
    objective_trace: np.ndarray
    kkt_residual: float
    converged: bool

    def __post_init__(self):
        trace = np.asarray(self.objective_trace, dtype=float)
        object.__setattr__(self, "objective_trace", trace)
        if trace.size and trace[-1] > trace[0] + 1e-12:
            raise ValueError("objective increased over the run")
        if self.kkt_residual < 0:
            raise ValueError("kkt_residual must be nonnegative")


@dataclass(frozen=True)
class TheoreticalLambdaParams:
    """Ingredients of the theory-driven uniform penalty level.

    ``delta_total`` is the sum over contrasts of the Mahalanobis gaps
    <Sigma^{-1} delta_k, delta_k>; it must be supplied by the caller (exact
    in simulations, a plug-in estimate otherwise). ``t`` is the tail
    parameter, conventionally log(max(p, N)).
    """

    sigma_max_plus: float
    delta_total: float
    K: int
    N: int
    pi_bar: float
    t: float

    def __post_init__(self):
        vals = (self.sigma_max_plus, self.delta_total, self.K, self.N, self.pi_bar)
        if any(v <= 0 for v in vals):
            raise ValueError("parameters must be strictly positive")
        if self.t < 0:
            raise ValueError("t must be nonnegative")
        if self.N <= self.K:
            raise ValueError("need N > K")


def group_prox(x, lam):
    """argmin_v 0.5||v - x||^2 + lam ||v||, i.e. the group soft-threshold.

    Returns ((||x|| - lam)_+ / ||x||) * x, the zero vector whenever
    ||x|| <= lam (including x = 0). This is the step the solvers take, so
    a norm within a relative 1e-12 above lam is also snapped to zero.
    """
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return _prox_rows(np.asarray(x, dtype=float)[None, :], np.array([lam], dtype=float))[0]


def lipschitz_upper(S):
    """Upper bound on the largest eigenvalue of S via power iteration.

    Returns 1.05 times the Rayleigh-quotient estimate (floored at machine
    epsilon) after at most 50 iterations.
    """
    M = scatter_matrix(S)
    p = M.shape[0]
    v = 1.0 + 1e-6 * np.arange(p)
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(_LIPSCHITZ_ITERS):
        w = M @ v
        nw = np.linalg.norm(w)
        if nw <= np.finfo(float).tiny:
            est = 0.0
            break
        new = float(v @ w)
        v = w / nw
        if abs(new - est) <= _LIPSCHITZ_RTOL * max(abs(new), 1.0):
            est = new
            break
        est = new
    return _LIPSCHITZ_BOOST * max(est, np.finfo(float).eps)


def _row_norms(M):
    return np.linalg.norm(M, axis=1)


def _grouped_objective(Smat, X, G, lam):
    SX = Smat @ X
    return 0.5 * float(np.sum(X * SX)) - float(np.sum(G * X)) + float(lam @ _row_norms(X))


def _grouped_kkt(Smat, X, G, lam):
    R = Smat @ X - G
    rn = _row_norms(X)
    active = rn > 0
    out = np.maximum(_row_norms(R) - lam, 0.0)
    if active.any():
        adj = R[active] + (lam[active] / rn[active])[:, None] * X[active]
        out[active] = _row_norms(adj)
    return float(out.max(initial=0.0))


def _prox_rows(Z, thr):
    # rows at the threshold boundary are snapped to zero (1e-12 relative
    # margin) so penalties at exactly lambda_max produce exact zeros
    nrm = _row_norms(Z)
    fac = np.zeros_like(nrm)
    keep = nrm > thr * (1.0 + 1e-12)
    fac[keep] = (nrm[keep] - thr[keep]) / nrm[keep]
    return Z * fac[:, None]


def _grouped_problem(S, deltas, lambdas, positive=False):
    """Validated (scatter matrix, p x K' contrast matrix, per-feature penalties).

    Every fit checks its (S, deltas, lambda) here. Penalties must be finite
    and nonnegative, or strictly positive when ``positive`` is set.
    """
    Smat = scatter_matrix(S)
    p = Smat.shape[0]
    D = np.asarray(deltas, dtype=float)
    if D.ndim == 1:
        D = D[None, :]
    if D.ndim != 2 or D.shape[1] != p:
        raise ValueError("deltas must be K-1 vectors of length p")
    G = np.ascontiguousarray(D.T)  # p x K'
    lam = np.broadcast_to(np.asarray(lambdas, dtype=float), (p,)).astype(float)
    if not np.all(np.isfinite(lam)):
        raise ValueError("lambdas must be finite")
    if np.any(lam <= 0 if positive else lam < 0):
        raise ValueError("lambdas must be positive" if positive else "lambdas must be nonnegative")
    return Smat, G, lam


def _proximal_gradient(Smat, G, lam, opts):
    """Accelerated proximal gradient on the p x K' grouped problem.

    Returns the p x K' solution and its SolverReport.
    """
    scale = max(float(np.abs(G).max(initial=0.0)), float(lam.max(initial=0.0)))
    if scale == 0.0:
        return np.zeros_like(G), SolverReport(0, np.zeros(1), 0.0, True)
    Gs = G / scale
    ls = lam / scale

    L = lipschitz_upper(Smat)
    kkt_exit = _kkt_exit(opts)
    x = np.zeros_like(Gs)
    y = x
    t = 1.0
    fx = _grouped_objective(Smat, x, Gs, ls)
    trace = [fx]
    stall = 0
    converged = False
    iterations = 0
    for m in range(1, opts.max_iter + 1):
        iterations = m
        z = y - (Smat @ y - Gs) / L
        xn = _prox_rows(z, ls / L)
        fn = _grouped_objective(Smat, xn, Gs, ls)
        if fn > fx:
            t = 1.0
            guard = 0
            while True:
                z = x - (Smat @ x - Gs) / L
                xn = _prox_rows(z, ls / L)
                fn = _grouped_objective(Smat, xn, Gs, ls)
                if fn <= fx + 1e-15 * max(1.0, abs(fx)) or guard >= 60:
                    break
                L *= 2.0  # Lipschitz estimate was too small
                guard += 1
        tn = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        y = xn + ((t - 1.0) / tn) * (xn - x)
        rel = abs(fn - fx) / max(1.0, abs(fx), abs(fn))
        stall = stall + 1 if rel < opts.tol else 0
        x, fx, t = xn, fn, tn
        trace.append(fx)
        if stall >= 2 or m % 25 == 0:
            if _grouped_kkt(Smat, x, Gs, ls) <= kkt_exit:
                converged = True
                break
            stall = 0

    kkt_scaled = _grouped_kkt(Smat, x, Gs, ls)
    converged = converged or kkt_scaled <= _KKT_CONVERGED
    report = SolverReport(
        iterations=iterations,
        objective_trace=np.asarray(trace) * scale * scale,
        kkt_residual=kkt_scaled * scale,
        converged=converged,
    )
    return x * scale, report


def fit_grouped(S, deltas, lambdas, opts=None):
    """Jointly fit all K-1 directions under row-wise group penalties.

    Minimizes sum_k 0.5 b_k' S b_k - delta_k' b_k + sum_j lam_j ||row_j||
    over the p x (K-1) direction matrix. Accelerated proximal gradient
    with momentum t_{m+1} = (1 + sqrt(1 + 4 t_m^2)) / 2; on an objective
    increase the momentum is reset and the step recomputed from the last
    iterate, which keeps the recorded objective trace monotone.

    Returns (DirectionSet, SolverReport). A run that exhausts max_iter is
    returned with converged=False rather than raising.
    """
    X, report = _proximal_gradient(*_grouped_problem(S, deltas, lambdas), opts or SolverOptions())
    return DirectionSet(X), report


def fit_single_lasso(S, delta, lam, opts=None):
    """Fit one direction: minimize 0.5 b'Sb - delta'b + lam |b|_1.

    This is the grouped problem with a single direction, whose row norms
    are |b_j|. Returns (vector, report).
    """
    problem = _grouped_problem(S, np.reshape(delta, (1, -1)), lam)
    X, report = _proximal_gradient(*problem, opts or SolverOptions())
    return X[:, 0], report


def fit_lpd(S, delta, lam):
    """Minimum-l1 direction subject to |S b - delta|_inf <= lam.

    Solved as a linear program over the split b = u - v (2p variables,
    two inequality rows per feature) with the internal dense simplex.
    Constraint rows are activated lazily: start from the rows violated at
    b = 0, re-solve, and add whatever the current iterate violates until
    the full constraint box holds, which yields the exact LP optimum.

    Raises LpInfeasibleError when the constraint set is empty.
    """
    Smat, G, lam = _grouped_problem(S, np.reshape(delta, (1, -1)), lam, positive=True)
    p = Smat.shape[0]
    d = G[:, 0]

    active = np.abs(d) > lam
    if not active.any():
        return np.zeros(p)
    c = np.ones(2 * p)
    for _ in range(p + 1):
        idx = np.flatnonzero(active)
        rows = Smat[idx]
        A = np.vstack([np.hstack([rows, -rows]), np.hstack([-rows, rows])])
        b = np.concatenate([lam[idx] + d[idx], lam[idx] - d[idx]])
        try:
            x, _ = solve_inequality_lp(c, A, b)
        except LpInfeasibleError:
            raise LpInfeasibleError("LPD infeasible at this lambda") from None
        beta = x[:p] - x[p:]
        viol = (np.abs(Smat @ beta - d) > lam + 1e-9) & ~active
        if not viol.any():
            return beta
        active |= viol
    raise LpNumericalError("constraint activation failed to settle")


def fit_directions(estimator, S, deltas, lam):
    """Fit the K-1 directions with a direction estimator at penalty lam.

    ``grouped`` is one joint fit; ``single`` and ``lpd`` fit each contrast
    on its own. Returns (DirectionSet, reports) with one SolverReport per
    proximal-gradient fit and none for ``lpd``. The fits use the default
    SolverOptions. Raises LpInfeasibleError when an LPD direction is
    infeasible.
    """
    if estimator == "grouped":
        ds, report = fit_grouped(S, deltas, lam)
        return ds, [report]
    _, G, _ = _grouped_problem(S, deltas, lam)
    if estimator == "single":
        fits = [fit_single_lasso(S, delta, lam) for delta in G.T]
        return DirectionSet(np.column_stack([b for b, _ in fits])), [r for _, r in fits]
    if estimator == "lpd":
        return DirectionSet(np.column_stack([fit_lpd(S, delta, lam) for delta in G.T])), []
    raise ValueError(f"estimator {estimator} does not produce directions")


def hard_threshold(ds: DirectionSet, zeta: float) -> DirectionSet:
    """Zero every entry with magnitude strictly below zeta (boundary kept)."""
    if not zeta >= 0:
        raise ValueError("zeta must be nonnegative")
    M = ds.matrix
    return DirectionSet(np.where(np.abs(M) >= zeta, M, 0.0))


def theoretical_lambda(params: TheoreticalLambdaParams) -> float:
    """Uniform penalty level 2 sqrt(pibar Sigma+_max (Delta v K) t / (N - K))."""
    inner = (
        params.pi_bar
        * params.sigma_max_plus
        * max(params.delta_total, float(params.K))
        * params.t
        / (params.N - params.K)
    )
    return 2.0 * math.sqrt(inner)


def pi_bar_from_priors(priors) -> float:
    """max over k >= 2 of sqrt((pi_1 + pi_k) / (pi_1 pi_k))."""
    pr = np.asarray(priors, dtype=float)
    if pr.size < 2 or np.any(pr <= 0):
        raise ValueError("need at least two positive priors")
    return float(np.sqrt((pr[0] + pr[1:]) / (pr[0] * pr[1:])).max())


def kkt_residual(S, deltas, lambdas, ds: DirectionSet) -> float:
    """Largest violation of the group-penalty stationarity conditions.

    For zero rows: (||row_j of (S Phi - D)|| - lam_j)_+ ; for active rows
    the norm of the full stationarity expression.
    """
    Smat, G, lam = _grouped_problem(S, deltas, lambdas)
    if ds.matrix.shape != G.shape:
        raise ValueError("direction set shape does not match deltas")
    return _grouped_kkt(Smat, ds.matrix, G, lam)


def oracle_restricted_fit(S, delta, support) -> np.ndarray:
    """Solve the scatter system restricted to a known support, zero elsewhere."""
    Smat, G, _ = _grouped_problem(S, np.reshape(delta, (1, -1)), 0.0)
    d = G[:, 0]
    idx = np.asarray(sorted(support), dtype=int)
    beta = np.zeros(d.size)
    if idx.size == 0:
        return beta
    block = Smat[np.ix_(idx, idx)]
    if np.linalg.cond(block) >= 1e12:
        raise np.linalg.LinAlgError("restricted scatter block is singular")
    beta[idx] = np.linalg.solve(block, d[idx])
    return beta
