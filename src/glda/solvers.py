"""Direction estimators for sparse multi-class discriminant analysis.

Three routes to the discriminant directions:

* ``fit_grouped``   - joint estimator coupling all K-1 directions through a
  per-feature (row-wise) Euclidean norm penalty, solved by accelerated
  proximal gradient with function-value adaptive restart, and finished by
  Newton's method on the stationarity equations of the support once that
  support has settled.
* ``fit_single_lasso`` - one direction at a time under an l1 penalty: the
  grouped problem with a single direction, so one-entry groups.
* ``fit_lpd``       - one direction at a time, minimum l1 norm subject to an
  l-infinity residual box, solved as a linear program by the internal
  dense simplex, which keeps its tableau as constraint rows are activated
  and resumes from the last basis. When S is singular an empty box is
  first looked for with the ``single`` engine; otherwise the simplex's
  constraint activation starts from the rows violated at 0 plus the
  support of that ``single`` fit. Every ``LpInfeasibleError`` carries a
  null-space Farkas ray as ``ray``, whether the ``single`` engine or the
  simplex found the box empty.

``fit_directions`` picks one of the three by name and fits all K-1
directions. Plus the supporting pieces: the group proximal operator, hard
thresholding for support recovery, the theory-driven penalty level, KKT
diagnostics and the support-restricted oracle fit.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import NULL_CUT, DirectionSet, as_scatter
from .simplex import InequalityLP, LpInfeasibleError, LpNumericalError

__all__ = [
    "SolverOptions",
    "SolverReport",
    "TheoreticalLambdaParams",
    "group_prox",
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
    "LpNumericalError",
]

# Iterations the support must hold still before the first Newton attempt;
# each attempt that does not land doubles it.
_NEWTON_STEADY = 3

# A row whose norm is within this relative margin above its threshold is
# snapped to zero, so penalties at exactly lambda_max produce exact zeros.
_SNAP = 1.0 + 1e-12

# A projected ray certifies an unbounded objective when its gain per unit
# norm exceeds this fraction of ||G||, the largest gain any unit ray can have.
_RAY_GAIN = 1e-9

STATUSES = ("optimal", "max_iter", "unbounded")


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
    """How a proximal-gradient fit ended.

    ``status`` is ``optimal`` (KKT residual within tolerance), ``max_iter``
    (the iteration budget ran out first) or ``unbounded`` (no finite
    minimiser). An unbounded report carries ``ray``: a unit-norm direction
    d, shaped like the coefficients, with S d = 0 along which the objective
    falls without bound. Every other report has ``ray`` None.
    """

    iterations: int
    objective_trace: np.ndarray
    kkt_residual: float
    status: str
    ray: np.ndarray | None = None

    def __post_init__(self):
        trace = np.asarray(self.objective_trace, dtype=float)
        object.__setattr__(self, "objective_trace", trace)
        if trace.size and trace[-1] > trace[0] + 1e-12:
            raise ValueError("objective increased over the run")
        if self.kkt_residual < 0:
            raise ValueError("kkt_residual must be nonnegative")
        if self.status not in STATUSES:
            raise ValueError(f"unknown solver status {self.status!r}")
        if (self.ray is None) == (self.status == "unbounded"):
            raise ValueError("a ray comes with the unbounded status and only with it")
        if self.ray is not None:
            ray = np.array(self.ray, dtype=float)
            ray.setflags(write=False)
            object.__setattr__(self, "ray", ray)

    @property
    def converged(self):
        return self.status == "optimal"


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
    thr = np.array([lam], dtype=float)
    rows, _, _ = _prox_rows(np.asarray(x, dtype=float)[None, :], thr, thr * _SNAP)
    return rows[0]


def _row_norms(M):
    """Euclidean norm of each row: np.linalg.norm(M, axis=1) without its dispatch.

    The same squares are summed by the same reduction, so the bytes match.
    """
    return np.sqrt(np.add.reduce(M * M, axis=1))


def _grouped_objective(S, X, G, lam, FX=None, norms=None):
    # the proximal-gradient loop passes FX = F @ X and the row norms of X,
    # which its proximal step already knows
    if FX is None:
        FX = S.factor @ X
    if norms is None:
        norms = _row_norms(X)
    return 0.5 * float(np.vdot(FX, FX)) - float(np.vdot(G, X)) + float(lam @ norms)


def _grouped_kkt(S, X, G, lam, FX=None):
    R = (S.dot(X) if FX is None else S.factor.T @ FX) - G
    rn = _row_norms(X)
    active = rn > 0
    # on a zero row the adjusted residual is R itself
    nrm = _row_norms(R + np.divide(lam, rn, out=np.zeros(rn.shape), where=active)[:, None] * X)
    return float(np.where(active, nrm, np.maximum(nrm - lam, 0.0)).max(initial=0.0))


def _prox_rows(Z, thr, cut):
    # group soft-threshold of each row at thr; rows with norm at most
    # cut = thr * _SNAP are zeroed (callers compute cut once per threshold).
    # Returns the rows, the mask of those kept (the support) and the rows'
    # norms: a kept row's norm shrinks by thr, the others are zero.
    nrm = _row_norms(Z)
    keep = nrm > cut
    shrunk = (nrm - thr) * keep
    fac = np.divide(shrunk, nrm, out=np.zeros(nrm.shape), where=keep)
    return Z * fac[:, None], keep, shrunk


def _grouped_problem(S, deltas, lambdas, positive=False):
    """Validated (PooledScatter, p x K' contrast matrix, per-feature penalties).

    Every fit checks its (S, deltas, lambda) here. Contrasts must be finite,
    and penalties finite and nonnegative, or strictly positive when
    ``positive`` is set.
    """
    S = as_scatter(S)
    p = S.p
    D = np.asarray(deltas, dtype=float)
    if D.ndim == 1:
        D = D[None, :]
    if D.ndim != 2 or D.shape[1] != p:
        raise ValueError("deltas must be K-1 vectors of length p")
    if not np.all(np.isfinite(D)):
        raise ValueError("deltas must be finite")
    G = np.ascontiguousarray(D.T)  # p x K'
    lam = np.broadcast_to(np.asarray(lambdas, dtype=float), (p,)).astype(float)
    if not np.all(np.isfinite(lam)):
        raise ValueError("lambdas must be finite")
    if np.any(lam <= 0 if positive else lam < 0):
        raise ValueError("lambdas must be positive" if positive else "lambdas must be nonnegative")
    return S, G, lam


def _recession_ray(S, G, lam, *candidates):
    """A unit-norm d with S d = 0 and positive gain, or None.

    Each p x K' candidate is projected onto the null space of S. Along s d
    the objective changes by -s (<G, d> - sum_j lam_j ||d_j||), so a gain
    above _RAY_GAIN ||G|| proves it unbounded below. A projection is kept
    only if d'Sd is at most NULL_CUT times the top eigenvalue: a candidate
    with no null-space component projects to rounding noise, which is not.
    """
    k = G.shape[1]
    P = S.null_project(np.hstack(candidates))
    FP = S.factor @ P
    floor = _RAY_GAIN * float(np.linalg.norm(G))
    for i in range(len(candidates)):
        cols = slice(i * k, (i + 1) * k)
        n = float(np.linalg.norm(P[:, cols]))
        if n == 0.0 or np.sum(FP[:, cols] ** 2) > NULL_CUT * S.top_eigenvalue * n * n:
            continue
        d = P[:, cols] / n
        if float(np.sum(G * d)) - float(lam @ _row_norms(d)) > floor:
            return d
    return None


def _support_newton(S, X, G, lam, active, fx, kkt_exit):
    """Newton's method on the stationarity equations of the rows ``active``.

    On the active rows A the penalty is smooth, and stationarity reads
    S_AA X_A - G_A + diag(lam_A) U_A = 0 with U_A the unit row directions.
    Its Hessian is H = S_AA (x) I + blockdiag(lam_j / ||x_j|| (I - u_j u_j')),
    and since (I - u_j u_j') x_j = 0, H vec(X_A) = vec(S_AA X_A): the Newton
    step from X lands on the solution Z_A of H vec(Z_A) = vec(G_A -
    diag(lam_A) U_A). With one direction the block term vanishes and one
    step is the exact lasso solve S_AA b = delta_A - lam_A sign(b_A). With
    more, steps repeat from Z while each at least halves the KKT residual
    of the one before, which quadratic convergence on the right support
    does and a wrong support does not. H has rank at most K' rank(S) +
    |A| (K' - 1), so it is singular when |A| > K' rank(S), and no step is
    tried then.

    Returns (Z, f(Z)) for the first finite Z whose KKT residual is at most
    ``kkt_exit``, if its objective is at most ``fx``; otherwise None.
    """
    a, k = int(np.count_nonzero(active)), X.shape[1]
    if not 0 < a <= k * S.rank:
        return None
    idx = np.flatnonzero(active)
    FA = S.factor[:, idx]
    S_AA = FA.T @ FA
    if k > 1:
        eye, rows = np.eye(k), np.arange(a)
        SxI = np.zeros((a, k, a, k))  # S_AA (x) I, indexed (row, column) twice
        for j in range(k):
            SxI[:, j, :, j] = S_AA
    ZA, last = X[idx], math.inf
    # a finite but tiny row or huge Z may overflow; the checks below reject it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        while True:
            nrm = _row_norms(ZA)
            if not np.all(nrm > 0.0):
                return None
            U = ZA / nrm[:, None]
            H = S_AA
            if k > 1:
                H = SxI.copy()
                H[rows, :, rows, :] += (lam[idx] / nrm)[:, None, None] * (
                    eye - U[:, :, None] * U[:, None, :]
                )
                H = H.reshape(a * k, a * k)
            try:
                ZA = np.linalg.solve(H, (G[idx] - lam[idx, None] * U).reshape(-1)).reshape(a, k)
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(ZA)):
                return None
            Z = X.copy()  # the rows off the support are the iterate's zeros
            Z[idx] = ZA
            res = _grouped_kkt(S, Z, G, lam)
            if res <= kkt_exit:
                fz = _grouped_objective(S, Z, G, lam)
                return (Z, fz) if fz <= fx else None
            if not res <= 0.5 * last:
                return None
            last = res


def _proximal_gradient(S, G, lam, opts):
    """Accelerated proximal gradient on the p x K' grouped problem.

    The step is 1/L with L the exact top eigenvalue of S. When S is
    singular, G itself is projected onto the null space of S before the
    first iteration; a projection with positive gain ends the run as
    ``unbounded`` at iteration 0 with x = 0. Otherwise every 25th
    iteration that does not exit on its KKT residual projects the iterate,
    and the step since the last such checkpoint, the same way; a
    projection with positive gain ends the run as ``unbounded`` at that
    iterate.

    Each iteration forms one product with F and one with F' (S = F'F):
    F x_{m+1} for the objective, which every objective value gets fresh,
    and F' F y for the gradient, with F y = F x_{m+1} + beta (F x_{m+1} -
    F x_m) from the products already made. A restart's step from x reuses
    F x_m, and the KKT checks reuse the iterate's product. The penalty
    term takes the row norms the proximal step leaves (||z_j|| - thr_j on
    a kept row) instead of measuring them again.

    Once the support (the rows the proximal step keeps) has held still for
    a few iterations and differs from the last support tried, Newton's
    method on the stationarity equations of that support is tried
    (``_support_newton``). It ends the run as ``optimal`` only if its point
    is finite, its objective is at most the last iterate's and it passes
    the same KKT exit as the iterates; its objective joins the trace. Each
    attempt that does not land doubles the steady run the next one needs,
    so a support that keeps moving costs O(log max_iter) attempts. A run
    that reaches max_iter gets one last attempt if its final support has
    held still for the first attempt's steady run. The iterates never take
    the Newton point, so a run on which no attempt lands is the plain
    accelerated run. Returns the p x K' solution and its SolverReport.
    """
    scale = max(float(np.abs(G).max(initial=0.0)), float(lam.max(initial=0.0)))
    if scale == 0.0:
        return np.zeros_like(G), SolverReport(0, np.zeros(1), 0.0, "optimal")
    Gs = G / scale
    ls = lam / scale

    x = np.zeros_like(Gs)
    rays = S.has_null_space
    if rays:
        ray = _recession_ray(S, Gs, ls, Gs)
        if ray is not None:
            kkt = _grouped_kkt(S, x, Gs, ls) * scale
            return x, SolverReport(0, np.zeros(1), kkt, "unbounded", ray)

    F = S.factor
    L = max(S.top_eigenvalue, np.finfo(float).eps)
    thr = ls / L
    cut = thr * _SNAP
    kkt_exit = _kkt_exit(opts)
    x_check = y = x
    Fx = Fy = F @ x
    t = 1.0
    fx = _grouped_objective(S, x, Gs, ls, Fx)
    trace = [fx]
    stall = 0
    status, ray = "max_iter", None
    iterations = 0
    support = tried = np.zeros(Gs.shape[0], dtype=bool)  # x = 0 has no rows
    steady, need, newton = 0, _NEWTON_STEADY, None
    for m in range(1, opts.max_iter + 1):
        iterations = m
        xn, keep, nrm = _prox_rows(y - (F.T @ Fy - Gs) / L, thr, cut)
        Fxn = F @ xn
        fn = _grouped_objective(S, xn, Gs, ls, Fxn, nrm)
        if fn > fx:
            # restart: a proximal step from x with the exact L cannot increase f
            t = 1.0
            xn, keep, nrm = _prox_rows(x - (F.T @ Fx - Gs) / L, thr, cut)
            Fxn = F @ xn
            fn = _grouped_objective(S, xn, Gs, ls, Fxn, nrm)
        tn = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        beta = (t - 1.0) / tn
        y = xn + beta * (xn - x)
        Fy = Fxn + beta * (Fxn - Fx)
        rel = abs(fn - fx) / max(1.0, abs(fx), abs(fn))
        stall = stall + 1 if rel < opts.tol else 0
        x, Fx, fx, t = xn, Fxn, fn, tn
        trace.append(fx)
        if stall >= 2 or m % 25 == 0:
            if _grouped_kkt(S, x, Gs, ls, Fx) <= kkt_exit:
                status = "optimal"
                break
            stall = 0
            if rays and m % 25 == 0:
                ray = _recession_ray(S, Gs, ls, x, x - x_check)
                if ray is not None:
                    status = "unbounded"
                    break
                x_check = x
        steady = steady + 1 if (keep == support).all() else 0
        support = keep
        if steady >= need and not (keep == tried).all():
            tried = keep
            newton = _support_newton(S, x, Gs, ls, keep, fx, kkt_exit)
            if newton is not None:
                break
            need *= 2
    else:
        if steady >= _NEWTON_STEADY:
            newton = _support_newton(S, x, Gs, ls, support, fx, kkt_exit)
    if newton is not None:
        x, fx = newton
        trace.append(fx)
        status = "optimal"

    kkt_scaled = _grouped_kkt(S, x, Gs, ls)
    report = SolverReport(
        iterations=iterations,
        objective_trace=np.asarray(trace) * scale * scale,
        kkt_residual=kkt_scaled * scale,
        status=status,
        ray=ray,
    )
    return x * scale, report


def fit_grouped(S, deltas, lambdas, opts=None):
    """Jointly fit all K-1 directions under row-wise group penalties.

    Minimizes sum_k 0.5 b_k' S b_k - delta_k' b_k + sum_j lam_j ||row_j||
    over the p x (K-1) direction matrix. Accelerated proximal gradient
    with momentum t_{m+1} = (1 + sqrt(1 + 4 t_m^2)) / 2 and step 1/L, where
    L is the exact top eigenvalue of S. On an objective increase the
    momentum is reset and one proximal step is taken from the last iterate;
    with the exact L that step does not increase the objective, so the
    recorded objective trace is monotone. Once the support has held still,
    Newton's method on the stationarity equations of its rows is tried;
    its point is returned only if it passes the same KKT exit, with an
    objective no higher than the last iterate's (see _proximal_gradient).

    Returns (DirectionSet, SolverReport). Neither a run that exhausts
    max_iter nor one certified unbounded raises: the report's status says
    which, and an unbounded run returns the finite iterate at which the
    certificate was found, with the certifying ray on its report. When S
    is singular the null-space projection of the contrasts is checked
    before the first iteration; if it certifies, the run returns zeros
    after 0 iterations. Later certificates come at 25-iteration
    checkpoints (see _proximal_gradient).
    """
    X, report = _proximal_gradient(*_grouped_problem(S, deltas, lambdas), opts or SolverOptions())
    return DirectionSet(X), report


def fit_single_lasso(S, delta, lam, opts=None):
    """Fit one direction: minimize 0.5 b'Sb - delta'b + lam |b|_1.

    This is the grouped problem with a single direction, whose row norms
    are |b_j|. Returns (vector, report); an unbounded report's ray is a
    vector too.
    """
    problem = _grouped_problem(S, np.reshape(delta, (1, -1)), lam)
    X, report = _proximal_gradient(*problem, opts or SolverOptions())
    if report.ray is not None:
        report = replace(report, ray=report.ray[:, 0])
    return X[:, 0], report


def fit_lpd(S, delta, lam):
    """Minimum-l1 direction subject to |S b - delta|_inf <= lam.

    Solved as a linear program over the split b = u - v (2p variables,
    two inequality rows per feature) with the internal dense simplex.
    Constraint rows are activated lazily: start from the rows violated at
    b = 0, then append the rows of whatever the current iterate violates
    (by more than a relative 1e-9 of lam) and resume from the last basis,
    until the full constraint box holds, which yields the exact LP optimum.

    By Farkas' lemma the box is empty exactly when some u with S u = 0 has
    <delta, u> > lam |u|_1, which is the ray that certifies the ``single``
    objective unbounded at the same lam. So when S is singular that fit
    runs first, and an ``unbounded`` ending raises LpInfeasibleError with
    the unit vector u as its ``ray``. Any other ending also seeds the
    activation: the rows of its support join the rows violated at 0. At a
    lasso optimum those rows are tight, |S b - delta|_j = lam, which is
    where the box binds; the seed only saves activation rounds, since the
    loop still adds every row the LP solution breaks. The simplex then
    decides. Its proof of an empty box, y >= 0 over the appended rows with
    y'A >= 0 and y'b < 0, maps to u = y_- - y_+ through each row's feature
    and sign (y_+ on the rows S_j b - delta_j <= lam, y_- on their mirrors):
    S u = 0 and <delta, u> > lam |u|_1, the same kind of ray, which is
    projected onto the null space of S and checked before it is raised. A
    nonsingular S skips the pre-check: its box always holds S^-1 delta.

    Raises LpInfeasibleError when the constraint set is empty, and
    LpNumericalError when the simplex runs out of pivots or its proof
    fails the check.
    """
    S, G, lam = _grouped_problem(S, np.reshape(delta, (1, -1)), lam, positive=True)
    p, F = S.p, S.factor
    d = G[:, 0]

    active = np.abs(d) > lam
    if not active.any():
        return np.zeros(p)
    if S.has_null_space:
        X, report = _proximal_gradient(S, G, lam, SolverOptions())
        if report.status == "unbounded":
            raise LpInfeasibleError("LPD infeasible at this lambda", ray=report.ray[:, 0])
        active |= X[:, 0] != 0
    lp = InequalityLP(np.ones(2 * p))
    feature, sign = np.zeros(0, dtype=int), np.zeros(0)
    new = active
    while True:
        idx = np.flatnonzero(new)
        rows = F[:, idx].T @ F
        A = np.vstack([np.hstack([rows, -rows]), np.hstack([-rows, rows])])
        b = np.concatenate([lam[idx] + d[idx], lam[idx] - d[idx]])
        feature = np.concatenate([feature, idx, idx])
        sign = np.concatenate([sign, np.ones(idx.size), -np.ones(idx.size)])
        try:
            x, _ = lp.append(A, b)
        except LpInfeasibleError as exc:
            u = np.bincount(feature, weights=-sign * exc.ray, minlength=p)
            ray = _recession_ray(S, G, lam, u[:, None])
            if ray is None:
                raise LpNumericalError("simplex infeasibility proof failed its check") from None
            raise LpInfeasibleError("LPD infeasible at this lambda", ray=ray[:, 0]) from None
        beta = x[:p] - x[p:]
        new = (np.abs(S.dot(beta) - d) > lam * (1.0 + 1e-9)) & ~active
        if not new.any():
            return beta
        active |= new


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
    S, G, _ = _grouped_problem(S, deltas, lam)
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
    S, G, lam = _grouped_problem(S, deltas, lambdas)
    if ds.matrix.shape != G.shape:
        raise ValueError("direction set shape does not match deltas")
    return _grouped_kkt(S, ds.matrix, G, lam)


def oracle_restricted_fit(S, delta, support) -> np.ndarray:
    """Solve the scatter system restricted to a known support, zero elsewhere."""
    S, G, _ = _grouped_problem(S, np.reshape(delta, (1, -1)), 0.0)
    d = G[:, 0]
    idx = np.asarray(sorted(support), dtype=int)
    beta = np.zeros(d.size)
    if idx.size == 0:
        return beta
    if idx[0] < 0 or idx[-1] >= d.size:
        raise ValueError("support indices must lie in 0..p-1")
    Fi = S.factor[:, idx]
    block = Fi.T @ Fi
    if np.linalg.cond(block) >= 1e12:
        raise np.linalg.LinAlgError("restricted scatter block is singular")
    beta[idx] = np.linalg.solve(block, d[idx])
    return beta
