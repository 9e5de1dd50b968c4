"""Direction estimators for sparse multi-class discriminant analysis.

Three routes to the discriminant directions:

* ``fit_grouped``   - joint estimator coupling all K-1 directions through a
  per-feature (row-wise) Euclidean norm penalty, solved by accelerated
  proximal gradient with function-value adaptive restart, and finished by
  Newton's method on the stationarity equations of the support once that
  support has settled, an attempt that repairs its support a few times
  (drop the rows the solve reverses, add the zero rows that break their
  bound) before it gives up. A fit whose KKT conditions hold at zero, that is
  lambda >= max_j ||delta_j||, ends there before the first iteration.
* ``fit_single_lasso`` - one direction at a time under an l1 penalty: the
  grouped problem with a single direction, so one-entry groups.
* ``fit_lpd``       - one direction at a time, minimum l1 norm subject to an
  l-infinity residual box, solved as a linear program by the internal
  dense simplex, which keeps its tableau as constraint rows are activated,
  one side of a feature's box at a time, and resumes from the last basis.
  When S is singular an empty box is first looked for with the ``single``
  engine; otherwise the simplex's constraint activation starts from the
  sides violated at 0 and the sides that the support of that ``single``
  fit makes tight. Every ``LpInfeasibleError`` carries a
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

from .model import NULL_CUT, DirectionSet, PooledScatter, _frozen, as_scatter
from .simplex import InequalityLP, LpInfeasibleError, LpNumericalError

__all__ = [
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

# Iteration budget of a proximal-gradient fit. ``_proximal_gradient`` reads
# it at call time.
_MAX_ITER = 5000

# A fit is optimal once its KKT residual, in units of max(|G|_inf, lam),
# is at most this.
_KKT_EXIT = 1e-6

# Iterations the support must hold still before the first Newton attempt;
# each attempt that does not land doubles it.
_NEWTON_STEADY = 3

# Active-set repairs one Newton attempt may make, each followed by a solve.
_NEWTON_REPAIRS = 4

# A projected ray certifies an unbounded objective when its gain per unit
# norm exceeds this fraction of ||G||, the largest gain any unit ray can have.
_RAY_GAIN = 1e-9

STATUSES = ("optimal", "max_iter", "unbounded")


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
        trace = _frozen(self.objective_trace)
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
            object.__setattr__(self, "ray", _frozen(self.ray))

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
        if not all(math.isfinite(v) for v in (*vals, self.t)):
            raise ValueError("parameters must be finite")
        if any(v <= 0 for v in vals):
            raise ValueError("parameters must be strictly positive")
        if self.t < 0:
            raise ValueError("t must be nonnegative")
        if self.N <= self.K:
            raise ValueError("need N > K")


def group_prox(x, lam):
    """argmin_v 0.5||v - x||^2 + lam ||v||, i.e. the group soft-threshold.

    Returns ((||x|| - lam)_+ / ||x||) * x, the zero vector whenever
    ||x|| <= lam (including x = 0). This is the step the solvers take.
    """
    lam = float(lam)
    if not math.isfinite(lam):
        raise ValueError("lam must be finite")
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    rows, _, _ = _prox_rows(np.asarray(x, dtype=float)[None, :], lam)
    return rows[0]


def _row_norms(M):
    """Euclidean norm of each row: np.linalg.norm(M, axis=1) without its dispatch.

    The same squares are summed by the same reduction, so the bytes match.
    """
    return np.sqrt(np.add.reduce(M * M, axis=1))


def _grouped_objective(FX, X, G, lam, norms=None):
    # FX = F @ X; the proximal-gradient loop also passes the row norms of X,
    # which its proximal step already knows
    if norms is None:
        norms = _row_norms(X)
    return 0.5 * float(np.vdot(FX, FX)) - float(np.vdot(G, X)) + lam * float(norms.sum())


def _grouped_kkt(S, X, G, lam, FX=None):
    R = (S.dot(X) if FX is None else S.factor.T @ FX) - G
    return float(_kkt_rows(R, X, lam).max(initial=0.0))


def _kkt_rows(R, X, lam):
    # each row's violation of stationarity, given the residual R = S X - G:
    # ||R_j + lam u_j|| on a nonzero row, (||R_j|| - lam)_+ on a zero row
    rn = _row_norms(X)
    active = rn > 0
    # on a zero row the adjusted residual is R itself
    nrm = _row_norms(R + np.divide(lam, rn, out=np.zeros(rn.shape), where=active)[:, None] * X)
    return np.where(active, nrm, np.maximum(nrm - lam, 0.0))


def _prox_rows(Z, thr):
    # group soft-threshold of each row at thr: rows with norm above thr are
    # kept and the rest zeroed. Returns the rows, the mask of those kept (the
    # support) and the rows' norms: a kept row's norm shrinks by thr, the
    # others are zero.
    nrm = _row_norms(Z)
    keep = nrm > thr
    shrunk = (nrm - thr) * keep
    fac = np.divide(shrunk, nrm, out=np.zeros(nrm.shape), where=keep)
    return Z * fac[:, None], keep, shrunk


def _grouped_problem(S, deltas, lam, positive=False):
    """Validated (PooledScatter, p x K' contrast matrix, penalty level).

    Every fit checks its (S, deltas, lambda) here. Contrasts must be finite,
    and lambda one number, finite and nonnegative, or strictly positive when
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
    lam = np.asarray(lam, dtype=float)
    if lam.ndim > 0:
        raise ValueError("lambda must be a single number")
    if not np.isfinite(lam):
        raise ValueError("lambdas must be finite")
    if lam < 0 or (positive and lam == 0):
        raise ValueError("lambdas must be positive" if positive else "lambdas must be nonnegative")
    return S, G, float(lam)


def _recession_ray(S, G, lam, *candidates):
    """A unit-norm d with S d = 0 and positive gain, or None.

    Each p x K' candidate is projected onto the null space of S. Along s d
    the objective changes by -s (<G, d> - lam sum_j ||d_j||), so a gain
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
        if float(np.sum(G * d)) - lam * float(_row_norms(d).sum()) > floor:
            return d
    return None


def _support_newton(S, X, G, lam, active, fx):
    """Newton's method on the stationarity equations of the rows ``active``,
    with the row set repaired between rounds.

    On the active rows A the penalty is smooth, and stationarity reads
    S_AA X_A - G_A + lam U_A = 0 with U_A the unit row directions. Its
    Hessian is H = S_AA (x) I + blockdiag(lam / ||x_j|| (I - u_j u_j')), and
    since (I - u_j u_j') x_j = 0, H vec(X_A) = vec(S_AA X_A): the Newton
    step from X lands on the solution Z_A of H vec(Z_A) = vec(G_A - lam U_A).
    With one direction u_j = sign(b_j), so the block term is exactly zero
    and one step is the exact lasso solve S_AA b = delta_A - lam
    sign(b_A). With more, steps repeat from Z while each at least halves
    the KKT residual of the one before and turns no row by a right angle or
    more, which quadratic convergence on the right support does and a wrong
    support does not. H has rank at most K' rank(S) + |A| (K' - 1), so it
    is singular when |A| > K' rank(S), and no step is tried then.

    That is one round. A round whose last point fails the KKT gate repairs
    the set, as a working-set method does: it keeps each row whose solved
    direction still agrees with the one its last step started from
    (<Z_j, X_j> > 0), and adds each zero row whose residual row norm
    ||(S Z - G)_j|| exceeds lam, started along -(S Z - G)_j at the
    minimiser of its own block with every other row held fixed. The next
    round starts from Z on the rows kept. One residual per point serves
    both the KKT gate and the rows to add. The attempt stops when a repair
    leaves the set as it was or after ``_NEWTON_REPAIRS`` repairs, and the
    rank guard and both gates below apply to every round.

    Returns (Z, f(Z)) for the first finite Z whose KKT residual is at most
    ``_KKT_EXIT``, if its objective is at most ``fx``; otherwise None.
    """
    F, k = S.factor, X.shape[1]
    eye, W = np.eye(k), X
    # a finite but tiny row or huge Z may overflow; the checks below reject it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_NEWTON_REPAIRS + 1):
            idx = np.flatnonzero(active)
            a = idx.size
            if not 0 < a <= k * S.rank:
                return None
            FA = F[:, idx]
            S_AA = FA.T @ FA
            rows = np.arange(a)
            SxI = np.zeros((a, k, a, k))  # S_AA (x) I, indexed (row, column) twice
            for j in range(k):
                SxI[:, j, :, j] = S_AA
            ZA, last = W[idx], math.inf
            while True:
                nrm = _row_norms(ZA)
                U = ZA / nrm[:, None]
                H = SxI.copy()
                H[rows, :, rows, :] += (lam / nrm)[:, None, None] * (
                    eye - U[:, :, None] * U[:, None, :]
                )
                try:
                    ZN = np.linalg.solve(
                        H.reshape(a * k, a * k), (G[idx] - lam * U).reshape(-1)
                    ).reshape(a, k)
                except np.linalg.LinAlgError:
                    return None
                if not np.all(np.isfinite(ZN)):
                    return None
                Z = np.zeros_like(X)
                Z[idx] = ZN
                FZ = F @ Z
                R = F.T @ FZ - G
                viol = _kkt_rows(R, Z, lam)
                res = float(viol.max())
                if res <= _KKT_EXIT:
                    fz = _grouped_objective(FZ, Z, G, lam)
                    return (Z, fz) if fz <= fx else None
                keep = np.einsum("ij,ij->i", ZN, ZA) > 0.0
                # with one direction and no sign flipped, a step would repeat this one
                if not (k > 1 and res <= 0.5 * last and keep.all()):
                    break
                ZA, last = ZN, res
            # on a zero row of Z the violation is (||R_j|| - lam)_+
            add = ~active & (viol > 0.0)
            if keep.all() and not add.any():
                return None
            active = add.copy()
            active[idx[keep]] = True
            # an added row starts along -R_j, at the minimiser of its own
            # block with every other row held fixed
            Ra, S_jj = R[add], np.add.reduce(F[:, add] ** 2, axis=0)
            W = Z.copy()
            W[add] = -(1.0 - lam / _row_norms(Ra))[:, None] * Ra / S_jj[:, None]
    return None


def _proximal_gradient(S, G, lam):
    """Accelerated proximal gradient on the p x K' grouped problem.

    The step is 1/L with L the exact top eigenvalue of S. The run is
    decided at x = 0 first: a KKT residual there of at most _KKT_EXIT
    max(|G|_inf, lam) ends it as ``optimal`` at iteration 0. Otherwise,
    when S is singular, G itself is projected onto the null space of S,
    and a projection with positive gain ends the run as ``unbounded`` at
    iteration 0 with x = 0. After that the run is decided only at every
    25th iteration and by the Newton attempts below. A checkpoint ends the
    run as ``optimal`` if the iterate passes the KKT exit; otherwise, when
    S is singular, it projects the iterate, and the step since the last
    checkpoint, the same way, and a projection with positive gain ends the
    run as ``unbounded`` at that iterate.

    Each iteration forms one product with F and one with F' (S = F'F):
    F x_{m+1} for the objective, which every objective value gets fresh,
    and F' F y for the gradient, with F y = F x_{m+1} + beta (F x_{m+1} -
    F x_m) from the products already made. A restart's step from x reuses
    F x_m, and the KKT checks reuse the iterate's product. The penalty
    term takes the row norms the proximal step leaves (||z_j|| - thr on
    a kept row) instead of measuring them again.

    Once the support (the rows the proximal step keeps) has held still for
    a few iterations and differs from the last support tried, Newton's
    method on the stationarity equations of that support is tried
    (``_support_newton``), starting from the iterate. When its point fails
    the KKT exit, the attempt repairs the support itself: it drops the rows
    whose direction the solve reversed, adds the zero rows that break
    their subgradient bound and solves again, up to ``_NEWTON_REPAIRS``
    times, so an iterate whose support is a few rows off still lands. It
    ends the run as ``optimal`` only if its point is finite, its objective
    is at most the last iterate's and it passes the same KKT exit as the
    iterates; its objective joins the trace. Each attempt that does not
    land doubles the steady run the next one needs, so a support that
    keeps moving costs O(log _MAX_ITER) attempts. The iterates never take
    the Newton point, so a run on which no attempt lands is the plain
    accelerated run, and it ends ``max_iter`` at the budget. Returns the
    p x K' solution and its SolverReport.
    """
    scale = max(float(np.abs(G).max(initial=0.0)), lam)
    x = np.zeros_like(G)
    kkt = _grouped_kkt(S, x, G, lam)
    if kkt <= _KKT_EXIT * scale:
        return x, SolverReport(0, np.zeros(1), kkt, "optimal")
    Gs = G / scale
    ls = lam / scale

    rays = S.has_null_space
    if rays:
        ray = _recession_ray(S, Gs, ls, Gs)
        if ray is not None:
            return x, SolverReport(0, np.zeros(1), kkt, "unbounded", ray)

    F = S.factor
    L = max(S.top_eigenvalue, np.finfo(float).eps)
    thr = ls / L
    x_check = y = x
    Fx = Fy = F @ x
    t = 1.0
    fx = _grouped_objective(Fx, x, Gs, ls)
    trace = [fx]
    status, ray = "max_iter", None
    iterations = 0
    support = tried = np.zeros(Gs.shape[0], dtype=bool)  # x = 0 has no rows
    steady, need = 0, _NEWTON_STEADY
    for m in range(1, _MAX_ITER + 1):
        iterations = m
        xn, keep, nrm = _prox_rows(y - (F.T @ Fy - Gs) / L, thr)
        Fxn = F @ xn
        fn = _grouped_objective(Fxn, xn, Gs, ls, nrm)
        if fn > fx:
            # restart: a proximal step from x with the exact L cannot increase f
            t = 1.0
            xn, keep, nrm = _prox_rows(x - (F.T @ Fx - Gs) / L, thr)
            Fxn = F @ xn
            fn = _grouped_objective(Fxn, xn, Gs, ls, nrm)
        tn = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        beta = (t - 1.0) / tn
        y = xn + beta * (xn - x)
        Fy = Fxn + beta * (Fxn - Fx)
        x, Fx, fx, t = xn, Fxn, fn, tn
        trace.append(fx)
        if m % 25 == 0:
            if _grouped_kkt(S, x, Gs, ls, Fx) <= _KKT_EXIT:
                status = "optimal"
                break
            if rays:
                ray = _recession_ray(S, Gs, ls, x, x - x_check)
                if ray is not None:
                    status = "unbounded"
                    break
                x_check = x
        steady = steady + 1 if (keep == support).all() else 0
        support = keep
        if steady >= need and not (keep == tried).all():
            tried = keep
            newton = _support_newton(S, x, Gs, ls, keep, fx)
            if newton is not None:
                x, fx = newton
                trace.append(fx)
                status = "optimal"
                break
            need *= 2

    kkt_scaled = _grouped_kkt(S, x, Gs, ls)
    report = SolverReport(
        iterations=iterations,
        objective_trace=np.asarray(trace) * scale * scale,
        kkt_residual=kkt_scaled * scale,
        status=status,
        ray=ray,
    )
    return x * scale, report


def fit_grouped(S, deltas, lam):
    """Jointly fit all K-1 directions under a row-wise group penalty.

    Minimizes sum_k 0.5 b_k' S b_k - delta_k' b_k + lam sum_j ||row_j||
    over the p x (K-1) direction matrix with _proximal_gradient: momentum
    t_{m+1} = (1 + sqrt(1 + 4 t_m^2)) / 2, and on an objective increase the
    momentum is reset and one proximal step is taken from the last iterate;
    with the exact L that step does not increase the objective, so the
    recorded objective trace is monotone.

    Returns (DirectionSet, SolverReport). Neither a run that exhausts the
    iteration budget nor one certified unbounded raises: the report's
    status says which.
    """
    X, report = _proximal_gradient(*_grouped_problem(S, deltas, lam))
    return DirectionSet(X), report


def fit_single_lasso(S, delta, lam):
    """Fit one direction: minimize 0.5 b'Sb - delta'b + lam |b|_1.

    This is the grouped problem with a single direction, whose row norms
    are |b_j|. Returns (vector, report); an unbounded report's ray is a
    vector too.
    """
    X, report = _proximal_gradient(*_grouped_problem(S, np.reshape(delta, (1, -1)), lam))
    if report.ray is not None:
        report = replace(report, ray=report.ray[:, 0])
    return X[:, 0], report


def fit_lpd(S, delta, lam):
    """Minimum-l1 direction subject to |S b - delta|_inf <= lam.

    Solved as a linear program over the split b = u - v (2p variables, up
    to two inequality rows per feature: S_j b - delta_j <= lam and its
    mirror) with the internal dense simplex. Constraint rows are activated
    lazily and one side at a time: start from the side each feature
    violates at b = 0 (the mirror where delta_j > lam, the upper row where
    delta_j < -lam), then append just the side of each row the current
    iterate breaks (by more than a relative 1e-9 of lam) and resume from
    the last basis, until the full constraint box holds, which yields the
    exact LP optimum. A side that does not bind there never enters.

    By Farkas' lemma the box is empty exactly when some u with S u = 0 has
    <delta, u> > lam |u|_1, which is the ray that certifies the ``single``
    objective unbounded at the same lam. So when S is singular that fit
    runs first, and an ``unbounded`` ending raises LpInfeasibleError with
    the unit vector u as its ``ray``. Any other ending also seeds the
    activation: each feature of its support enters on the side its sign
    makes tight, the mirror for b_j > 0 and the upper row for b_j < 0, in
    place of the side violated at 0. At a lasso optimum S_j b - delta_j =
    -lam sign(b_j), which is where the box binds; the seed only saves
    activation rounds, since the loop still adds every side the LP
    solution breaks. The simplex then
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

    # the binding side of each feature's box: +1 for S_j b - delta_j <= lam,
    # -1 for its mirror, 0 for neither. At b = 0 a row binds on the side
    # opposite delta_j's sign, and at a lasso optimum on the side opposite b_j's
    side = -np.sign(d) * (np.abs(d) > lam)
    if not side.any():
        return np.zeros(p)
    if S.has_null_space:
        seed, report = fit_single_lasso(S, d, lam)
        if report.status == "unbounded":
            raise LpInfeasibleError("LPD infeasible at this lambda", ray=report.ray)
        side = np.where(seed != 0, -np.sign(seed), side)
    lp = InequalityLP(2 * p)
    feature, sign = np.zeros(0, dtype=int), np.zeros(0)
    appended = np.zeros((2, p), dtype=bool)  # the upper rows, then their mirrors
    new = np.vstack([side > 0, side < 0])
    tol = lam * (1.0 + 1e-9)
    while True:
        appended |= new
        mirror, idx = np.nonzero(new)
        s = 1.0 - 2.0 * mirror
        rows = s[:, None] * (F[:, idx].T @ F)
        feature = np.concatenate([feature, idx])
        sign = np.concatenate([sign, s])
        try:
            x = lp.append(np.hstack([rows, -rows]), lam + s * d[idx])
        except LpInfeasibleError as exc:
            u = np.bincount(feature, weights=-sign * exc.ray, minlength=p)
            ray = _recession_ray(S, G, lam, u[:, None])
            if ray is None:
                raise LpNumericalError("simplex infeasibility proof failed its check") from None
            raise LpInfeasibleError("LPD infeasible at this lambda", ray=ray[:, 0]) from None
        beta = x[:p] - x[p:]
        r = S.dot(beta) - d
        new = np.vstack([r > tol, r < -tol]) & ~appended
        if not new.any():
            return beta


def fit_directions(estimator, S, deltas, lam):
    """Fit the K-1 directions with a direction estimator at penalty lam.

    ``grouped`` is one joint fit; ``single`` and ``lpd`` fit each contrast
    on its own. Returns (DirectionSet, reports) with one SolverReport per
    proximal-gradient fit and none for ``lpd``. Raises LpInfeasibleError
    when an LPD direction is infeasible.
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
    if pr.size < 2 or not np.all((pr > 0) & np.isfinite(pr)):
        raise ValueError("need at least two positive finite priors")
    return float(np.sqrt((pr[0] + pr[1:]) / (pr[0] * pr[1:])).max())


def kkt_residual(S, deltas, lam, ds: DirectionSet) -> float:
    """Largest violation of the group-penalty stationarity conditions.

    For zero rows: (||row_j of (S Phi - D)|| - lam)_+ ; for active rows
    the norm of the full stationarity expression.
    """
    S, G, lam = _grouped_problem(S, deltas, lam)
    if ds.matrix.shape != G.shape:
        raise ValueError("direction set shape does not match deltas")
    return _grouped_kkt(S, ds.matrix, G, lam)


def oracle_restricted_fit(S, delta, support) -> np.ndarray:
    """Solve the scatter system restricted to a known support T, zero elsewhere.

    The block S_TT is the scatter of F's columns T. It is singular, and
    LinAlgError is raised, when its rank under NULL_CUT is below |T|;
    otherwise the solution is V'((V delta_T) / w) from its ``spectrum``.
    """
    S, G, _ = _grouped_problem(S, np.reshape(delta, (1, -1)), 0.0)
    d = G[:, 0]
    idx = np.asarray(sorted(support), dtype=int)
    beta = np.zeros(d.size)
    if idx.size == 0:
        return beta
    if idx[0] < 0 or idx[-1] >= d.size:
        raise ValueError("support indices must lie in 0..p-1")
    block = PooledScatter(S.factor[:, idx])
    if block.has_null_space:
        raise np.linalg.LinAlgError("restricted scatter block is singular")
    w, V = block.spectrum
    beta[idx] = V.T @ ((V @ d[idx]) / w)
    return beta
