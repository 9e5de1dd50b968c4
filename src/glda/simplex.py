"""Dense dual simplex for the small linear programs used by the solvers.

``InequalityLP(c)`` minimises c'x subject to Ax <= b, x >= 0 for a finite,
nonnegative c and rows that arrive in batches. It keeps the full tableau
[A | I | b] between batches. ``append(A, b)`` scales each new row to unit
max-norm, eliminates it against the current basis with its own slack basic,
and resumes pivoting from the last basis.

The empty tableau is priced at c. With c >= 0 the all-slack basis is dual
feasible there, and appended rows with basic slacks leave the cost row as
it is, so every batch starts dual feasible: dual pivots run until the
right-hand side is nonnegative, and the basis is then optimal. The
objective is bounded below by 0, so no batch is unbounded.
The dual pass chooses its leaving row by dual steepest edge (Forrest &
Goldfarb 1992): among the rows with a negative right-hand side, the one
with the largest rhs_r^2 / ||row r of B^-1||^2, where B^-1 is the
tableau's slack block, so the weights are exact at every pivot and need no
update. It falls back to Bland's rule once the count of degenerate pivots
exceeds ten times the row count, which rules out cycling.

Every cut is relative to the tableau: an entry to the largest entry of its
row, a right-hand side to the largest right-hand side, and a reduced cost
or dual ratio to the largest reduced cost. With the rows at unit max-norm,
scaling any row of [A | b] by a positive factor, or all of b or c by one,
leaves the pivots as they are up to rounding. So ``solvers.fit_lpd`` on
features rescaled by s, whose rows scale by s^2 and b by s, takes the same
pivots.

Every infeasibility comes with a certificate. A dual ratio test that finds
no entering column on row r makes the slack block of that row, which is row
r of the basis inverse, a vector y >= 0 with y'A >= 0 and y'b < 0 once the
row scaling is undone. ``LpInfeasibleError`` carries y as ``ray``, one
entry per appended row in the order appended.
"""

import numpy as np

__all__ = ["InequalityLP", "LpInfeasibleError", "LpNumericalError"]

_RATIO_TOL = 1e-9
_FEAS_TOL = 1e-9
_TIE_TOL = 1e-12
_DEGENERATE_TOL = 1e-10


class LpInfeasibleError(Exception):
    """The constraint set {x >= 0 : Ax <= b} is empty.

    ``ray`` is the Farkas vector that proves it: from the simplex, a y >= 0
    over the rows with y'A >= 0 and y'b < 0 (``solvers.fit_lpd`` maps it to
    a null-space ray of its own problem).
    """

    def __init__(self, message, ray):
        super().__init__(message)
        self.ray = ray


class LpNumericalError(Exception):
    """The simplex ran out of its pivot budget.

    ``solvers.fit_lpd`` also raises it when a proof of an empty box fails
    its null-space check.
    """


def _pivot(T, r, q):
    T[r] /= T[r, q]
    col = T[:, q].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    T[:, q] = 0.0
    T[r, q] = 1.0


def _budget(T):
    return 1000 + 50 * sum(T.shape)


def _largest(v):
    return float(np.abs(v).max(initial=0.0))


def _dual_iterate(T, basis):
    """Run dual pivots until the right-hand side is nonnegative.

    The cost row must hold no negative reduced cost; the minimum-ratio
    entering column keeps it so. A row with a negative right-hand side and
    no negative entry raises LpInfeasibleError with its certificate.
    """
    m = len(basis)
    rhs = T[:-1, -1]
    floor = -_FEAS_TOL * _largest(rhs)
    cost_scale = _largest(T[-1, :-1])
    degenerate = 0
    for _ in range(_budget(T)):
        short = np.flatnonzero(rhs < floor)
        if short.size == 0:
            return
        bland = degenerate > 10 * m
        if bland:
            r = int(short[np.argmin(basis[short])])
        else:
            # dual steepest edge: the largest rhs_r^2 / ||row r of B^-1||^2,
            # where B^-1 is the slack block
            Binv = T[short, -1 - m : -1]
            r = int(short[np.argmax(rhs[short] ** 2 / np.add.reduce(Binv * Binv, axis=1))])
        row = T[r, :-1]
        neg = np.flatnonzero(row < -_RATIO_TOL * _largest(row))
        if neg.size == 0:
            raise LpInfeasibleError("constraint set is empty", ray=np.maximum(T[r, -1 - m : -1], 0.0))
        ratios = np.maximum(T[-1, neg], 0.0) / -row[neg]
        rmin = ratios.min()
        ties = neg[ratios <= rmin + _TIE_TOL * (cost_scale + rmin)]
        q = int(ties[0]) if bland else int(ties[np.argmin(row[ties])])
        degenerate += rmin <= _DEGENERATE_TOL * cost_scale
        _pivot(T, r, q)
        basis[r] = q
    raise LpNumericalError("simplex did not terminate within the pivot budget")


class InequalityLP:
    """min c'x over {x >= 0 : Ax <= b}, with the rows of A appended in batches.

    Each ``append`` re-optimises from the basis the last one left, so a
    cutting-plane loop pays only for the pivots its new rows need.
    """

    def __init__(self, c):
        c = np.asarray(c, dtype=float)
        if c.ndim != 1:
            raise ValueError("inconsistent LP dimensions")
        if not np.all(np.isfinite(c) & (c >= 0)):
            raise ValueError("LP costs must be finite and nonnegative")
        self._n = c.size
        self._T = np.zeros((1, c.size + 1))
        self._T[0, :-1] = c
        self._basis = np.zeros(0, dtype=int)
        self._row_scale = np.zeros(0)

    def append(self, A, b):
        """Add the rows Ax <= b and re-optimise. Returns (x, objective).

        Raises ValueError for rows that do not fit the LP or are not finite,
        LpInfeasibleError, with its certificate over all rows appended so
        far as ``ray``, when the constraint set is empty, and
        LpNumericalError when the pivot budget runs out.
        """
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        n, m, k = self._n, self._basis.size, b.size
        if b.ndim != 1 or A.ndim != 2 or A.shape != (k, n):
            raise ValueError("inconsistent LP dimensions")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("LP rows must be finite")
        scale = np.abs(A).max(axis=1, initial=0.0)
        scale[scale == 0.0] = 1.0
        old = self._T
        T = np.zeros((m + k + 1, n + m + k + 1))
        T[np.r_[:m, -1], : n + m] = old[:, :-1]
        T[np.r_[:m, -1], -1] = old[:, -1]
        new = T[m : m + k]
        new[:, :n] = A / scale[:, None]
        new[np.arange(k), n + m + np.arange(k)] = 1.0
        new[:, -1] = b / scale
        new -= new[:, self._basis] @ T[:m]
        basis = np.r_[self._basis, n + m + np.arange(k)]
        self._T, self._basis = T, basis
        self._row_scale = np.r_[self._row_scale, scale]
        try:
            _dual_iterate(T, basis)
        except LpInfeasibleError as exc:
            exc.ray = exc.ray / self._row_scale
            raise
        x = np.zeros(n)
        structural = basis < n
        x[basis[structural]] = T[:-1, -1][structural]
        return x, float(-T[-1, -1])
