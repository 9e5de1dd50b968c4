"""Dense simplex for the small linear programs used by the solvers.

Solves min c'x subject to Ax <= b, x >= 0 on the full tableau [A | I | b]
with the slacks basic. Priced at c+ = max(c, 0), that basis is dual
feasible, so dual pivots run first until the right-hand side is
nonnegative. Only when c has a negative entry is the cost row then
re-priced with c for primal pivots. Both passes use Dantzig's rule (most
negative right-hand side or reduced cost) and fall back to Bland's rule
once the count of degenerate pivots exceeds ten times the row count, which
rules out cycling.

Every infeasibility comes with a certificate. A dual ratio test that finds
no entering column on row r makes the slack block of that row, which is row
r of the basis inverse, a vector y >= 0 with y'A >= 0 and y'b < 0.
``LpInfeasibleError`` carries y as ``ray``.
"""

import numpy as np

__all__ = ["LpInfeasibleError", "LpNumericalError", "solve_inequality_lp"]

_ENTER_TOL = 1e-9
_RATIO_TOL = 1e-9
_FEAS_TOL = 1e-9


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
    """The pivot budget ran out, or the objective is unbounded below."""


def _pivot(T, r, q):
    T[r] /= T[r, q]
    col = T[:, q].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    T[:, q] = 0.0
    T[r, q] = 1.0


def _budget(T):
    return 1000 + 50 * sum(T.shape)


def _dual_iterate(T, basis):
    """Run dual pivots until the right-hand side is nonnegative.

    The cost row must hold no negative reduced cost; the minimum-ratio
    entering column keeps it so. A row with a negative right-hand side and
    no negative entry raises LpInfeasibleError with its certificate.
    """
    m = len(basis)
    rhs = T[:-1, -1]
    floor = -_FEAS_TOL * (1.0 + float(np.abs(rhs).max(initial=0.0)))
    degenerate = 0
    for _ in range(_budget(T)):
        short = np.flatnonzero(rhs < floor)
        if short.size == 0:
            return
        bland = degenerate > 10 * m
        r = int(short[np.argmin(basis[short] if bland else rhs[short])])
        row = T[r, :-1]
        neg = np.flatnonzero(row < -_RATIO_TOL)
        if neg.size == 0:
            raise LpInfeasibleError("constraint set is empty", ray=np.maximum(T[r, -1 - m : -1], 0.0))
        ratios = np.maximum(T[-1, neg], 0.0) / -row[neg]
        rmin = ratios.min()
        ties = neg[ratios <= rmin + 1e-12 * (1.0 + rmin)]
        q = int(ties[0]) if bland else int(ties[np.argmin(row[ties])])
        degenerate += rmin <= 1e-10
        _pivot(T, r, q)
        basis[r] = q
    raise LpNumericalError("simplex did not terminate within the pivot budget")


def _primal_iterate(T, basis):
    """Run primal pivots until no reduced cost is negative."""
    m = len(basis)
    degenerate = 0
    for _ in range(_budget(T)):
        costs = T[-1, :-1]
        neg = np.flatnonzero(costs < -_ENTER_TOL)
        if neg.size == 0:
            return
        bland = degenerate > 10 * m
        q = int(neg[0]) if bland else int(np.argmin(costs))
        col = T[:-1, q]
        pos = col > _RATIO_TOL
        if not pos.any():
            raise LpNumericalError("unbounded objective")
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:-1, -1][pos] / col[pos]
        rmin = ratios.min()
        ties = np.flatnonzero(ratios <= rmin + 1e-12 * (1.0 + abs(rmin)))
        r = int(ties[np.argmin(basis[ties])]) if bland else int(ties[np.argmax(col[ties])])
        degenerate += rmin <= 1e-10
        _pivot(T, r, q)
        basis[r] = q
    raise LpNumericalError("simplex did not terminate within the pivot budget")


def solve_inequality_lp(c, A, b):
    """Minimize c'x over {x >= 0 : Ax <= b}. Returns (x, objective).

    Raises LpInfeasibleError, with its certificate as ``ray``, when the
    constraint set is empty, and LpNumericalError when the objective is
    unbounded below or the pivot budget runs out.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if A.ndim != 2 or A.shape != (b.size, c.size):
        raise ValueError("inconsistent LP dimensions")
    m, n = A.shape
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[np.arange(m), n + np.arange(m)] = 1.0
    T[:m, -1] = b
    T[m, :n] = np.maximum(c, 0.0)
    basis = n + np.arange(m)
    _dual_iterate(T, basis)
    if np.any(c < 0):
        cost = np.concatenate([c, np.zeros(m + 1)])
        T[-1] = cost - cost[basis] @ T[:-1]
        _primal_iterate(T, basis)
    x = np.zeros(n)
    structural = basis < n
    x[basis[structural]] = T[:-1, -1][structural]
    return x, float(-T[-1, -1])
