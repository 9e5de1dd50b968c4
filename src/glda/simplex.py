"""Dense two-phase simplex for the small linear programs used by the solvers.

Solves min c'x subject to Ax <= b, x >= 0 with a full tableau. Phase 1
introduces artificial variables only on rows whose right-hand side is
negative after orientation and minimizes their sum; phase 2 optimizes the
real objective. Pricing uses Dantzig's rule (most negative reduced cost)
and falls back to Bland's rule once the count of degenerate pivots exceeds
ten times the row count, which rules out cycling.

``LpInfeasibleError`` carries a ``ray`` attribute for callers that prove
infeasibility by a certificate of their own (``solvers.fit_lpd`` passes
its Farkas vector there); when phase 1 proved it, ``ray`` is None.
"""

import numpy as np

__all__ = ["LpInfeasibleError", "LpNumericalError", "solve_inequality_lp"]

_ENTER_TOL = 1e-9
_RATIO_TOL = 1e-9
_FEAS_TOL = 1e-8


class LpInfeasibleError(Exception):
    """The constraint set {x >= 0 : Ax <= b} is empty.

    ``ray`` is the certificate that proved it, or None when simplex phase 1
    did (a phase-1 proof leaves no vector behind).
    """

    def __init__(self, message, ray=None):
        super().__init__(message)
        self.ray = ray


class LpNumericalError(Exception):
    """Pivoting failed to terminate within the iteration budget."""


def _pivot(T, r, q):
    T[r] /= T[r, q]
    col = T[:, q].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    T[:, q] = 0.0
    T[r, q] = 1.0


def _iterate(T, basis, allowed):
    """Run simplex pivots on the tableau until the cost row is optimal.

    `allowed` restricts pricing to the first columns (used to exclude
    artificial columns in phase 2). Returns "optimal" or "unbounded".
    """
    m = len(basis)
    degenerate = 0
    bland = False
    max_pivots = 1000 + 50 * (m + allowed)
    for _ in range(max_pivots):
        costs = T[-1, :allowed]
        if bland:
            neg = np.flatnonzero(costs < -_ENTER_TOL)
            if neg.size == 0:
                return "optimal"
            q = int(neg[0])
        else:
            q = int(np.argmin(costs))
            if costs[q] >= -_ENTER_TOL:
                return "optimal"
        col = T[:-1, q]
        pos = col > _RATIO_TOL
        if not pos.any():
            return "unbounded"
        ratios = np.full(m, np.inf)
        ratios[pos] = T[:-1, -1][pos] / col[pos]
        rmin = ratios.min()
        ties = np.flatnonzero(ratios <= rmin + 1e-12 * (1.0 + abs(rmin)))
        if bland:
            r = int(ties[np.argmin(basis[ties])])
        else:
            r = int(ties[np.argmax(col[ties])])
        if rmin <= 1e-10:
            degenerate += 1
            if degenerate > 10 * m:
                bland = True
        _pivot(T, r, q)
        basis[r] = q
    raise LpNumericalError("simplex did not terminate within the pivot budget")


def solve_inequality_lp(c, A, b):
    """Minimize c'x over {x >= 0 : Ax <= b}. Returns (x, objective)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    if A.ndim != 2 or A.shape != (b.size, c.size):
        raise ValueError("inconsistent LP dimensions")
    m, n = A.shape
    if m == 0:
        if np.any(c < 0):
            raise LpNumericalError("unbounded objective")
        return np.zeros(n), 0.0

    # Orient rows so every right-hand side is nonnegative; flipped rows get a
    # surplus column (-1) plus an artificial, the rest start with their slack
    # in the basis.
    flip = b < 0
    A2 = np.where(flip[:, None], -A, A)
    b2 = np.where(flip, -b, b)
    art_rows = np.flatnonzero(flip)
    na = art_rows.size
    ncols = n + m + na
    T = np.zeros((m + 1, ncols + 1))
    T[:m, :n] = A2
    T[np.arange(m), n + np.arange(m)] = np.where(flip, -1.0, 1.0)
    if na:
        T[art_rows, n + m + np.arange(na)] = 1.0
    T[:m, -1] = b2
    basis = n + np.arange(m)
    basis[art_rows] = n + m + np.arange(na)
    n_real = n + m  # structural + slack columns; artificials come after

    if na:
        T[m, n + m : n + m + na] = 1.0
        for r in art_rows:
            T[m] -= T[r]
        if _iterate(T, basis, allowed=ncols) != "optimal":
            raise LpNumericalError("phase 1 reported an unbounded auxiliary problem")
        scale = 1.0 + float(np.abs(b2).max(initial=0.0))
        if T[m, -1] < -_FEAS_TOL * scale:
            raise LpInfeasibleError("constraint set is empty")
        # Pivot any leftover zero-valued artificial out of the basis; rows
        # with no real coefficient left are redundant and dropped.
        drop = []
        for r in range(m):
            if basis[r] >= n_real:
                nz = np.flatnonzero(np.abs(T[r, :n_real]) > 1e-9)
                if nz.size:
                    _pivot(T, r, int(nz[0]))
                    basis[r] = int(nz[0])
                else:
                    drop.append(r)
        if drop:
            keep = np.setdiff1d(np.arange(m), drop)
            T = np.vstack([T[keep], T[-1:]])
            basis = basis[keep]
            m = len(basis)

    T[-1, :] = 0.0
    T[-1, :n] = c
    for r in range(m):
        j = basis[r]
        if j < n and c[j] != 0.0:
            T[-1] -= c[j] * T[r]
    # Artificial columns may still be present; pricing skips them.
    if _iterate(T, basis, allowed=n_real) == "unbounded":
        raise LpNumericalError("unbounded objective")
    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r, -1]
    return x, float(-T[-1, -1])
