import numpy as np
import pytest

from glda import simplex
from glda.simplex import LpInfeasibleError, solve_inequality_lp


def assert_certificate(A, b, y):
    """y proves {x >= 0 : Ax <= b} empty: y >= 0, y'A >= 0 and y'b < 0."""
    assert y is not None and y.shape == b.shape
    assert np.all(y >= 0) and y.sum() > 0
    assert np.all(y @ A >= -1e-9 * y.sum())
    assert y @ b < 0


def test_basic_lp():
    # max x1 + x2 s.t. x1 + 2 x2 <= 4, 3 x1 + x2 <= 6  ->  min -(x1 + x2)
    x, obj = solve_inequality_lp(
        np.array([-1.0, -1.0]),
        np.array([[1.0, 2.0], [3.0, 1.0]]),
        np.array([4.0, 6.0]),
    )
    assert obj == pytest.approx(-(8 / 5 + 6 / 5), abs=1e-9)
    assert np.allclose(x, [8 / 5, 6 / 5], atol=1e-9)


def test_negative_rhs_needs_dual_pivots():
    # x >= 2 encoded as -x <= -2, minimize x
    x, obj = solve_inequality_lp(np.array([1.0]), np.array([[-1.0]]), np.array([-2.0]))
    assert x[0] == pytest.approx(2.0, abs=1e-9)
    assert obj == pytest.approx(2.0, abs=1e-9)


def test_infeasible_detected():
    # x <= 1 and x >= 3
    A, b = np.array([[1.0], [-1.0]]), np.array([1.0, -3.0])
    with pytest.raises(LpInfeasibleError) as info:
        solve_inequality_lp(np.array([1.0]), A, b)
    assert_certificate(A, b, info.value.ray)


def test_degenerate_redundant_rows():
    # duplicated and implied constraints around the same optimum
    A = np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0], [-1.0, 0.0]])
    b = np.array([2.0, 2.0, 4.0, 0.0])
    x, obj = solve_inequality_lp(np.array([-1.0, 0.0]), A, b)
    assert obj == pytest.approx(-2.0, abs=1e-9)


def test_degenerate_redundant_rows_with_negative_rhs():
    # x1 + x2 >= 2 stated twice and implied by 2 x1 + 2 x2 >= 4, x1 + x2 >= 1
    # and x1 >= 0: the dual pass starts on these rows and the optimum is
    # degenerate on the first three
    A = np.array([[-1.0, -1.0], [-1.0, -1.0], [-2.0, -2.0], [-1.0, -1.0], [-1.0, 0.0]])
    b = np.array([-2.0, -2.0, -4.0, -1.0, 0.0])
    x, obj = solve_inequality_lp(np.array([1.0, 2.0]), A, b)
    assert obj == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(x, [2.0, 0.0], atol=1e-9)
    assert np.all(A @ x <= b + 1e-9)


def _check_against_highs(rng, mixed_costs):
    """Solve 60 random LPs and compare with HiGHS; returns the infeasible count."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    agree = 0
    for _ in range(60):
        m, n = rng.integers(1, 7), rng.integers(1, 7)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        if mixed_costs:
            # box rows x <= 5 keep a cost of either sign bounded, so the
            # dual pass and then the primal pass both pivot
            c = rng.normal(size=n)
            A, b = np.vstack([A, np.eye(n)]), np.r_[b, np.full(n, 5.0)]
        else:
            c = rng.uniform(0.1, 2.0, size=n)  # positive costs keep it bounded
        ref = linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")
        if ref.status == 2:
            with pytest.raises(LpInfeasibleError) as info:
                solve_inequality_lp(c, A, b)
            assert_certificate(A, b, info.value.ray)
        else:
            assert ref.status == 0
            x, obj = solve_inequality_lp(c, A, b)
            assert obj == pytest.approx(ref.fun, abs=1e-7)
            assert np.all(A @ x <= b + 1e-8)
            assert np.all(x >= -1e-12)
            agree += 1
    assert agree >= 20  # random instances must include solvable ones
    return 60 - agree


def test_matches_scipy_on_random_instances():
    assert _check_against_highs(np.random.default_rng(0), mixed_costs=False) > 0


def test_matches_scipy_with_mixed_sign_costs(monkeypatch):
    # count the LPs on which each pass has a pivot to make
    passes = {"dual": 0, "primal": 0}
    dual, primal = simplex._dual_iterate, simplex._primal_iterate

    def dual_spy(T, basis):
        passes["dual"] += bool(np.any(T[:-1, -1] < 0))
        dual(T, basis)

    def primal_spy(T, basis):
        passes["primal"] += bool(np.any(T[-1, :-1] < 0))
        primal(T, basis)

    monkeypatch.setattr(simplex, "_dual_iterate", dual_spy)
    monkeypatch.setattr(simplex, "_primal_iterate", primal_spy)
    assert _check_against_highs(np.random.default_rng(1), mixed_costs=True) > 0
    assert passes["dual"] >= 20 and passes["primal"] >= 20
