import numpy as np
import pytest

from glda.simplex import InequalityLP, LpInfeasibleError


def assert_certificate(A, b, y):
    """y proves {x >= 0 : Ax <= b} empty: y >= 0, y'A >= 0 and y'b < 0."""
    assert y is not None and y.shape == b.shape
    assert np.all(y >= 0) and y.sum() > 0
    assert np.all(y @ A >= -1e-9 * y.sum())
    assert y @ b < 0


def test_basic_lp():
    # min x1 + x2 s.t. x1 + 2 x2 >= 4, 3 x1 + x2 >= 6, stated as <= rows
    x, obj = InequalityLP(np.array([1.0, 1.0])).append(
        np.array([[-1.0, -2.0], [-3.0, -1.0]]),
        np.array([-4.0, -6.0]),
    )
    assert obj == pytest.approx(8 / 5 + 6 / 5, abs=1e-9)
    assert np.allclose(x, [8 / 5, 6 / 5], atol=1e-9)


def test_negative_rhs_needs_dual_pivots():
    # x >= 2 encoded as -x <= -2, minimize x
    x, obj = InequalityLP(np.array([1.0])).append(np.array([[-1.0]]), np.array([-2.0]))
    assert x[0] == pytest.approx(2.0, abs=1e-9)
    assert obj == pytest.approx(2.0, abs=1e-9)


def test_infeasible_detected():
    # x <= 1 and x >= 3
    A, b = np.array([[1.0], [-1.0]]), np.array([1.0, -3.0])
    with pytest.raises(LpInfeasibleError) as info:
        InequalityLP(np.array([1.0])).append(A, b)
    assert_certificate(A, b, info.value.ray)


def test_degenerate_redundant_rows_with_negative_rhs():
    # x1 + x2 >= 2 stated twice and implied by 2 x1 + 2 x2 >= 4, x1 + x2 >= 1
    # and x1 >= 0: the dual pass starts on these rows and the optimum is
    # degenerate on the first three
    A = np.array([[-1.0, -1.0], [-1.0, -1.0], [-2.0, -2.0], [-1.0, -1.0], [-1.0, 0.0]])
    b = np.array([-2.0, -2.0, -4.0, -1.0, 0.0])
    x, obj = InequalityLP(np.array([1.0, 2.0])).append(A, b)
    assert obj == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(x, [2.0, 0.0], atol=1e-9)
    assert np.all(A @ x <= b + 1e-9)


def _random_lp(rng):
    m, n = rng.integers(1, 7), rng.integers(1, 7)
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    c = rng.uniform(0.1, 2.0, size=n)
    return c, A, b


def _highs(c, A, b):
    linprog = pytest.importorskip("scipy.optimize").linprog
    return linprog(c, A_ub=A, b_ub=b, bounds=(0, None), method="highs")


def _check_against_highs(rng):
    """Solve 60 random LPs and compare with HiGHS; returns the infeasible count."""
    agree = 0
    for _ in range(60):
        c, A, b = _random_lp(rng)
        ref = _highs(c, A, b)
        if ref.status == 2:
            with pytest.raises(LpInfeasibleError) as info:
                InequalityLP(c).append(A, b)
            assert_certificate(A, b, info.value.ray)
        else:
            assert ref.status == 0
            x, obj = InequalityLP(c).append(A, b)
            assert obj == pytest.approx(ref.fun, abs=1e-7)
            assert np.all(A @ x <= b + 1e-8)
            assert np.all(x >= -1e-12)
            agree += 1
    assert agree >= 20  # random instances must include solvable ones
    return 60 - agree


def test_matches_scipy_on_random_instances():
    assert _check_against_highs(np.random.default_rng(0)) > 0


# --- rows appended to a solved LP ----------------------------------------


def _check_appended_against_highs(rng):
    """Solve 60 random LPs, append 1-4 random rows to each solvable one and
    resume; the result must match HiGHS on the stacked LP. Returns the
    counts of resumed LPs that were (solvable, infeasible)."""
    solved = infeasible = 0
    for _ in range(60):
        c, A, b = _random_lp(rng)
        lp = InequalityLP(c)
        try:
            lp.append(A, b)
        except LpInfeasibleError:
            continue
        k = rng.integers(1, 5)
        A2, b2 = rng.normal(size=(k, c.size)), rng.normal(size=k)
        A, b = np.vstack([A, A2]), np.r_[b, b2]
        ref = _highs(c, A, b)
        if ref.status == 2:
            with pytest.raises(LpInfeasibleError) as info:
                lp.append(A2, b2)
            assert_certificate(A, b, info.value.ray)
            infeasible += 1
        else:
            assert ref.status == 0
            x, obj = lp.append(A2, b2)
            assert obj == pytest.approx(ref.fun, abs=1e-7)
            assert np.all(A @ x <= b + 1e-8)
            assert np.all(x >= -1e-12)
            solved += 1
    return solved, infeasible


def test_appended_rows_match_scipy_with_positive_costs():
    solved, infeasible = _check_appended_against_highs(np.random.default_rng(2))
    assert solved >= 10 and infeasible > 0


def test_appended_duplicate_of_a_tight_row_keeps_the_optimum():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(30):
        c, A, b = _random_lp(rng)
        lp = InequalityLP(c)
        try:
            x, obj = lp.append(A, b)
        except LpInfeasibleError:
            continue
        tight = np.flatnonzero(np.abs(A @ x - b) <= 1e-9)
        if tight.size == 0:
            continue
        i = tight[0]
        # the row itself and three times it: both tight at x
        A2, b2 = A[[i, i]] * [[1.0], [3.0]], b[[i, i]] * [1.0, 3.0]
        x2, obj2 = lp.append(A2, b2)
        assert obj2 == pytest.approx(obj, abs=1e-9)
        assert np.allclose(x2, x, atol=1e-9)
        assert obj2 == pytest.approx(_highs(c, np.vstack([A, A2]), np.r_[b, b2]).fun, abs=1e-7)
        checked += 1
    assert checked >= 10


def test_append_that_empties_the_set_is_certified_against_the_stacked_lp():
    # x1 + x2 <= 4 and x1 >= 3 solve at (3, 0); x1 + x2 >= 5 then empties
    # the set
    A = np.array([[1.0, 1.0], [-1.0, 0.0]])
    b = np.array([4.0, -3.0])
    lp = InequalityLP(np.array([1.0, 2.0]))
    x, obj = lp.append(A, b)
    assert obj == pytest.approx(3.0, abs=1e-9)
    assert np.allclose(x, [3.0, 0.0], atol=1e-9)
    A2, b2 = np.array([[-2.0, -2.0]]), np.array([-10.0])
    with pytest.raises(LpInfeasibleError) as info:
        lp.append(A2, b2)
    assert_certificate(np.vstack([A, A2]), np.r_[b, b2], info.value.ray)


# --- input checks -----------------------------------------------------------


@pytest.mark.parametrize(
    "c, match",
    [
        ([1.0, -1.0], "nonnegative"),
        ([1.0, np.inf], "finite"),
        ([1.0, np.nan], "finite"),
        ([[1.0, 1.0]], "dimensions"),
    ],
    ids=["negative", "inf", "nan", "2-d"],
)
def test_costs_must_be_a_finite_nonnegative_vector(c, match):
    with pytest.raises(ValueError, match=match):
        InequalityLP(c)


@pytest.mark.parametrize(
    "A, b, match",
    [
        ([[1.0, 1.0]], [1.0], "dimensions"),
        ([1.0], [1.0], "dimensions"),
        ([[1.0], [1.0]], [1.0], "dimensions"),
        ([[1.0]], [[1.0]], "dimensions"),
        ([[1.0]], [np.nan], "finite"),
        ([[np.inf]], [1.0], "finite"),
    ],
    ids=["wide", "1-d", "tall", "2-d-rhs", "nan-rhs", "inf-row"],
)
def test_appended_rows_must_fit_and_be_finite(A, b, match):
    lp = InequalityLP([1.0])
    with pytest.raises(ValueError, match=match):
        lp.append(A, b)
    # a rejected batch leaves the LP as it was
    x, obj = lp.append([[-1.0]], [-2.0])
    assert x[0] == pytest.approx(2.0) and obj == pytest.approx(2.0)
