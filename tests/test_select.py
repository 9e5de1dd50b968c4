import numpy as np
import pytest

from glda.model import DirectionSet, summarize
from glda.select import (
    CvResult,
    LambdaGrid,
    kfold_cv,
    lambda_grid,
    lambda_max,
    support_metrics,
)
from glda.simulate import sample, spec_from_directions
from glda.solvers import fit_grouped


def small_dataset(seed=0, n_k=12, p=6):
    rng = np.random.default_rng(seed)
    B = np.zeros((p, 2))
    B[0, 0], B[1, 1] = 2.0, -2.0
    spec = spec_from_directions(np.eye(p), B, (n_k, n_k, n_k), seed)
    return sample(spec)


def test_lambda_grid_log_spacing():
    g = lambda_grid(1.0, 3, 2.0)
    assert np.allclose(g.values, [1.0, 0.1, 0.01])


def test_lambda_grid_two_points():
    g = lambda_grid(5.0, 2, 1.0)
    assert np.allclose(g.values, [5.0, 0.5])


def test_lambda_grid_rejects_bad_inputs():
    with pytest.raises(ValueError):
        lambda_grid(0.0, 4, 1.0)
    with pytest.raises(ValueError):
        lambda_grid(1.0, 1, 1.0)
    for lmax, decades in [(np.inf, 3.0), (np.nan, 3.0), (1.0, np.inf), (1.0, np.nan)]:
        with pytest.raises(ValueError, match="must be finite"):
            lambda_grid(lmax, 10, decades)
    for values in ([np.nan], [np.inf], [np.inf, 1.0], [1.0, np.nan]):
        with pytest.raises(ValueError, match="must be finite"):
            LambdaGrid(values=np.array(values))


def test_lambda_max_anchors_zero_solution():
    d = small_dataset(3)
    cs = summarize(d)
    from glda.model import pooled_scatter

    S = pooled_scatter(d, cs)
    lmax = lambda_max(cs.deltas)
    ds, _ = fit_grouped(S, cs.deltas, lmax)
    assert np.all(ds.matrix == 0.0)
    ds2, _ = fit_grouped(S, cs.deltas, 0.9 * lmax)
    assert np.any(ds2.matrix != 0.0)


def test_grid_type_invariants():
    with pytest.raises(ValueError):
        LambdaGrid(values=np.array([1.0, 2.0]))  # increasing
    with pytest.raises(ValueError):
        LambdaGrid(values=np.array([1.0, -0.5]))
    g = LambdaGrid(values=np.array([0.7]))  # single value is allowed
    assert len(g) == 1


def test_kfold_cv_deterministic_and_tie_break():
    d = small_dataset(1)
    grid = lambda_grid(lambda_max(summarize(d).deltas), 6, 1.5)
    a = kfold_cv(d, grid, folds=3, seed=42)
    b = kfold_cv(d, grid, folds=3, seed=42)
    assert np.array_equal(a.fold_assignments, b.fold_assignments)
    assert np.array_equal(a.mean_errors, b.mean_errors)
    assert a.chosen_lambda == b.chosen_lambda
    winners = a.lambdas[a.mean_errors == a.mean_errors.min()]
    assert a.chosen_lambda == winners.max()


def test_kfold_cv_single_lambda():
    d = small_dataset(2)
    res = kfold_cv(d, LambdaGrid(values=np.array([0.4])), folds=3, seed=0)
    assert res.chosen_lambda == 0.4


def test_kfold_cv_small_class_errors():
    d = small_dataset(0, n_k=4)
    grid = LambdaGrid(values=np.array([0.5]))
    with pytest.raises(ValueError, match="fewer samples than fold count"):
        kfold_cv(d, grid, folds=5, seed=0)
    for folds in (1, 0):
        with pytest.raises(ValueError, match=f"need at least 2 folds, got {folds}"):
            kfold_cv(d, grid, folds=folds, seed=0)


def test_cv_result_tie_break_invariant():
    res = CvResult(
        lambdas=np.array([2.0, 1.0, 0.5]),
        mean_errors=np.array([0.2, 0.1, 0.1]),
        sd_errors=np.zeros(3),
        fold_assignments=np.zeros(3, dtype=int),
        seed=0,
    )
    assert res.chosen_lambda == 1.0  # the larger of the two tied minimizers


def test_support_metrics_exact():
    B = np.zeros((6, 2))
    B[0, 0] = 1.0
    B[1, 1] = -1.0
    truth = DirectionSet(B)
    m = support_metrics(truth, truth)
    assert m.joint.exact and m.joint.fp == 0 and m.joint.fn == 0
    assert all(c.exact for c in m.per_direction)


def test_support_metrics_zero_estimate():
    B = np.zeros((8, 2))
    B[[0, 1, 2], 0] = 1.0
    truth = DirectionSet(B)
    est = DirectionSet(np.zeros((8, 2)))
    m = support_metrics(est, truth)
    assert m.joint.fn == 3 and m.joint.fp == 0 and not m.joint.exact


def test_support_metrics_sim1_style_fp():
    truth = DirectionSet(np.zeros((20, 2)))
    truth.matrix.setflags(write=True)
    truth.matrix[[0, 1, 2], 0] = 1.0
    truth.matrix[[0, 1, 2], 1] = -1.0
    truth.matrix.setflags(write=False)
    est_m = truth.matrix.copy()
    est_m[11, 0] = 0.5  # row 12 leaks in
    m = support_metrics(DirectionSet(est_m), truth)
    assert m.joint.fp == 1 and not m.joint.exact


def test_support_metrics_threshold_applied_to_estimate():
    truth = DirectionSet(np.array([[1.0], [0.0]]))
    est = DirectionSet(np.array([[1.0], [0.2]]))
    assert not support_metrics(est, truth).joint.exact
    assert support_metrics(est, truth, zeta=0.25).joint.exact


def test_support_metrics_permutation_symmetry():
    rng = np.random.default_rng(6)
    M = rng.normal(size=(10, 2)) * (rng.random(size=(10, 2)) < 0.4)
    T = rng.normal(size=(10, 2)) * (rng.random(size=(10, 2)) < 0.4)
    perm = rng.permutation(10)
    a = support_metrics(DirectionSet(M), DirectionSet(T), 0.1)
    b = support_metrics(DirectionSet(M[perm]), DirectionSet(T[perm]), 0.1)
    assert a.joint == b.joint
    assert a.per_direction == b.per_direction


def test_support_shape_mismatch():
    with pytest.raises(ValueError):
        support_metrics(DirectionSet(np.zeros((3, 1))), DirectionSet(np.zeros((4, 1))))


def test_soft_support_monotonicity_along_grid():
    # statistical check: support size mostly shrinks as lambda grows
    rng = np.random.default_rng(0)
    from glda.model import pooled_scatter

    good = 0
    total = 0
    for seed in range(20):
        d = small_dataset(seed, n_k=10, p=8)
        cs = summarize(d)
        S = pooled_scatter(d, cs)
        lmax = lambda_max(cs.deltas)
        grid = lambda_grid(lmax, 5, 1.0)
        sizes = []
        for lam in grid.values:
            ds, _ = fit_grouped(S, cs.deltas, float(lam))
            sizes.append(len(ds.joint_support()))
        for a, b in zip(sizes, sizes[1:]):
            total += 1
            good += a <= b
    assert good / total >= 0.9
