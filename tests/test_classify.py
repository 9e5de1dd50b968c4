import math

import numpy as np
import pytest

from glda.classify import (
    ClassifierModel,
    NaiveBayesModel,
    PredictionReport,
    build_model,
    evaluate,
    naive_bayes_fit,
    predict,
    predict_batch,
    pseudoinverse_lda_fit,
    scores,
)
from glda.model import Dataset, DirectionSet, pooled_scatter, summarize


def hand_binary_model():
    # mu1 = 0, mu2 = (2, 0), Sigma = I, equal priors -> beta_1 = (-2, 0)
    means = np.array([[0.0, 0.0], [2.0, 0.0]])
    ds = DirectionSet(np.array([[-2.0], [0.0]]))
    return ClassifierModel(directions=ds, means=means, priors=np.array([0.5, 0.5]))


def test_predict_hand_binary():
    m = hand_binary_model()
    assert predict(m, [0.0, 0.0]) == 1
    assert predict(m, [2.0, 0.0]) == 2


def test_predict_boundary_tie_goes_to_larger_index():
    m = hand_binary_model()
    assert predict(m, [1.0, 0.0]) == 2


def test_predict_zero_directions_all_ties():
    means = np.zeros((3, 2))
    ds = DirectionSet(np.zeros((2, 2)))
    m = ClassifierModel(directions=ds, means=means, priors=np.ones(3) / 3)
    assert predict(m, [0.3, -0.8]) == 3


def test_build_model_shape_checks():
    d = Dataset(np.array([[0.0], [1.0], [4.0], [5.0]]), np.array([1, 1, 2, 2]))
    cs = summarize(d)
    model = build_model(cs, DirectionSet(np.array([[1.0]])))
    assert model.n_classes == 2
    with pytest.raises(ValueError):
        build_model(cs, DirectionSet(np.array([[1.0, 0.0]])))  # K' = K


def test_build_model_keeps_the_summaries_frozen_arrays_and_copies_writable_ones():
    d = Dataset(np.array([[0.0], [1.0], [4.0], [5.0]]), np.array([1, 1, 2, 2]))
    cs = summarize(d)
    model = build_model(cs, DirectionSet(np.array([[1.0]])))
    assert model.means is cs.means and model.priors is cs.priors
    means = np.array([[0.5], [4.5]])
    kept = ClassifierModel(DirectionSet(np.array([[1.0]])), means, cs.priors).means
    assert kept is not means and not kept.flags.writeable
    means[0, 0] = 9.0
    assert kept[0, 0] == 0.5


def test_build_model_microarray_scale_shapes():
    # 4 classes x 4434 features, the kind of shape real expression data has
    p, K = 4434, 4
    model = ClassifierModel(
        directions=DirectionSet(np.zeros((p, K - 1))),
        means=np.zeros((K, p)),
        priors=np.full(K, 0.25),
    )
    assert model.p == p and model.n_classes == K


def test_evaluate_on_class_means():
    m = hand_binary_model()
    test = Dataset(m.means.copy(), np.array([1, 2]))
    rep = evaluate(m, test)
    assert rep.error_rate == 0.0
    assert np.array_equal(rep.labels, [1, 2])


def test_evaluate_adversarial_permutation_complement():
    m = hand_binary_model()
    test_good = Dataset(m.means.copy(), np.array([1, 2]))
    test_bad = Dataset(m.means.copy(), np.array([2, 1]))
    assert evaluate(m, test_good).error_rate + evaluate(m, test_bad).error_rate == 1.0


def test_predict_batch_empty_errors():
    m = hand_binary_model()
    with pytest.raises(ValueError, match="empty dataset"):
        predict_batch(m, np.zeros((0, 2)))


def test_pairwise_consistency_against_eq1_statistic():
    # directions from an exact symmetric solve keep the score difference
    # equal to the pairwise linear statistic
    rng = np.random.default_rng(0)
    p, K = 4, 4
    A = rng.normal(size=(40, p))
    sig = A.T @ A / 40 + 0.5 * np.eye(p)
    means = rng.normal(size=(K, p))
    priors = rng.dirichlet(np.ones(K))
    deltas = means[0] - means[1:]
    B = np.linalg.solve(sig, deltas.T)
    m = ClassifierModel(directions=DirectionSet(B), means=means, priors=priors)
    for _ in range(200):
        x = rng.normal(size=p)
        h = scores(m, x)[0]
        for k in range(K):
            for ell in range(K):
                if k == ell:
                    continue
                bkl = (B[:, ell - 1] if ell > 0 else 0.0) - (B[:, k - 1] if k > 0 else 0.0)
                stat = -(x - (means[k] + means[ell]) / 2) @ bkl - np.log(
                    priors[k] / priors[ell]
                )
                assert h[ell] - h[k] == pytest.approx(stat, abs=1e-10)


def test_predictions_match_pairwise_tournament():
    rng = np.random.default_rng(5)
    p, K = 3, 3
    sig = np.eye(p)
    means = rng.normal(size=(K, p))
    priors = np.ones(K) / K
    B = (means[0] - means[1:]).T
    m = ClassifierModel(directions=DirectionSet(B), means=means, priors=priors)
    for _ in range(300):
        x = rng.normal(size=p)
        h = scores(m, x)[0]
        lab = predict(m, x)
        # winner beats or ties every other class, ties resolved upward
        for other in range(1, K + 1):
            if other == lab:
                continue
            if other > lab:
                assert h[lab - 1] > h[other - 1]
            else:
                assert h[lab - 1] >= h[other - 1]


def test_argmax_invariances():
    m = hand_binary_model()
    rng = np.random.default_rng(8)
    X = rng.normal(size=(50, 2))
    base = predict_batch(m, X)
    shifted = scores(m, X) + 3.7
    k = shifted.shape[1]
    relabeled = k - np.argmax(shifted[:, ::-1], axis=1)
    assert np.array_equal(base, relabeled)
    # doubling unnormalized prior counts leaves priors, hence predictions, fixed
    m2 = ClassifierModel(directions=m.directions, means=m.means,
                         priors=np.array([2.0, 2.0]) / 4.0)
    assert np.array_equal(base, predict_batch(m2, X))


def test_nearest_mean_under_identity_covariance():
    rng = np.random.default_rng(13)
    p, K = 5, 4
    means = rng.normal(scale=2.0, size=(K, p))
    B = (means[0] - means[1:]).T  # Sigma = I
    m = ClassifierModel(directions=DirectionSet(B), means=means, priors=np.ones(K) / K)
    for _ in range(1000):
        x = rng.normal(size=p)
        d2 = np.sum((means - x) ** 2, axis=1)
        if np.min(np.abs(np.diff(np.sort(d2)))) < 1e-9:
            continue  # skip exact ties
        assert predict(m, x) == int(np.argmin(d2)) + 1


# --- naive Bayes ---------------------------------------------------------


def test_naive_bayes_midpoint_rule():
    rng = np.random.default_rng(3)
    x1 = rng.normal(0.0, 1.0, size=(400, 1))
    x2 = rng.normal(2.0, 1.0, size=(400, 1))
    d = Dataset(np.vstack([x1, x2]), np.concatenate([np.ones(400, int), np.full(400, 2)]))
    m = naive_bayes_fit(d)
    assert predict(m, [0.9]) == 1
    assert predict(m, [1.1]) == 2


def test_naive_bayes_identical_classes_tie_break():
    X = np.array([[1.0], [2.0], [1.0], [2.0]])
    d = Dataset(X, np.array([1, 1, 2, 2]))
    m = naive_bayes_fit(d)
    assert predict(m, [1.5]) == 2


def test_naive_bayes_zero_variance_floored():
    X = np.array([[1.0, 5.0], [1.0, 6.0], [2.0, 7.0], [2.0, 8.0]])
    d = Dataset(X, np.array([1, 1, 2, 2]))
    m = naive_bayes_fit(d)
    assert np.all(m.variances > 0)
    assert np.isfinite(predict(m, [1.0, 5.5]))


def test_naive_bayes_through_shared_scoring_path():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(30, 3)) + np.repeat(np.eye(3), 10, axis=0)
    d = Dataset(X, np.repeat([1, 2, 3], 10))
    m = naive_bayes_fit(d)
    labels = predict_batch(m, X)
    assert labels.tolist() == [predict(m, x) for x in X]
    report = evaluate(m, d)
    assert np.array_equal(report.labels, labels)
    assert np.array_equal(report.scores, scores(m, X))
    assert report.error_rate == np.mean(labels != d.labels)


def test_naive_bayes_scores_match_the_three_temporary_formula_bit_for_bit():
    rng = np.random.default_rng(12)
    means = rng.normal(size=(4, 9)) * 10.0 ** rng.integers(-3, 3, size=(4, 9))
    variances = rng.uniform(1e-4, 1e3, size=(4, 9))
    m = NaiveBayesModel(means=means, variances=variances, priors=np.array([0.1, 0.2, 0.3, 0.4]))
    table = rng.normal(size=(57, 10)) * 100.0
    # a C-ordered, a Fortran-ordered and a strided X (the CSV reader's table[:, 1:])
    for X in (np.ascontiguousarray(table[:, 1:]), np.asfortranarray(table[:, 1:]), table[:, 1:]):
        expected = np.zeros((X.shape[0], 4))
        for k in range(4):
            diff = X - means[k]
            expected[:, k] = (
                math.log(m.priors[k])
                - 0.5 * np.sum(np.log(2.0 * np.pi * variances[k]))
                - 0.5 * np.sum(diff * diff / variances[k], axis=1)
            )
        assert np.array_equal(m._scores(X), expected)


def test_naive_bayes_model_checks_its_invariants():
    means, variances, priors = np.zeros((2, 3)), np.ones((2, 3)), np.array([0.5, 0.5])
    NaiveBayesModel(means=means, variances=variances, priors=priors)
    bad_means = means.copy()
    bad_means[1, 2] = np.nan
    bad_variances = variances.copy()
    bad_variances[0, 0] = np.inf
    for kwargs, reason in (
        ({"priors": np.ones(3) / 3}, "one prior per class"),
        ({"priors": np.array([0.5, 0.6])}, "sum to 1"),
        ({"variances": np.ones((2, 1))}, "shape of the means"),
        ({"means": bad_means}, "must be finite"),
        ({"variances": bad_variances}, "must be finite"),
        ({"priors": np.array([np.nan, 0.5])}, "must be finite"),
    ):
        args = {"means": means, "variances": variances, "priors": priors, **kwargs}
        with pytest.raises(ValueError, match=reason):
            NaiveBayesModel(**args)


# --- pseudo-inverse baseline ---------------------------------------------


def test_pinv_invertible_matches_solve():
    rng = np.random.default_rng(17)
    A = rng.normal(size=(30, 4))
    S = A.T @ A / 30 + 0.2 * np.eye(4)
    d = Dataset(rng.normal(size=(12, 4)), np.array([1, 2, 3] * 4))
    cs = summarize(d)
    ds = pseudoinverse_lda_fit(S, cs)
    expect = np.linalg.solve(S, cs.deltas.T)
    assert np.abs(ds.matrix - expect).max() < 1e-8


@pytest.mark.parametrize("n, p", [(9, 20), (40, 6)])
def test_pinv_matches_numpy_pinv_for_either_factor_shape(n, p):
    rng = np.random.default_rng(n)
    X = rng.normal(size=(n, p)) * np.exp(rng.normal(size=p))
    X[:, -1] = X[:, 0]  # a duplicated column keeps S singular when N > p
    d = Dataset(X, np.arange(n) % 3 + 1)
    cs = summarize(d)
    S = pooled_scatter(d, cs)
    expect = np.linalg.pinv(S.matrix, rcond=1e-10, hermitian=True) @ cs.deltas.T
    got = pseudoinverse_lda_fit(S, cs).matrix
    assert np.linalg.norm(got - expect) <= 1e-12 * np.linalg.norm(expect)


def test_pinv_zero_scatter_gives_zero():
    d = Dataset(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([1, 1, 2, 2]))
    cs = summarize(d)
    ds = pseudoinverse_lda_fit(np.zeros((1, 1)), cs)
    assert np.all(ds.matrix == 0.0)


def test_pinv_rank_one_identity():
    rng = np.random.default_rng(2)
    v = rng.normal(size=5)
    S = np.outer(v, v)
    c = 1.7
    delta = c * v
    means = np.vstack([delta / 2, -delta / 2])
    from glda.model import ClassSummaries

    cs = ClassSummaries(counts=np.array([5, 5]), means=means)
    ds = pseudoinverse_lda_fit(S, cs)
    expect = (v @ delta / np.linalg.norm(v) ** 4) * v
    assert np.allclose(ds.matrix[:, 0], expect, atol=1e-10)
    assert np.allclose(ds.matrix[:, 0], np.linalg.pinv(S) @ delta, atol=1e-10)


@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda: ClassifierModel(directions=DirectionSet(np.zeros((2, 1))), means=np.zeros(2),
                                 priors=np.array([0.5, 0.5])), "means must form a 2-d matrix"),
        (lambda: PredictionReport(labels=[1], scores=[[0.0, 1.0]], error_rate=1.5),
         r"error rate must lie in \[0, 1\]"),
        (lambda: scores(hand_binary_model(), np.zeros((1, 3))), "feature dimension does not match the model"),
    ],
    ids=["means-1d", "error-rate", "score-dimension"],
)
def test_classify_validators(make, reason):
    with pytest.raises(ValueError, match=reason):
        make()
