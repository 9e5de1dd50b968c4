import numpy as np
import pytest

from glda.model import (
    Dataset,
    DirectionSet,
    PooledScatter,
    as_scatter,
    group_norms,
    pooled_scatter,
    summarize,
)
from glda.simulate import sample, sim1_spec


def two_class_1d():
    X = np.array([[0.0], [2.0], [5.0], [7.0]])
    y = np.array([1, 1, 2, 2])
    return Dataset(X, y)


def test_summarize_hand_case():
    cs = summarize(two_class_1d())
    assert np.allclose(cs.means.ravel(), [1.0, 6.0])
    assert np.allclose(cs.priors, [0.5, 0.5])
    assert cs.deltas.shape == (1, 1)
    assert cs.deltas[0, 0] == -5.0
    assert (cs.n_classes, cs.p) == (2, 1)


def test_summarize_single_effective_class_rejected():
    # K >= 2 is required at construction
    with pytest.raises(ValueError):
        Dataset(np.ones((3, 2)), np.array([1, 1, 1]))


def test_summarize_order_invariance():
    d = two_class_1d()
    perm = np.array([2, 0, 3, 1])
    d2 = Dataset(d.features[perm], d.labels[perm])
    a, b = summarize(d), summarize(d2)
    assert np.array_equal(a.means, b.means)
    assert np.array_equal(a.counts, b.counts)
    assert np.array_equal(a.deltas, b.deltas)


def test_empty_class_message():
    with pytest.raises(ValueError, match="class 2 has no samples"):
        Dataset(np.ones((3, 1)), np.array([1, 1, 3]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features(bad):
    X = np.ones((4, 2))
    X[2, 1] = bad
    with pytest.raises(ValueError, match="features must be finite"):
        Dataset(X, np.array([1, 1, 2, 2]))


def test_dataset_keeps_a_frozen_owned_array_and_copies_the_rest():
    X = np.arange(12.0).reshape(6, 2).copy()  # reshape alone gives a view
    y = np.array([1, 1, 1, 2, 2, 2])
    X.setflags(write=False)
    assert Dataset(X, y).features is X
    writable = np.arange(12.0).reshape(6, 2)
    view = X[:, :1]
    fortran = np.asfortranarray(np.arange(12.0).reshape(6, 2))
    fortran.setflags(write=False)
    for A in (writable, view, fortran):
        kept = Dataset(A, y).features
        assert kept is not A and not np.shares_memory(kept, A)
        assert np.array_equal(kept, A) and not kept.flags.writeable


def test_direction_set_has_no_negative_zeros():
    assert not np.signbit(DirectionSet([[-0.0]]).matrix).any()
    B = np.array([[-0.0, 1.5], [-2.0, 0.0]])
    ds = DirectionSet(B)
    assert np.signbit(ds.matrix).tolist() == [[False, False], [True, False]]
    assert np.array_equal(ds.matrix, B)


def test_pooled_scatter_hand_case():
    d = two_class_1d()
    S = pooled_scatter(d, summarize(d))
    assert S.matrix[0, 0] == pytest.approx(2.0)


def test_pooled_scatter_zero_when_classes_are_constant():
    X = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 0.0], [5.0, 0.0]])
    d = Dataset(X, np.array([1, 1, 2, 2]))
    S = pooled_scatter(d, summarize(d))
    assert np.all(S.matrix == 0.0)


def test_pooled_scatter_duplication_rescales_by_dof():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 4))
    y = np.array([1, 2, 3] * 4)
    d = Dataset(X, y)
    S = pooled_scatter(d, summarize(d))
    d2 = Dataset(np.vstack([X, X]), np.concatenate([y, y]))
    S2 = pooled_scatter(d2, summarize(d2))
    n, k = 12, 3
    expect = S.matrix * (2 * (n - k)) / (2 * n - k)
    assert np.allclose(S2.matrix, expect, atol=1e-12)


def test_pooled_scatter_needs_dof():
    X = np.eye(2)
    d = Dataset(X, np.array([1, 2]))
    with pytest.raises(ValueError, match="insufficient degrees of freedom"):
        pooled_scatter(d, summarize(d))


def test_pooled_scatter_symmetric_psd_on_random_data():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(40, 15))
    y = rng.integers(1, 4, size=40)
    y[:3] = [1, 2, 3]
    d = Dataset(X, y)
    S = pooled_scatter(d, summarize(d))
    assert np.array_equal(S.matrix, S.matrix.T)
    for _ in range(25):
        v = rng.normal(size=15)
        assert v @ (S.matrix @ v) >= -1e-10 * (v @ v)


def test_pooled_scatter_invariant_under_class_relabeling():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(30, 6))
    y = rng.integers(1, 4, size=30)
    y[:3] = [1, 2, 3]
    d = Dataset(X, y)
    S1 = pooled_scatter(d, summarize(d))
    swap = {1: 2, 2: 1, 3: 3}
    d2 = Dataset(X, np.array([swap[v] for v in y]))
    S2 = pooled_scatter(d2, summarize(d2))
    assert np.allclose(S1.matrix, S2.matrix, atol=1e-12)


@pytest.mark.parametrize("n, p", [(6, 10), (10, 6)])
def test_top_eigenvalue_is_exact_for_either_factor_shape(n, p):
    F = np.random.default_rng(n).normal(size=(n, p))
    S = PooledScatter(factor=F)
    assert S.top_eigenvalue == pytest.approx(np.linalg.eigvalsh(S.matrix)[-1], rel=1e-12)


def test_top_eigenvalue_on_sim1_seed3():
    # a 50-step power iteration reached only 0.986 of this value
    d = sample(sim1_spec(3))
    S = pooled_scatter(d, summarize(d))
    assert S.top_eigenvalue == pytest.approx(np.linalg.eigvalsh(S.matrix)[-1], rel=1e-12)


@pytest.mark.parametrize("shape", ["n<p", "n>p", "n>p scaled duplicate", "square"])
def test_null_projection_annihilates_the_factor_and_is_idempotent(shape):
    rng = np.random.default_rng(1)
    if shape == "n<p":
        S, nullity = PooledScatter(factor=rng.normal(size=(6, 10))), 4
    elif shape == "n>p":
        F = rng.normal(size=(10, 4)) @ rng.normal(size=(4, 6))
        S, nullity = PooledScatter(factor=F), 2
    elif shape == "n>p scaled duplicate":
        # columns over six decades, the last a copy of the first
        F = rng.normal(size=(12, 5)) * np.exp(3.0 * rng.normal(size=5))
        S, nullity = PooledScatter(factor=np.hstack([F, F[:, :1]])), 1
    else:
        A = rng.normal(size=(3, 7))
        S, nullity = as_scatter(A.T @ A), 4
    D = rng.normal(size=(S.p, 3))
    P = S.null_project(D)
    assert S.has_null_space
    assert np.linalg.norm(S.factor @ P) <= 1e-10 * np.sqrt(S.top_eigenvalue) * np.linalg.norm(D)
    assert np.allclose(S.null_project(P), P, rtol=0.0, atol=1e-10 * np.linalg.norm(D))
    # an orthogonal projector onto a space of the right dimension, not just 0
    assert np.trace(S.null_project(np.eye(S.p))) == pytest.approx(nullity)
    assert np.allclose(P, D - np.linalg.pinv(S.matrix) @ (S.matrix @ D), atol=1e-8)


def test_one_eigendecomposition_answers_every_question_about_the_scatter(monkeypatch):
    from glda.classify import pseudoinverse_lda_fit
    from glda.solvers import fit_grouped

    d = sample(sim1_spec(0))
    cs = summarize(d)
    S = pooled_scatter(d, cs)
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    def forbidden(*args, **kwargs):
        raise AssertionError("a second factorisation of the scatter")

    monkeypatch.setattr(np.linalg, "eigh", counted)
    monkeypatch.setattr(np.linalg, "svd", forbidden)
    monkeypatch.setattr(np.linalg, "cond", forbidden)
    assert S.top_eigenvalue > 0 and 0 < S.rank < S.p
    S.null_project(cs.deltas.T)
    pseudoinverse_lda_fit(S, cs)
    fit_grouped(S, cs.deltas, 1.0)
    assert calls == [(d.n_samples, d.n_samples)]


def test_spectrum_is_frozen_and_spans_the_range_of_the_scatter():
    rng = np.random.default_rng(4)
    for F, rank in ((rng.normal(size=(5, 9)), 5), (rng.normal(size=(9, 3)) @ rng.normal(size=(3, 5)), 3)):
        w, V = PooledScatter(factor=F).spectrum
        assert not w.flags.writeable and not V.flags.writeable
        assert w.shape == (rank,) and V.shape == (rank, F.shape[1])
        assert np.allclose(V @ V.T, np.eye(w.size), atol=1e-12)
        assert np.allclose(V.T @ (w[:, None] * V), F.T @ F, atol=1e-10)


def test_full_rank_scatter_has_no_null_space():
    S = PooledScatter(factor=np.random.default_rng(5).normal(size=(10, 6)))
    assert not S.has_null_space
    assert np.all(S.null_project(np.ones((6, 2))) == 0.0)


def test_deltas_are_exact_mean_differences():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(24, 5))
    y = rng.integers(1, 5, size=24)
    y[:4] = [1, 2, 3, 4]
    cs = summarize(Dataset(X, y))
    for k in range(3):
        assert np.array_equal(cs.deltas[k], cs.means[0] - cs.means[k + 1])


def test_group_norms_hand_cases():
    ds = DirectionSet(np.array([[3.0, 4.0], [0.0, 0.0]]))
    assert np.allclose(group_norms(ds), [5.0, 0.0])
    assert np.all(group_norms(DirectionSet(np.zeros((4, 2)))) == 0.0)
    single = DirectionSet(np.array([[-2.0], [1.5], [0.0]]))
    assert np.allclose(group_norms(single), [2.0, 1.5, 0.0])


def test_group_norm_zero_iff_zero_row():
    rng = np.random.default_rng(2)
    M = rng.normal(size=(10, 3))
    M[[1, 4]] = 0.0
    norms = group_norms(DirectionSet(M))
    assert np.array_equal(norms == 0.0, np.all(M == 0.0, axis=1))


def test_direction_set_views():
    M = np.arange(12, dtype=float).reshape(4, 3)
    ds = DirectionSet(M)
    assert np.array_equal(ds.row(2), M[2])
    assert np.array_equal(ds.column(1), M[:, 1])
    assert ds.p == 4 and ds.n_directions == 3


def test_dataset_immutable():
    d = two_class_1d()
    with pytest.raises(ValueError):
        d.features[0, 0] = 9.0


@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda: Dataset(np.zeros(3), np.array([1, 2, 1])), "features must be a 2-d array"),
        (lambda: Dataset(np.zeros((3, 1)), np.array([1, 2])), "labels must have one entry per sample"),
        (lambda: Dataset(np.zeros((2, 0)), np.array([1, 2])), "need at least one sample and one feature"),
        (lambda: Dataset(np.zeros((3, 1)), np.array([0, 1, 2])), "labels must be 1-based integers"),
        (lambda: PooledScatter(factor=np.zeros(3)), "scatter factor must be a non-empty 2-d array"),
        (lambda: DirectionSet(np.zeros(3)), "directions must form a 2-d matrix"),
        (lambda: as_scatter(np.zeros((2, 3))), "scatter must be a non-empty square matrix"),
    ],
    ids=["features-1d", "label-count", "no-features", "label-zero", "factor-1d", "directions-1d", "scatter-shape"],
)
def test_model_validators(make, reason):
    with pytest.raises(ValueError, match=reason):
        make()
