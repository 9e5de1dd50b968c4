import tracemalloc

import numpy as np
import pytest

from glda.model import DirectionSet, pooled_scatter, summarize
from glda.simulate import (
    CovarianceSummary,
    bayes_error_binary,
    cone_condition_check,
    covariance_summary,
    delta_quadratic,
    event_d_check,
    sample,
    sim1_spec,
    sim2_spec,
    spec_from_directions,
)


def test_sim1_sigma_mirrored():
    s = sim1_spec(0)
    # 1-based (4,1) entry and its mirror
    assert s.sigma[3, 0] == 0.25 and s.sigma[0, 3] == 0.25
    assert s.sigma[4, 1] == -0.25 and s.sigma[1, 4] == -0.25
    assert np.all(np.diag(s.sigma) == 1.0)
    assert np.array_equal(s.sigma, s.sigma.T)


def test_sim1_supports_and_delta():
    s = sim1_spec(0)
    assert set((s.true_directions.joint_support() + 1).tolist()) == {1, 2, 3}
    # Delta_k = b_k' Sigma b_k by construction
    d1, d2 = (delta_quadratic(s.sigma, d) for d in s.deltas())
    assert d1 == pytest.approx(14.0, abs=1e-10)
    assert d2 == pytest.approx(6.44, abs=1e-10)


def test_sim1_mu_sign_convention():
    # mu_{k+1} = mu_1 - Sigma b_k; the (4th, 1-based) coordinate of Sigma b_1
    # equals 0.75, so mu_2 carries -0.75 there
    s = sim1_spec(0)
    sb1 = s.sigma @ s.true_directions.matrix[:, 0]
    assert sb1[3] == pytest.approx(0.75)
    assert s.mus[1][3] == pytest.approx(-0.75)


def test_mu_construction_identity():
    s = sim2_spec(5)
    recon = s.mus[0] - (s.sigma @ s.true_directions.matrix).T
    assert np.abs(s.mus[1:] - recon).max() < 1e-12


def test_sim2_sigma_block():
    s = sim2_spec(0)
    assert s.sigma[0, 1] == pytest.approx(1 / 3)
    assert s.sigma[0, 2] == pytest.approx(1 / 9)
    assert s.sigma[100, 101] == 0.0
    assert np.all(np.diag(s.sigma) == 1.0)


def test_sim2_supports():
    s = sim2_spec(0)
    assert set((s.true_directions.column_support(0) + 1).tolist()) == {1, 2, 4}
    assert set((s.true_directions.column_support(1) + 1).tolist()) == {1, 2, 3}
    assert set((s.true_directions.joint_support() + 1).tolist()) == {1, 2, 3, 4}


def test_sim_sigmas_are_positive_definite():
    np.linalg.cholesky(sim1_spec(0).sigma)
    np.linalg.cholesky(sim2_spec(0).sigma)


def test_sample_deterministic_and_shaped():
    s = sim1_spec(11)
    a, b = sample(s), sample(s)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    assert a.n_samples == 60 and a.p == 200


def _reference_sample(spec):
    # the plain form of the draw: per class in label order,
    # mus[k] + Z @ cholesky(Sigma).T, then stacked
    L = np.linalg.cholesky(spec.sigma)
    rng = np.random.default_rng(spec.seed)
    blocks, labels = [], []
    for k, n in enumerate(spec.n_per_class):
        blocks.append(spec.mus[k] + rng.standard_normal((int(n), spec.p)) @ L.T)
        labels.append(np.full(int(n), k + 1))
    return np.vstack(blocks), np.concatenate(labels)


@pytest.mark.parametrize(
    "spec",
    [
        sim1_spec(3),
        sim2_spec(8),
        spec_from_directions(sim2_spec(0).sigma, sim2_spec(0).true_directions, (7, 31, 2), 9),
    ],
    ids=["sim1", "sim2", "unequal"],
)
def test_sample_matches_reference_draw_bytewise(spec):
    X, y = _reference_sample(spec)
    d = sample(spec)
    assert d.features.tobytes() == X.tobytes()
    assert d.labels.tobytes() == y.tobytes()
    assert d.features.flags.c_contiguous


def test_sample_peak_memory_is_one_output_plus_one_class():
    # sample draws each class into one preallocated N x p array that the
    # Dataset keeps, so its traced peak is the output plus one class's
    # draws (1.5x here), not a second factor, the blocks, their stack and
    # a copy. tracemalloc does not see numpy's Cholesky work buffer, so the
    # saving from factoring Sigma before copying it in SimulationSpec shows
    # in the benchmark's peak RSS, not in this test.
    p = 1000
    B = np.zeros((p, 1))
    B[0, 0] = 1.0
    spec = spec_from_directions(np.eye(p), B, (500, 500), 0)
    sample(sim1_spec(0))  # the first draw in a process imports modules numpy loads lazily
    tracemalloc.start()
    try:
        d = sample(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.features.nbytes == 8 * 1000 * p
    assert peak <= 1.6 * d.features.nbytes


def test_spec_keeps_its_own_sigma_and_factor():
    sigma = sim2_spec(0).sigma.copy()
    spec = spec_from_directions(sigma, sim2_spec(0).true_directions, (4, 4, 4), 0)
    sigma[0, 0] = 50.0
    assert spec.sigma[0, 0] == 1.0
    assert not spec.sigma.flags.writeable and not spec.sigma_factor.flags.writeable
    assert np.array_equal(spec.sigma_factor, np.linalg.cholesky(spec.sigma))


def test_spec_rejects_non_symmetric_or_indefinite_sigma():
    B = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        spec_from_directions(np.array([[1.0, 0.5], [0.0, 1.0]]), B, (2, 2), 0)
    with pytest.raises(ValueError, match="positive definite"):
        spec_from_directions(np.array([[1.0, 2.0], [2.0, 1.0]]), B, (2, 2), 0)


def test_sample_rejects_empty_class():
    with pytest.raises(ValueError):
        spec_from_directions(np.eye(3), np.array([[1.0], [0.0], [0.0]]), (5, 0), 0)


def test_sample_mean_concentration():
    B = np.array([[1.0], [0.0], [0.0]])
    spec = spec_from_directions(np.eye(3), B, (100000, 10), 3)
    d = sample(spec)
    m1 = d.features[d.labels == 1].mean(axis=0)
    assert np.abs(m1 - spec.mus[0]).max() < 0.02


def test_sample_covariance_matches_sigma():
    # pooled centered draws against the design-1 covariance
    sigma = sim1_spec(0).sigma
    B = np.zeros((200, 1))
    B[0, 0] = 1.0
    spec = spec_from_directions(sigma, B, (50000, 50000), 12)
    d = sample(spec)
    X1 = d.features[d.labels == 1]
    X2 = d.features[d.labels == 2]
    C = ((X1 - X1.mean(0)).T @ (X1 - X1.mean(0)) + (X2 - X2.mean(0)).T @ (X2 - X2.mean(0))) / (
        d.n_samples - 2
    )
    assert np.abs(C - sigma).max() < 0.05


def test_covariance_summary_cases():
    s2 = sim2_spec(0)
    cs = covariance_summary(s2.sigma)
    assert (cs.plus_min, cs.plus_max) == (1.0, 1.0)
    assert cs.minus_max == pytest.approx(1 / 3)
    ident = covariance_summary(np.eye(4))
    assert (ident.plus_min, ident.plus_max, ident.minus_max) == (1.0, 1.0, 0.0)
    diag = covariance_summary(np.diag([2.0, 5.0]))
    assert (diag.plus_min, diag.plus_max, diag.minus_max) == (2.0, 5.0, 0.0)
    one = covariance_summary([[3.0]])
    assert (one.plus_min, one.plus_max, one.minus_max) == (3.0, 3.0, 0.0)


def test_event_d_cases():
    sigma = sim1_spec(0).sigma
    assert event_d_check(sigma, sigma)
    assert not event_d_check(3.0 * sigma, sigma)  # off-diagonals exceed 2x
    assert event_d_check(0.5 * sigma, sigma)  # diagonal boundary holds
    # literal zero off-diagonal population: identity scatter passes, any
    # off-diagonal noise fails
    eye = np.eye(3)
    noisy = eye.copy()
    noisy[0, 1] = noisy[1, 0] = 1e-14
    assert event_d_check(eye, eye)
    assert not event_d_check(noisy, eye)


def test_event_d_accepts_summary_and_scatter():
    s = sim1_spec(4)
    d = sample(s)
    S = pooled_scatter(d, summarize(d))
    summary = covariance_summary(s.sigma)
    assert event_d_check(S, summary) == event_d_check(S.matrix, s.sigma)


def test_event_d_holds_with_high_probability_on_sim1():
    # At N=60 (dof 57) the chi-square left tail across 200 diagonal entries
    # alone breaks ~10% of replications, so the attainable rate is ~80%;
    # the bound tightens to ~100% once N grows.
    sigma = sim1_spec(0).sigma
    hits = 0
    for seed in range(100):
        d = sample(sim1_spec(seed))
        S = pooled_scatter(d, summarize(d))
        hits += event_d_check(S, sigma)
    assert hits >= 75
    hits_big = 0
    B = sim1_spec(0).true_directions
    for seed in range(100):
        spec = spec_from_directions(sigma, B, (80, 80, 80), seed)
        d = sample(spec)
        S = pooled_scatter(d, summarize(d))
        hits_big += event_d_check(S, sigma)
    assert hits_big >= 95


def test_cone_condition_cases():
    B = np.zeros((6, 2))
    B[[0, 1], 0] = 1.0
    truth = DirectionSet(B)
    T = [0, 1]
    assert cone_condition_check(truth, truth, T)
    assert cone_condition_check(DirectionSet(np.zeros((6, 2))), truth, T)
    bad = B.copy()
    bad[5, 0] = 1.0  # unit mass off support, exact on support
    assert not cone_condition_check(DirectionSet(bad), truth, T)
    # an empty T puts every row off the support, where only zeros pass
    assert cone_condition_check(DirectionSet(np.zeros((6, 2))), truth, [])
    assert not cone_condition_check(truth, truth, [])


def test_delta_quadratic_cases():
    assert delta_quadratic(np.eye(2), [3.0, 4.0]) == pytest.approx(25.0)
    assert delta_quadratic(np.eye(3), np.zeros(3)) == 0.0
    assert delta_quadratic(np.diag([2.0, 5.0]), [2.0, 5.0]) == pytest.approx(7.0)


def test_bayes_error_binary_values():
    assert bayes_error_binary(0.0) == 0.5
    assert bayes_error_binary(4.0) == pytest.approx(0.15865525393145707, abs=1e-12)
    assert bayes_error_binary(1e6) < 1e-12


def test_bayes_error_rejects_negative():
    with pytest.raises(ValueError):
        bayes_error_binary(-1.0)


def test_covariance_summary_invariant():
    with pytest.raises(ValueError):
        CovarianceSummary(plus_min=2.0, plus_max=1.0, minus_max=0.0)
