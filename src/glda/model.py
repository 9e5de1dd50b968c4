"""Labeled datasets and the sufficient statistics used by every estimator.

Classes are labeled 1..K. Class 1 is the base class: all mean-difference
vectors are taken against it, so a K-class problem is summarized by the
K-1 contrasts delta_k = mean_1 - mean_{k+1}.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Dataset",
    "ClassSummaries",
    "PooledScatter",
    "DirectionSet",
    "summarize",
    "pooled_scatter",
    "scatter_matrix",
    "group_norms",
]


def _frozen(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class Dataset:
    """N samples of p features with integer labels in 1..K."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = _frozen(self.features)
        y = _frozen(self.labels, dtype=int)
        if X.ndim != 2:
            raise ValueError("features must be a 2-d array")
        if y.shape != (X.shape[0],):
            raise ValueError("labels must have one entry per sample")
        if X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("need at least one sample and one feature")
        if not np.all(np.isfinite(X)):
            raise ValueError("features must be finite")
        k = int(y.max(initial=0))
        if k < 2:
            raise ValueError("need at least two classes")
        if y.min() < 1:
            raise ValueError("labels must be 1-based integers")
        for c in range(1, k + 1):
            if not np.any(y == c):
                raise ValueError(f"class {c} has no samples")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)

    @property
    def n_samples(self):
        return self.features.shape[0]

    @property
    def p(self):
        return self.features.shape[1]

    @property
    def n_classes(self):
        return int(self.labels.max())

    def class_indices(self, k):
        return np.flatnonzero(self.labels == k)


@dataclass(frozen=True)
class ClassSummaries:
    """Per-class counts and means; priors and base-class differences follow.

    deltas[k] = means[0] - means[k + 1] for k = 0..K-2, exactly.
    """

    counts: np.ndarray
    means: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "counts", _frozen(self.counts, dtype=int))
        object.__setattr__(self, "means", _frozen(self.means))

    @cached_property
    def priors(self):
        return _frozen(self.counts / self.counts.sum())

    @cached_property
    def deltas(self):
        return _frozen(self.means[0] - self.means[1:])

    @property
    def n_classes(self):
        return self.means.shape[0]

    @property
    def p(self):
        return self.means.shape[1]


@dataclass(frozen=True)
class PooledScatter:
    """Pooled within-class covariance with its degrees of freedom N - K."""

    matrix: np.ndarray
    dof: int

    def __post_init__(self):
        S = np.array(self.matrix, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError("scatter matrix must be square")
        if not np.array_equal(S, S.T):
            S = (S + S.T) / 2.0
        S.setflags(write=False)
        object.__setattr__(self, "matrix", S)
        if self.dof < 1:
            raise ValueError("insufficient degrees of freedom")

    @property
    def p(self):
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DirectionSet:
    """p x K' matrix of discriminant directions, one column per contrast.

    Row j stacks the j-th coefficient of every direction; penalizing its
    Euclidean norm removes feature j from all pairwise rules at once.
    """

    matrix: np.ndarray

    def __post_init__(self):
        B = np.array(self.matrix, dtype=float)
        if B.ndim != 2:
            raise ValueError("directions must form a 2-d matrix")
        B.setflags(write=False)
        object.__setattr__(self, "matrix", B)

    @property
    def p(self):
        return self.matrix.shape[0]

    @property
    def n_directions(self):
        return self.matrix.shape[1]

    def column(self, k):
        """Direction k (0-based)."""
        return self.matrix[:, k]

    def row(self, j):
        """Per-feature coefficient group for feature j (0-based)."""
        return self.matrix[j, :]

    def column_support(self, k):
        """0-based indices of nonzero entries of direction k."""
        return np.flatnonzero(self.matrix[:, k] != 0.0)

    def joint_support(self):
        """0-based indices of rows with any nonzero entry."""
        return np.flatnonzero(np.any(self.matrix != 0.0, axis=1))


def summarize(d: Dataset) -> ClassSummaries:
    """Class counts and means; the summaries derive priors and deltas."""
    K = d.n_classes
    counts = np.zeros(K, dtype=int)
    means = np.zeros((K, d.p))
    for k in range(1, K + 1):
        idx = d.class_indices(k)
        counts[k - 1] = idx.size
        means[k - 1] = d.features[idx].mean(axis=0)
    return ClassSummaries(counts=counts, means=means)


def pooled_scatter(d: Dataset, cs: ClassSummaries) -> PooledScatter:
    """Pooled within-class covariance S = (N-K)^{-1} sum of centered outer products."""
    N, K = d.n_samples, cs.n_classes
    if N <= K:
        raise ValueError("insufficient degrees of freedom")
    S = np.zeros((d.p, d.p))
    for k in range(1, K + 1):
        C = d.features[d.class_indices(k)] - cs.means[k - 1]
        S += C.T @ C
    S /= N - K
    return PooledScatter(matrix=S, dof=N - K)


def scatter_matrix(S) -> np.ndarray:
    """The p x p matrix of a PooledScatter or of a square array."""
    if isinstance(S, PooledScatter):
        return S.matrix
    M = np.asarray(S, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("scatter must be a square matrix")
    return M


def group_norms(ds: DirectionSet) -> np.ndarray:
    """Euclidean norm of each per-feature coefficient group (one per row)."""
    return np.linalg.norm(ds.matrix, axis=1)
