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
    "as_scatter",
    "group_norms",
]


# Eigenvalues of the scatter at most this fraction of the largest are
# treated as zero (its null space, and the pseudo-inverse's cut).
NULL_CUT = 1e-10


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
    """Pooled within-class covariance S = F'F, kept as its factor F.

    ``pooled_scatter`` makes F the N x p class-centred data over
    sqrt(N - K), so S has rank at most N - K; ``dof`` is N - K. The p x p
    matrix is formed only where it is read.
    """

    factor: np.ndarray
    dof: int

    def __post_init__(self):
        F = _frozen(self.factor)
        if F.ndim != 2 or F.size == 0:
            raise ValueError("scatter factor must be a non-empty 2-d array")
        if not np.all(np.isfinite(F)):
            raise ValueError("scatter factor must be finite")
        object.__setattr__(self, "factor", F)
        if self.dof < 1:
            raise ValueError("insufficient degrees of freedom")

    @property
    def p(self):
        return self.factor.shape[1]

    @cached_property
    def matrix(self):
        S = self.factor.T @ self.factor
        S.setflags(write=False)
        return S

    @cached_property
    def _gram_eigh(self):
        """eigh of the Gram matrix of F's shorter side (F F' if N <= p, else F'F = S).

        Both share S's nonzero eigenvalues. Returns (w, U, keep), with
        ``keep`` marking the eigenvalues above the numerical-zero cut.
        """
        F = self.factor
        w, U = np.linalg.eigh(F @ F.T if F.shape[0] <= F.shape[1] else F.T @ F)
        return w, U, w > NULL_CUT * max(w[-1], 0.0)

    @property
    def top_eigenvalue(self):
        """Largest eigenvalue of S."""
        return float(self._gram_eigh[0][-1])

    @property
    def rank(self):
        """Numerical rank of S: its eigenvalues above the numerical-zero cut.

        At most ``dof`` for a ``pooled_scatter``.
        """
        return int(np.count_nonzero(self._gram_eigh[2]))

    @property
    def has_null_space(self):
        """Whether S has an eigenvalue at or below the numerical-zero cut."""
        return self.rank < self.p

    def null_project(self, D):
        """Orthogonal projection of the p x m matrix D onto the null space of S.

        Eigenvalues of S at most NULL_CUT times the largest count as zero.
        For N <= p this is D - F'U diag(1/w) U'(F D) over the kept
        eigenpairs, at O(N p m); for N > p it is V0 V0' D with V0 the
        eigenvectors of the cut eigenvalues.
        """
        w, U, keep = self._gram_eigh
        F = self.factor
        if F.shape[0] <= F.shape[1]:
            Uk = U[:, keep]
            return D - F.T @ (Uk @ ((Uk.T @ (F @ D)) / w[keep, None]))
        V0 = U[:, ~keep]
        return V0 @ (V0.T @ D)

    def dot(self, X):
        """S @ X through the factor."""
        return self.factor.T @ (self.factor @ X)


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
    F = (d.features - cs.means[d.labels - 1]) / np.sqrt(N - K)
    return PooledScatter(factor=F, dof=N - K)


def as_scatter(S) -> PooledScatter:
    """A PooledScatter as it is, or a square PSD array factored once with eigh.

    A square array must be finite and is symmetrised first; its dof is
    unknown and set to 1.
    Eigenvalues within NULL_CUT of the largest around zero are set to zero,
    so the factor's null space is the scatter's; a more negative one is
    rejected.
    """
    if isinstance(S, PooledScatter):
        return S
    M = np.asarray(S, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise ValueError("scatter must be a non-empty square matrix")
    if not np.all(np.isfinite(M)):
        raise ValueError("scatter must be finite")
    w, V = np.linalg.eigh((M + M.T) / 2.0)
    if w[0] < -NULL_CUT * w[-1]:
        raise ValueError("scatter must be positive semidefinite")
    w = np.where(w > NULL_CUT * w[-1], w, 0.0)
    return PooledScatter(factor=(V * np.sqrt(w)).T, dof=1)


def group_norms(ds: DirectionSet) -> np.ndarray:
    """Euclidean norm of each per-feature coefficient group (one per row)."""
    return np.linalg.norm(ds.matrix, axis=1)
