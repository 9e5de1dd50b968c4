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


# Eigenvalues of a scatter at most this fraction of its largest are
# treated as zero. This one rule decides its rank and null space, the
# pseudo-inverse, and whether an oracle's support block is singular.
NULL_CUT = 1e-10


def _frozen(a, dtype=float):
    """``a`` as a read-only array of ``dtype``, copied unless it already is one.

    An ndarray of ``dtype`` that is read-only, owns its data and is
    C-contiguous is returned as it is. Anything else (a writable array, a
    view, a Fortran-ordered array, a list) is copied and the copy frozen.
    """
    if (
        type(a) is np.ndarray
        and a.dtype == dtype
        and not a.flags.writeable
        and a.flags.owndata
        and a.flags.c_contiguous
    ):
        return a
    return _read_only(np.array(a, dtype=dtype))


def _read_only(a):
    """The array ``a`` itself, made read-only: for one just computed that nothing else holds."""
    a.setflags(write=False)
    return a


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
        return _read_only(self.counts / self.counts.sum())

    @cached_property
    def deltas(self):
        return _read_only(self.means[0] - self.means[1:])

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
    sqrt(N - K), so S has rank at most N - K. The p x p matrix is formed
    only where it is read.
    """

    factor: np.ndarray

    def __post_init__(self):
        F = _frozen(self.factor)
        if F.ndim != 2 or F.size == 0:
            raise ValueError("scatter factor must be a non-empty 2-d array")
        if not np.all(np.isfinite(F)):
            raise ValueError("scatter factor must be finite")
        object.__setattr__(self, "factor", F)

    @property
    def p(self):
        return self.factor.shape[1]

    @cached_property
    def matrix(self):
        return _read_only(self.factor.T @ self.factor)

    @cached_property
    def spectrum(self):
        """(w, V): S's eigenvalues above NULL_CUT times the largest, and their eigenvectors.

        The r x p matrix V has orthonormal rows spanning the range of S. Both
        come from one ``eigh`` of the Gram matrix of F's shorter side, which
        shares S's nonzero eigenvalues: F F' = U diag(w) U' and
        V = diag(w)^-1/2 U'F when N <= p; S itself, with V' its kept
        eigenvectors, when N > p.
        """
        F = self.factor
        short = F.shape[0] <= F.shape[1]
        w, U = np.linalg.eigh(F @ F.T if short else F.T @ F)
        keep = w > NULL_CUT * max(w[-1], 0.0)
        w, U = w[keep], U[:, keep]
        V = (U / np.sqrt(w)).T @ F if short else U.T.copy()
        return _read_only(w), _read_only(V)

    @property
    def top_eigenvalue(self):
        """Largest eigenvalue of S."""
        return float(self.spectrum[0].max(initial=0.0))

    @property
    def rank(self):
        """Numerical rank of S: its eigenvalues above the numerical-zero cut.

        At most N - K for a ``pooled_scatter``.
        """
        return self.spectrum[0].size

    @property
    def has_null_space(self):
        """Whether S has an eigenvalue at or below the numerical-zero cut."""
        return self.rank < self.p

    def null_project(self, D):
        """Orthogonal projection of the p x m matrix D onto the null space of S.

        Eigenvalues of S at most NULL_CUT times the largest count as zero.
        This is D - V'(V D) with V from ``spectrum``, at O(r p m). At full
        rank the projection is exactly zero.
        """
        if not self.has_null_space:
            return np.zeros(np.shape(D))
        V = self.spectrum[1]
        return D - V.T @ (V @ D)

    def dot(self, X):
        """S @ X through the factor."""
        return self.factor.T @ (self.factor @ X)


@dataclass(frozen=True)
class DirectionSet:
    """p x K' matrix of discriminant directions, one column per contrast.

    Row j stacks the j-th coefficient of every direction; penalizing its
    Euclidean norm removes feature j from all pairwise rules at once.
    The matrix is a copy in which every -0.0 is +0.0, so a zero
    coefficient reads and prints the same whatever its sign was.
    """

    matrix: np.ndarray

    def __post_init__(self):
        B = np.array(self.matrix, dtype=float)
        B += 0.0  # -0.0 + 0.0 is +0.0; every other value is kept bit for bit
        if B.ndim != 2:
            raise ValueError("directions must form a 2-d matrix")
        object.__setattr__(self, "matrix", _read_only(B))

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
    return PooledScatter(factor=F)


def as_scatter(S) -> PooledScatter:
    """A PooledScatter as it is, or a square PSD array factored once with eigh.

    A square array must be finite and is symmetrised first.
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
    return PooledScatter(factor=(V * np.sqrt(w)).T)


def group_norms(ds: DirectionSet) -> np.ndarray:
    """Euclidean norm of each per-feature coefficient group (one per row)."""
    return np.linalg.norm(ds.matrix, axis=1)
