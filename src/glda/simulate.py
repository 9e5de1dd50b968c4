"""Synthetic Gaussian discriminant designs and theory-side diagnostics.

Two stock designs are provided. Both use p = 200 features, three classes
of 20 samples each, and class means constructed from the stored true
directions via mu_{k+1} = mu_1 - Sigma b_k, so that the true directions
equal Sigma^{-1}(mu_1 - mu_{k+1}) exactly.

* design 1: near-identity covariance with a handful of off-diagonal
  entries; both directions share the support {1, 2, 3} (1-based).
* design 2: geometric 1/3^|i-j| correlation inside the first p/2 features,
  identity outside; the direction supports differ and their union is
  {1, 2, 3, 4}.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .model import Dataset, DirectionSet, PooledScatter

__all__ = [
    "SimulationSpec",
    "CovarianceSummary",
    "sim1_spec",
    "sim2_spec",
    "sample",
    "covariance_summary",
    "event_d_check",
    "cone_condition_check",
    "delta_quadratic",
    "bayes_error_binary",
    "spec_from_directions",
]


@dataclass(frozen=True)
class SimulationSpec:
    """Gaussian classes sharing Sigma, with means mu_1 = 0 and mu_{k+1} = -Sigma b_k.

    Construction factors Sigma once, as the caller gave it, and keeps the
    read-only lower Cholesky factor in ``sigma_factor`` (Sigma = L L'),
    which ``sample`` draws with. Only then is the frozen copy of Sigma
    taken, so the copy and numpy's Cholesky work buffer are never alive
    together.
    """

    sigma: np.ndarray
    true_directions: DirectionSet
    n_per_class: np.ndarray
    seed: int
    sigma_factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        given = np.asarray(self.sigma, dtype=float)
        if not np.array_equal(given, given.T):
            raise ValueError("Sigma must be symmetric")
        try:
            L = np.linalg.cholesky(given)
        except np.linalg.LinAlgError:
            raise ValueError("Sigma not positive definite") from None
        sigma = np.array(given)
        n = np.array(self.n_per_class, dtype=int)
        for arr in (L, sigma, n):
            arr.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "sigma_factor", L)
        object.__setattr__(self, "n_per_class", n)
        if np.any(n < 1):
            raise ValueError("every class needs at least one sample")
        if n.size != self.true_directions.n_directions + 1:
            raise ValueError("need one sample count per class and K-1 directions")
        if self.true_directions.p != sigma.shape[0]:
            raise ValueError("directions and Sigma dimensions differ")

    @property
    def p(self):
        return self.sigma.shape[0]

    @property
    def n_classes(self):
        return self.n_per_class.size

    @cached_property
    def mus(self):
        """Class means as rows, one per class."""
        mu1 = np.zeros(self.p)
        mus = np.vstack([mu1, mu1 - (self.sigma @ self.true_directions.matrix).T])
        mus.setflags(write=False)
        return mus

    def deltas(self):
        """Population base-class contrasts Sigma @ b_k, stacked as rows."""
        return self.mus[0] - self.mus[1:]


@dataclass(frozen=True)
class CovarianceSummary:
    plus_min: float
    plus_max: float
    minus_max: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.plus_min, self.plus_max, self.minus_max)):
            raise ValueError("covariance summary must be finite")
        if self.plus_min > self.plus_max or self.minus_max < 0:
            raise ValueError("inconsistent covariance summary")


def spec_from_directions(sigma, directions, n_per_class, seed) -> SimulationSpec:
    """Build a spec whose means realize the given true directions, with mu_1 = 0."""
    if not isinstance(directions, DirectionSet):
        directions = DirectionSet(directions)
    return SimulationSpec(sigma=sigma, true_directions=directions, n_per_class=n_per_class, seed=seed)


def sim1_spec(seed: int) -> SimulationSpec:
    p = 200
    sigma = np.eye(p)
    sigma[3, 0:3] = (1 / 4, 1 / 3, 1 / 4)
    sigma[4, 0:3] = (1 / 5, -1 / 4, 1 / 5)
    sigma = sigma + np.triu(sigma.T, 1)  # mirror the assigned lower triangle
    b1 = np.zeros(p)
    b1[0:3] = (-2.0, 3.0, 1.0)
    b2 = np.zeros(p)
    b2[0:3] = (1.0, -2.0, -1.2)
    return spec_from_directions(sigma, np.column_stack([b1, b2]), (20, 20, 20), seed)


def sim2_spec(seed: int) -> SimulationSpec:
    p = 200
    half = p // 2
    idx = np.arange(half)
    block = (1.0 / 3.0) ** np.abs(idx[:, None] - idx[None, :])
    sigma = np.eye(p)
    sigma[:half, :half] = block
    b1 = np.zeros(p)
    b1[0:4] = (-1.5, 1.0, 0.0, 2.0)
    b2 = np.zeros(p)
    b2[0:3] = (1.0, -1.8, -2.0)
    return spec_from_directions(sigma, np.column_stack([b1, b2]), (20, 20, 20), seed)


def sample(spec: SimulationSpec) -> Dataset:
    """Draw the per-class Gaussian samples of the design, seeded.

    Class k's rows are mus[k] + Z L' with Z standard normal and L the
    spec's ``sigma_factor``, drawn class by class in label order. They are
    written straight into one N x p array, which is frozen and kept by the
    returned Dataset, so the features are never copied.
    """
    counts = spec.n_per_class
    rng = np.random.default_rng(spec.seed)
    X = np.empty((int(counts.sum()), spec.p))
    start = 0
    for k, n_k in enumerate(counts):
        rows = X[start : start + n_k]
        np.matmul(rng.standard_normal((n_k, spec.p)), spec.sigma_factor.T, out=rows)
        rows += spec.mus[k]
        start += n_k
    X.setflags(write=False)
    return Dataset(X, np.repeat(np.arange(1, spec.n_classes + 1), counts))


def covariance_summary(sigma) -> CovarianceSummary:
    A = np.asarray(sigma, dtype=float)
    d = np.diag(A)
    off = float(np.abs(A - np.diag(d)).max())
    return CovarianceSummary(plus_min=float(d.min()), plus_max=float(d.max()), minus_max=off)


def event_d_check(S, sigma) -> bool:
    """Check S-_max <= 2 Sigma-_max and S+_min >= Sigma+_min / 2.

    `S` may be a PooledScatter or a square array, `sigma` the population
    matrix or its CovarianceSummary. The off-diagonal test is read
    literally when Sigma-_max = 0: any off-diagonal noise in S fails it.
    """
    s = covariance_summary(S.matrix if isinstance(S, PooledScatter) else S)
    pop = sigma if isinstance(sigma, CovarianceSummary) else covariance_summary(sigma)
    return s.minus_max <= 2.0 * pop.minus_max and s.plus_min >= 0.5 * pop.plus_min


def cone_condition_check(estimated: DirectionSet, truth: DirectionSet, T) -> bool:
    """sum_{j not in T} ||est row j|| <= 3 sum_{j in T} ||est row j - true row j||."""
    if estimated.matrix.shape != truth.matrix.shape:
        raise ValueError("direction sets must have matching shapes")
    mask = np.zeros(estimated.p, dtype=bool)
    mask[np.asarray(list(T), dtype=int)] = True
    off = float(np.linalg.norm(estimated.matrix[~mask], axis=1).sum())
    on = float(np.linalg.norm(estimated.matrix[mask] - truth.matrix[mask], axis=1).sum())
    return off <= 3.0 * on


def delta_quadratic(sigma, delta) -> float:
    """Mahalanobis gap <Sigma^{-1} delta, delta>, computed via a linear solve."""
    d = np.asarray(delta, dtype=float).reshape(-1)
    v = np.linalg.solve(np.asarray(sigma, dtype=float), d)
    return float(v @ d)


def bayes_error_binary(delta_quad: float) -> float:
    """Bayes error of the equal-prior binary Gaussian problem with gap Delta."""
    if not 0 <= delta_quad < math.inf:
        raise ValueError("Delta must be finite and nonnegative")
    z = -math.sqrt(delta_quad) / 2.0
    return 0.5 * math.erfc(-z / math.sqrt(2.0))
