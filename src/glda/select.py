"""Penalty-level selection and support-recovery scoring.

Cross-validation follows the protocol used throughout the experiments:
stratified folds, the grouped fit on the held-in folds, plug-in prediction
on the held-out fold, and - when several penalty levels tie on mean error -
the largest penalty wins.
"""

from dataclasses import dataclass

import numpy as np

from .classify import build_model, evaluate
from .model import Dataset, DirectionSet, pooled_scatter, summarize
from .solvers import fit_directions, hard_threshold

__all__ = [
    "LambdaGrid",
    "CvResult",
    "FoldSizeError",
    "SupportCounts",
    "SupportMetrics",
    "lambda_grid",
    "lambda_max",
    "kfold_cv",
    "support_metrics",
]


@dataclass(frozen=True)
class LambdaGrid:
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("grid must be a nonempty vector")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid values must be finite")
        if np.any(v <= 0):
            raise ValueError("grid values must be positive")
        if v.size > 1 and not np.all(np.diff(v) < 0):
            raise ValueError("grid must be strictly decreasing")

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class CvResult:
    lambdas: np.ndarray
    mean_errors: np.ndarray
    sd_errors: np.ndarray
    fold_assignments: np.ndarray
    seed: int

    @property
    def chosen_lambda(self) -> float:
        """The largest penalty with the smallest mean error."""
        return float(self.lambdas[self.mean_errors == self.mean_errors.min()].max())


def lambda_grid(lmax: float, n: int, decades: float) -> LambdaGrid:
    """n log-spaced penalties from lmax down to lmax * 10^(-decades)."""
    if not (np.isfinite(lmax) and np.isfinite(decades)):
        raise ValueError("lmax and decades must be finite")
    if lmax <= 0:
        raise ValueError("lmax must be positive")
    if n < 2:
        raise ValueError("need at least two grid points")
    if decades <= 0:
        raise ValueError("decades must be positive")
    exps = np.linspace(np.log10(lmax), np.log10(lmax) - decades, n)
    return LambdaGrid(values=10.0**exps)


def lambda_max(deltas) -> float:
    """Smallest uniform penalty with an all-zero optimum: max_j ||delta^j||."""
    D = np.asarray(deltas, dtype=float)
    if D.ndim == 1:
        D = D[None, :]
    return float(np.linalg.norm(D, axis=0).max())


class FoldSizeError(ValueError):
    """A class has fewer samples than the number of cross-validation folds."""


def _stratified_folds(d: Dataset, folds: int, seed: int) -> np.ndarray:
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    rng = np.random.default_rng(seed)
    assign = np.empty(d.n_samples, dtype=int)
    for k in range(1, d.n_classes + 1):
        idx = d.class_indices(k)
        if idx.size < folds:
            raise FoldSizeError(f"class {k} has fewer samples than fold count")
        perm = rng.permutation(idx)
        assign[perm] = np.arange(perm.size) % folds
    return assign


def kfold_cv(d: Dataset, grid: LambdaGrid, folds: int = 5, seed: int = 0) -> CvResult:
    """Stratified k-fold error of the grouped fit over a penalty grid.

    Deterministic for a given (dataset, grid, folds, seed). Ties on mean
    error are broken toward the largest penalty.
    """
    assign = _stratified_folds(d, folds, seed)
    errors = np.zeros((len(grid), folds))
    for f in range(folds):
        train = Dataset(d.features[assign != f], d.labels[assign != f])
        test = Dataset(d.features[assign == f], d.labels[assign == f])
        cs = summarize(train)
        S = pooled_scatter(train, cs)
        for i, lam in enumerate(grid.values):
            ds, _ = fit_directions("grouped", S, cs.deltas, lam)
            errors[i, f] = evaluate(build_model(cs, ds), test).error_rate
    return CvResult(
        lambdas=grid.values.copy(),
        mean_errors=errors.mean(axis=1),
        sd_errors=errors.std(axis=1, ddof=1),
        fold_assignments=assign,
        seed=seed,
    )


@dataclass(frozen=True)
class SupportCounts:
    tp: int
    fp: int
    fn: int

    @property
    def exact(self) -> bool:
        return self.fp == 0 and self.fn == 0


@dataclass(frozen=True)
class SupportMetrics:
    per_direction: tuple
    joint: SupportCounts


def _counts(est: set, true: set) -> SupportCounts:
    return SupportCounts(
        tp=len(est & true),
        fp=len(est - true),
        fn=len(true - est),
    )


def support_metrics(estimated: DirectionSet, truth: DirectionSet, zeta: float = 0.0) -> SupportMetrics:
    """Support recovery counts after hard-thresholding the estimate at zeta."""
    if estimated.matrix.shape != truth.matrix.shape:
        raise ValueError("direction sets must have matching shapes")
    thr = hard_threshold(estimated, zeta)
    per = []
    for k in range(truth.n_directions):
        per.append(_counts(set(thr.column_support(k)), set(truth.column_support(k))))
    joint = _counts(set(thr.joint_support()), set(truth.joint_support()))
    return SupportMetrics(per_direction=tuple(per), joint=joint)
