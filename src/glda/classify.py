"""Plug-in multi-class LDA prediction, plus the two reference baselines.

Prediction assigns per-class scores anchored at the base class: h_1 = 0 and,
for each contrast direction b_k,

    h_{k+1} = -(x - (m_1 + m_{k+1})/2)' b_k - log(pi_1 / pi_{k+1}).

The argmax over scores reproduces the pairwise linear rules; ties go to the
larger class index. The naive-Bayes baseline scores each class by its
Gaussian log-likelihood; ``scores``, ``predict``, ``predict_batch`` and
``evaluate`` accept either model kind.
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import ClassSummaries, Dataset, DirectionSet, _frozen, as_scatter, summarize

__all__ = [
    "ClassifierModel",
    "PredictionReport",
    "NaiveBayesModel",
    "build_model",
    "predict",
    "predict_batch",
    "scores",
    "evaluate",
    "naive_bayes_fit",
    "pseudoinverse_lda_fit",
]

_VAR_FLOOR = 1e-12


def _argmax_last(score_rows):
    """Row-wise argmax breaking ties toward the larger index, as 1-based labels."""
    rev = score_rows[:, ::-1]
    k = score_rows.shape[1]
    return k - np.argmax(rev, axis=1)


def _check_model(means, priors, coefficients):
    """What both model kinds require: a means matrix, one prior per class,
    priors summing to 1, and finite means, priors and coefficients (the
    directions or the variances)."""
    if means.ndim != 2:
        raise ValueError("means must form a 2-d matrix")
    if priors.shape != (means.shape[0],):
        raise ValueError("need one prior per class")
    if not all(np.all(np.isfinite(a)) for a in (means, priors, coefficients)):
        raise ValueError("model entries must be finite")
    if abs(priors.sum() - 1.0) > 1e-12:
        raise ValueError("priors must sum to 1")


@dataclass(frozen=True)
class ClassifierModel:
    directions: DirectionSet
    means: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        for name in ("means", "priors"):  # a summary's frozen arrays are kept as they are
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        _check_model(self.means, self.priors, self.directions.matrix)
        if self.directions.n_directions != self.n_classes - 1:
            raise ValueError("need exactly K-1 directions")
        if self.directions.p != self.p:
            raise ValueError("direction and mean dimensions differ")

    @property
    def n_classes(self):
        return self.means.shape[0]

    @property
    def p(self):
        return self.means.shape[1]

    def _scores(self, X):
        B = self.directions.matrix
        mid = (self.means[0] + self.means[1:]) / 2.0  # K' x p
        h = np.zeros((X.shape[0], self.n_classes))
        proj = X @ B - np.sum(mid * B.T, axis=1)
        h[:, 1:] = -proj - np.log(self.priors[0] / self.priors[1:])
        return h


@dataclass(frozen=True)
class PredictionReport:
    labels: np.ndarray
    scores: np.ndarray
    error_rate: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=int))
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=float))
        if self.error_rate is not None and not 0.0 <= self.error_rate <= 1.0:
            raise ValueError("error rate must lie in [0, 1]")


def build_model(cs: ClassSummaries, ds: DirectionSet) -> ClassifierModel:
    """Bundle summaries and fitted directions into a plug-in classifier."""
    return ClassifierModel(directions=ds, means=cs.means, priors=cs.priors)


@dataclass(frozen=True)
class NaiveBayesModel:
    """Gaussian naive Bayes with per-class diagonal covariance."""

    means: np.ndarray
    variances: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        for name in ("means", "variances", "priors"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        _check_model(self.means, self.priors, self.variances)
        if self.variances.shape != self.means.shape:
            raise ValueError("variances must have the shape of the means")
        if np.any(self.variances <= 0):
            raise ValueError("variances must be positive")

    @property
    def n_classes(self):
        return self.means.shape[0]

    @property
    def p(self):
        return self.means.shape[1]

    def _scores(self, X):
        out = np.zeros((X.shape[0], self.n_classes))
        diff = np.empty_like(X)  # one N x p buffer for every class
        for k in range(self.n_classes):
            np.subtract(X, self.means[k], out=diff)
            np.multiply(diff, diff, out=diff)
            np.divide(diff, self.variances[k], out=diff)
            out[:, k] = (
                math.log(self.priors[k])
                - 0.5 * np.sum(np.log(2.0 * np.pi * self.variances[k]))
                - 0.5 * np.sum(diff, axis=1)
            )
        return out


def naive_bayes_fit(d: Dataset) -> NaiveBayesModel:
    """Per-class feature means and (floored) variances plus class priors."""
    cs = summarize(d)
    variances = np.vstack([
        np.maximum(d.features[d.class_indices(k)].var(axis=0), _VAR_FLOOR)
        for k in range(1, cs.n_classes + 1)
    ])
    return NaiveBayesModel(means=cs.means, variances=variances, priors=cs.priors)


def scores(m, X) -> np.ndarray:
    """Per-class scores for each row of X, for either model kind."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != m.p:
        raise ValueError("feature dimension does not match the model")
    return m._scores(X)


def predict(m, x) -> int:
    """Predicted 1-based label for a single feature vector."""
    h = scores(m, np.asarray(x, dtype=float).reshape(1, -1))
    return int(_argmax_last(h)[0])


def predict_batch(m, X) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise ValueError("empty dataset")
    return _argmax_last(scores(m, X))


def evaluate(m, test: Dataset) -> PredictionReport:
    """Predict every test sample and report the misclassification fraction."""
    h = scores(m, test.features)
    labels = _argmax_last(h)
    err = float(np.mean(labels != test.labels))
    return PredictionReport(labels=labels, scores=h, error_rate=err)


def pseudoinverse_lda_fit(S, cs: ClassSummaries) -> DirectionSet:
    """Directions from the Moore-Penrose pseudo-inverse of the pooled scatter.

    S+ = V' diag(1/w) V from the scatter's ``spectrum``, so eigenvalues at
    most NULL_CUT (1e-10) times the largest are treated as zero, the same
    cut that decides S's rank and null space.
    """
    w, V = as_scatter(S).spectrum
    return DirectionSet(V.T @ ((V @ cs.deltas.T) / w[:, None]))
