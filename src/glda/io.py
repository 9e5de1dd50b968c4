"""On-disk formats: dataset CSV, plain-text model files, truth sidecars.

Dataset CSV: header ``label,f1,...,fp`` with integer labels 1..K; a test
file may omit the label column (header ``f1,...,fp``). Floats are written
with 17 significant digits so a write/read round trip is bit-exact.

Model files are line-oriented text with named sections (dimensions,
priors, means, directions or variances) - diffable and language-agnostic.

All writers go through a temp-file-plus-rename so partial files never
appear at the target path.
"""

import json
import os
import tempfile

import numpy as np

from .classify import ClassifierModel, NaiveBayesModel
from .model import Dataset, DirectionSet

__all__ = [
    "FormatError",
    "atomic_write_text",
    "fmt",
    "read_dataset_csv",
    "read_feature_csv",
    "write_dataset_csv",
    "write_model_file",
    "read_model_file",
    "write_truth_file",
    "read_truth_file",
]


class FormatError(Exception):
    """A file does not follow one of the documented formats."""


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def _vec(v) -> str:
    return " ".join(fmt(x) for x in v)


def atomic_write_text(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    except FileNotFoundError as exc:
        # name the target the caller gave, not the temp file
        raise FileNotFoundError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_dataset_csv(path, features, labels=None) -> None:
    X = np.atleast_2d(np.asarray(features, dtype=float))
    lines = []
    if labels is None:
        lines.append(",".join(f"f{j + 1}" for j in range(X.shape[1])))
        for row in X:
            lines.append(",".join(fmt(v) for v in row))
    else:
        labels = np.asarray(labels, dtype=int)
        lines.append("label," + ",".join(f"f{j + 1}" for j in range(X.shape[1])))
        for lab, row in zip(labels, X):
            lines.append(str(int(lab)) + "," + ",".join(fmt(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_feature_csv(path):
    """Read a dataset CSV; returns (features, labels-or-None)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise FormatError(f"{path}: empty file")
    header = lines[0].split(",")
    labeled = header[0] == "label"
    feat_names = header[1:] if labeled else header
    if feat_names != [f"f{j + 1}" for j in range(len(feat_names))] or not feat_names:
        raise FormatError(f"{path}: malformed header")
    if len(lines) == 1:
        raise FormatError(f"{path}: no data rows")
    rows = []
    labels = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(header):
            raise FormatError(f"{path}: ragged row")
        try:
            if labeled:
                labels.append(int(parts[0]))
                rows.append([float(v) for v in parts[1:]])
            else:
                rows.append([float(v) for v in parts])
        except ValueError:
            raise FormatError(f"{path}: non-numeric value") from None
    X = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(X)):
        raise FormatError(f"{path}: non-finite value")
    return X, (np.asarray(labels, dtype=int) if labeled else None)


def read_dataset_csv(path) -> Dataset:
    X, labels = read_feature_csv(path)
    if labels is None:
        raise FormatError(f"{path}: missing label column")
    return Dataset(X, labels)


def write_model_file(path, model, estimator: str) -> None:
    """Serialize a fitted classifier (direction-based or naive Bayes)."""
    if isinstance(model, NaiveBayesModel):
        kind, section, rows = "nbayes", "variances", model.variances
    else:
        kind, section, rows = "lda", "directions", model.directions.matrix
    lines = [
        "glda-model 1",
        f"kind {kind} K {model.n_classes} p {model.p} estimator {estimator}",
        "priors",
        _vec(model.priors),
        "means",
        *(_vec(row) for row in model.means),
        section,
        *(_vec(row) for row in rows),
    ]
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_model_file(path):
    """Load a model file; returns (model, estimator-name).

    The model types check their own invariants; any ValueError, from
    parsing or from a model type, becomes a FormatError naming the file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    try:
        return _parse_model([ln for ln in lines if ln.strip()])
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def _parse_model(lines):
    if not lines or lines[0] != "glda-model 1":
        raise ValueError("not a model file")
    head = lines[1].split() if len(lines) > 1 else []
    if len(head) != 8 or head[0] != "kind" or head[2] != "K" or head[4] != "p" or head[6] != "estimator":
        raise ValueError("malformed model header")
    kind, K, p, estimator = head[1], int(head[3]), int(head[5]), head[7]
    pos = 2

    def expect(tag):
        nonlocal pos
        if pos >= len(lines) or lines[pos] != tag:
            raise ValueError(f"expected section '{tag}'")
        pos += 1

    def take(n):
        nonlocal pos
        if pos + n > len(lines):
            raise ValueError("truncated file")
        block = np.asarray([[float(v) for v in lines[pos + i].split()] for i in range(n)])
        pos += n
        return block

    expect("priors")
    priors = take(1)[0]
    expect("means")
    means = take(K)
    if kind == "nbayes":
        expect("variances")
        model = NaiveBayesModel(means=means, variances=take(K), priors=priors)
    elif kind == "lda":
        expect("directions")
        model = ClassifierModel(directions=DirectionSet(take(p)), means=means, priors=priors)
    else:
        raise ValueError(f"unknown model kind '{kind}'")
    if model.p != p:
        raise ValueError("wrong mean dimension")
    return model, estimator


def write_truth_file(path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def read_truth_file(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError:
            raise FormatError(f"{path}: not a truth file") from None
