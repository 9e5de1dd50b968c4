"""On-disk formats: dataset CSV, plain-text model files, truth sidecars.

Dataset CSV: header ``label,f1,...,fp`` with whole-number labels 1..K; a
test file may omit the label column (header ``f1,...,fp``). numpy writes
floats with 17 significant digits, so a write/read round trip is bit-exact.

Model files are line-oriented text with named sections (dimensions,
priors, means, directions or variances) - diffable and language-agnostic.

All writers stream into a temp file that is renamed onto the target, so
partial files never appear at the target path.
"""

import contextlib
import itertools
import json
import os

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


@contextlib.contextmanager
def _atomic_open(path):
    """A text handle on a temp file beside ``path``, renamed onto it on success."""
    d = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(d, f".tmp-{os.urandom(4).hex()}")
        try:
            # mode 0o666 lets the umask set the permissions, as open() does
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
        except FileNotFoundError as exc:
            # name the target the caller gave, not the temp file
            raise FileNotFoundError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def write_dataset_csv(path, features, labels=None) -> None:
    X = np.atleast_2d(np.asarray(features, dtype=float))
    names, formats = [f"f{j + 1}" for j in range(X.shape[1])], ["%.17g"] * X.shape[1]
    if labels is not None:
        X = np.column_stack((np.asarray(labels, dtype=int), X))
        names, formats = ["label", *names], ["%d", *formats]
    with _atomic_open(path) as fh:
        np.savetxt(fh, X, fmt=formats, delimiter=",", header=",".join(names), comments="")


def read_feature_csv(path):
    """Read a dataset CSV; returns (features, labels-or-None)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = (ln for ln in fh if ln.strip())  # skip blank lines anywhere
        first = next(lines, None)
        if first is None:
            raise FormatError(f"{path}: empty file")
        header = first.strip().split(",")
        labeled = header[0] == "label"
        feat_names = header[1:] if labeled else header
        if feat_names != [f"f{j + 1}" for j in range(len(feat_names))] or not feat_names:
            raise FormatError(f"{path}: malformed header")
        row = next(lines, None)
        if row is None:
            raise FormatError(f"{path}: no data rows")

        def rows():
            for ln in itertools.chain((row,), lines):
                if ln.count(",") != len(header) - 1:
                    raise FormatError(f"{path}: ragged row")
                yield ln

        try:
            table = np.loadtxt(rows(), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            raise FormatError(f"{path}: non-numeric value") from None
    labels = None
    if labeled:
        labels, table = table[:, 0], table[:, 1:]
        # a label is a whole number that fits an int (nan and inf fail both tests)
        if not np.all((np.abs(labels) < 2.0**63) & (labels == np.floor(labels))):
            raise FormatError(f"{path}: non-numeric value")
        labels = labels.astype(int)
    if not np.all(np.isfinite(table)):
        raise FormatError(f"{path}: non-finite value")
    return table, labels


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
    with _atomic_open(path) as fh:
        fh.write(f"glda-model 1\nkind {kind} K {model.n_classes} p {model.p} estimator {estimator}\n")
        for tag, block in (("priors", model.priors[None, :]), ("means", model.means), (section, rows)):
            fh.write(tag + "\n")
            np.savetxt(fh, block, fmt="%.17g")


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
    if K < 1 or p < 1:
        raise ValueError("malformed model header")
    pos, last = 2, None

    def section(tag, n):
        nonlocal pos, last
        if pos >= len(lines) or lines[pos] != tag:
            raise ValueError(f"expected section '{tag}'")
        if pos + 1 + n > len(lines):
            raise ValueError("truncated file")
        pos, last = pos + 1 + n, tag
        return np.loadtxt(lines[pos - n:pos], comments=None, ndmin=2)

    priors = section("priors", 1)[0]
    means = section("means", K)
    if kind == "nbayes":
        model = NaiveBayesModel(means=means, variances=section("variances", K), priors=priors)
    elif kind == "lda":
        directions = DirectionSet(section("directions", p))
        model = ClassifierModel(directions=directions, means=means, priors=priors)
    else:
        raise ValueError(f"unknown model kind '{kind}'")
    if pos < len(lines):
        raise ValueError(f"unexpected line after section '{last}'")
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
