"""On-disk formats: dataset CSV, plain-text model files, truth sidecars.

Dataset CSV: header ``label,f1,...,fp`` with whole-number labels 1..K; a
test file may omit the label column (header ``f1,...,fp``). Floats are
written with 17 significant digits (``%.17g``, as ``np.savetxt`` does), so a
write/read round trip is bit-exact. A large table is formatted by up to one
process per usable CPU (POSIX fork): each child formats a contiguous range
of rows into an unlinked temp file, appended in order by the writing
process. The bytes are the same, and no file or process is left behind.

Model files are line-oriented text with named sections (dimensions,
priors, means, directions or variances) - diffable and language-agnostic.

All writers stream into a temp file that is renamed onto the target, so
partial files never appear at the target path.

Reading a dataset CSV keeps its parse in a sidecar ``.<name>.glda-cache``
beside it, keyed by the SHA-256 of the CSV's bytes: the tag line
``glda-csv-cache 1``, the 32-byte digest, ``L`` or ``U`` for a labelled
or unlabelled file, then the parsed table as ``.npy``. A later read of the
same bytes loads the table and skips the parse.
"""

import contextlib
import hashlib
import itertools
import json
import os
import shutil
import signal
import stat
import tempfile
import threading
from io import TextIOWrapper

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
def _atomic_open(path, binary=False, perm=0o666):
    """A text (or binary) handle on a temp file beside ``path``, renamed onto it on success.

    The file gets the mode bits ``perm`` less the umask, as open() does.
    """
    d = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(d, f".tmp-{os.urandom(4).hex()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, perm)
            break
        except FileExistsError:
            continue
        except FileNotFoundError as exc:
            # name the target the caller gave, not the temp file
            raise FileNotFoundError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") if binary else os.fdopen(fd, "w", newline="\n") as fh:
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
    """Write ``features`` (and ``labels``, when given) as a dataset CSV.

    Raises ValueError, before any file is made, on non-finite features,
    labels that are not whole numbers, or a label count unlike the row count.
    """
    X = np.atleast_2d(np.asarray(features, dtype=float))
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    names, formats = [f"f{j + 1}" for j in range(X.shape[1])], ["%.17g"] * X.shape[1]
    if labels is not None:
        labels = _whole_labels(labels, X.shape[0])
        names, formats = ["label", *names], ["%d", *formats]
    with _atomic_open(path) as fh:
        fh.write(",".join(names) + "\n")
        _write_table(fh, ",".join(formats) + "\n", X, labels, os.path.dirname(os.path.abspath(path)))


def _whole_labels(labels, n):
    """``labels`` as an integer array of length ``n``, or ValueError."""
    y = np.ravel(labels)
    if y.size != n:
        raise ValueError(f"need one label per row: {y.size} labels for {n} rows")
    if y.dtype.kind not in "iu":
        f = y.astype(float)
        # a whole number that fits an int (nan and inf fail both tests), as the reader asks
        if not np.all((np.abs(f) < 2.0**63) & (f == np.floor(f))):
            raise ValueError("labels must be whole numbers")
        y = f.astype(np.int64)
    return y


# Rows converted to Python numbers at a time: few enough that the converted
# block stays small beside the table, enough to amortise the slicing.
_BLOCK_ROWS = 16

# Formatting one value (its %.17g conversion, about 0.6 us) sets the cost
# of a large write, so a large table is split across forked writers, one
# per usable CPU. Each writer gets at least this many values, about 30 ms
# of formatting: some ten times what a fork, its temp file and reaping the
# child cost (3.3-3.6 ms, measured with 0-150 MB resident on 2 cores).
_WRITER_MIN_VALUES = 50_000


def _format_rows(fh, fmt, X, labels=None, lo=0, hi=None):
    """Write rows ``lo:hi`` of ``X`` to ``fh``, one ``fmt % row`` write per row.

    With ``labels``, each row's label is its first value.
    """
    hi = len(X) if hi is None else hi
    for start in range(lo, hi, _BLOCK_ROWS):
        rows = X[start:min(start + _BLOCK_ROWS, hi)].tolist()
        if labels is None:
            for row in rows:
                fh.write(fmt % tuple(row))
        else:
            for label, row in zip(labels[start:start + len(rows)].tolist(), rows):
                fh.write(fmt % (label, *row))


def _writer_count(n_rows, n_values):
    """How many processes should format a table: 1 unless forking can pay."""
    # forking a process with other threads running can deadlock the child
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cpus, n_rows, n_values // _WRITER_MIN_VALUES))


def _write_table(fh, fmt, X, labels, tmpdir):
    """Format the rows of ``X`` into the text handle ``fh``, on several processes if it pays.

    The rows are split into contiguous ranges. This process formats the
    first straight into ``fh``; a forked child formats each other range into
    an unlinked temp file in ``tmpdir``, and the parts are appended in
    order. If a fork fails, this process formats the ranges left over. A
    failed child raises OSError; on any error the children still running
    are killed, and every child is reaped before this returns.
    """
    n = X.shape[0]
    writers = _writer_count(n, X.size)
    bounds = [n * w // writers for w in range(writers + 1)]
    parts, pids = [], []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            part = tempfile.TemporaryFile(dir=tmpdir, buffering=0)
            try:
                pids.append(_fork_writer(part, fmt, X, labels, lo, hi))
            except OSError:  # no process to be had: format the rest here
                part.close()
                break
            parts.append(part)
        _format_rows(fh, fmt, X, labels, 0, bounds[1])
        for part in parts:
            status = os.waitpid(pids[0], 0)[1]
            del pids[0]
            if status:
                raise OSError(f"a CSV writer process failed (exit code {os.waitstatus_to_exitcode(status)})")
            fh.flush()
            part.seek(0)
            shutil.copyfileobj(part, fh.buffer, 1 << 20)
        _format_rows(fh, fmt, X, labels, bounds[1 + len(parts)], n)
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        for pid in pids:
            os.waitpid(pid, 0)
        for part in parts:
            part.close()


def _fork_writer(part, fmt, X, labels, lo, hi):
    """Fork a child that formats rows ``lo:hi`` into the file ``part``; returns its pid."""
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        with open(part.fileno(), "w", newline="\n", closefd=False) as out:
            _format_rows(out, fmt, X, labels, lo, hi)
        code = 0
    finally:
        os._exit(code)  # never return into the parent's stack


def read_feature_csv(path):
    """Read a dataset CSV; returns (features, labels-or-None).

    A regular file's parse is loaded from, or kept in, its sidecar (see the
    module docstring). The checks that follow the parse run either way.
    """
    with open(path, "rb") as fh:
        before = os.fstat(fh.fileno())
        digest = cached = None
        if stat.S_ISREG(before.st_mode):  # hashing a pipe would consume it
            h = hashlib.sha256()
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
            digest = h.digest()
            cached = _read_sidecar(_sidecar_path(path), digest)
            fh.seek(0)  # a miss parses the bytes just hashed
        labeled, table = cached or _parse_csv(path, fh)
    X, labels = table, None
    if labeled:
        labels, X = table[:, 0], table[:, 1:]
        # a label is a whole number that fits an int (nan and inf fail both tests)
        if not np.all((np.abs(labels) < 2.0**63) & (labels == np.floor(labels))):
            raise FormatError(f"{path}: non-numeric value")
        labels = labels.astype(int)
    if not np.all(np.isfinite(X)):
        raise FormatError(f"{path}: non-finite value")
    if cached is None and digest is not None:
        _write_sidecar(path, before, digest, labeled, table)
    return X, labels


def _parse_csv(path, fh):
    """(labeled, table) from the text of the binary handle ``fh``, which it closes."""
    with TextIOWrapper(fh, encoding="utf-8") as text:
        lines = (ln for ln in text if ln.strip())  # skip blank lines anywhere
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
            return labeled, np.loadtxt(rows(), delimiter=",", comments=None, ndmin=2)
        except ValueError:
            raise FormatError(f"{path}: non-numeric value") from None


_SIDECAR_TAG = b"glda-csv-cache 1\n"


def _sidecar_path(path):
    head, name = os.path.split(os.fspath(path))
    return os.path.join(head, f".{name}.glda-cache")


def _read_sidecar(path, digest):
    """(labeled, table) kept for the CSV bytes ``digest`` names, or None.

    A missing, unreadable, corrupt, truncated or foreign sidecar is a miss.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.read(len(_SIDECAR_TAG) + len(digest) + 1)
            if head[:-1] != _SIDECAR_TAG + digest or head[-1:] not in (b"L", b"U"):
                return None
            table = np.lib.format.read_array(fh, allow_pickle=False)
    # a corrupt .npy header can declare a shape too large to allocate
    except (OSError, ValueError, MemoryError):
        return None
    labeled = head[-1:] == b"L"
    if table.dtype != np.float64 or table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1 + labeled:
        return None
    return labeled, table


def _write_sidecar(path, before, digest, labeled, table):
    """Keep ``table`` for the CSV bytes ``digest`` names, unless the sidecar cannot be written.

    ``before`` is the CSV's stat from before it was hashed; nothing is kept
    if ``path`` no longer names that file unchanged. The sidecar holds the
    CSV's data, so its mode bits are no wider than the CSV's.
    """
    def key(st):
        return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns

    try:
        if key(os.stat(path)) != key(before):
            return
        with _atomic_open(_sidecar_path(path), binary=True, perm=before.st_mode & 0o666) as fh:
            fh.write(_SIDECAR_TAG + digest + (b"L" if labeled else b"U"))
            np.lib.format.write_array(fh, table, allow_pickle=False)
    except OSError:
        pass  # a read-only directory or a full disk leaves a plain parse


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
            _format_rows(fh, " ".join(["%.17g"] * block.shape[1]) + "\n", block)


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
