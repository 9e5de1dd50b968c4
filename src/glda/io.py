"""On-disk formats: dataset CSV, plain-text model files, truth sidecars.

Dataset CSV: header ``label,f1,...,fp`` with whole-number labels 1..K; a
test file may omit the label column (header ``f1,...,fp``). Floats are
written with 17 significant digits (``%.17g``, as ``np.savetxt`` does), so a
write/read round trip is bit-exact. One row formatter writes every table
(dataset CSVs, model files, and the ``cv`` and ``path`` tables): a numpy
kernel writes the values that ``%.17g`` prints in fixed notation, zeros and
1e-4 <= |x| < 1e17, where the 17-digit mantissa is an exact product of x
and a power of ten, and Python's ``%`` formats every other value (those in
exponent notation, and non-finite ones) and every label. With two usable
CPUs or more, a large table is formatted in blocks, alternately by the
writing thread and a helper thread, and the writing thread writes each
block in order. Threads share the GIL, so there are never more than two
writers, and nothing depends on ``fork``. An error or interrupt in the
writing thread waits for the helper to finish its one block, then
propagates; an error in the helper is raised in the writing thread. The
bytes are the same, and no file or thread is left behind.

Model files are line-oriented text with named sections (dimensions,
priors, means, directions or variances) - diffable and language-agnostic.

Every file is written binary: each writer streams bytes into a temp file
that is renamed onto the target, so partial files never appear at the
target path, and no write depends on the locale's encoding.

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
import stat
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
    "write_table",
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
def _atomic_open(path, perm=0o666):
    """A binary handle on a temp file beside ``path``, renamed onto it on success.

    The file gets the mode bits ``perm`` less the umask, as open() does. A
    system error from making, writing or renaming the temp file names
    ``path``, not the temp file.
    """
    d = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(d, f".tmp-{os.urandom(4).hex()}")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, perm)
            break
        except FileExistsError:
            continue
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        # an OSError without an errno was raised by the caller, not the system
        if isinstance(exc, OSError) and exc.errno is not None:
            raise OSError(exc.errno, exc.strerror, path) from None
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8."""
    with _atomic_open(path) as fh:
        fh.write(text.encode())


def write_dataset_csv(path, features, labels=None) -> None:
    """Write ``features`` (and ``labels``, when given) as a dataset CSV.

    Raises ValueError, before any file is made, on features that are not a
    non-empty table of finite values, labels that are not whole numbers, or
    a label count unlike the row count.
    """
    X = np.atleast_2d(np.asarray(features, dtype=float))  # a 1-d input is one row
    if X.ndim != 2:
        raise ValueError("features must be a 2-d array")
    if 0 in X.shape:
        raise ValueError("need at least one sample and one feature")
    if not np.all(np.isfinite(X)):
        raise ValueError("features must be finite")
    names = [f"f{j + 1}" for j in range(X.shape[1])]
    if labels is not None:
        labels = _whole_labels(labels, X.shape[0])
        names.insert(0, "label")
    with _atomic_open(path) as fh:
        fh.write(",".join(names).encode() + b"\n")
        _format_rows(fh, X, labels)


def _whole_labels(labels, n):
    """``labels`` as an integer array of length ``n``, or ValueError."""
    y = np.ravel(labels)
    if y.size != n:
        raise ValueError(f"need one label per row: {y.size} labels for {n} rows")
    if y.dtype.kind not in "iu":
        y = y.astype(float)
        if not _whole(y):
            raise ValueError("labels must be whole numbers")
        y = y.astype(np.int64)
    return y


def _whole(labels):
    """Whether every float label is a whole number that fits an int (nan and inf are not)."""
    return np.all((np.abs(labels) < 2.0**63) & (labels == np.floor(labels)))


# --- the row formatter ------------------------------------------------------
#
# Every table glda writes (dataset CSVs, model files, the `cv` and `path`
# tables) goes through _format_rows, which writes exactly what printf-style
# "%.17g" gives, from a numpy kernel. Each value gets a slot of _SLOT bytes
# and its text is the run start..end-1 of the slot, followed by its
# separator at end. The kernel lays out only the values that "%.17g" prints
# in fixed notation, a zero or 1e-4 <= |x| < 1e17, around a decimal point at
# column _POINT: the digits of the integer part end just before the point,
# and the 17-digit fraction field starts just after it. Every other value
# (those "%.17g" prints in exponent notation, and non-finite ones), and
# every label, is formatted by Python's "%" and copied into its slot.

_SLOT = 44
_POINT = 18

# Values formatted per kernel call: small enough that the slots and
# temporaries (about 0.25 kB a value) stay in a core's L2 cache, and large
# enough that a 2000 x 2 direction matrix or 3 x 2000 class means run as
# one call.
_BLOCK_VALUES = 6144

# A table written on two threads is cut into blocks of this many values,
# so that each numpy call runs long enough to release the GIL to the other
# thread: perfbench's wide-io set-up (write_wide) took 1.42 s per process
# at this size against 1.67 s at _BLOCK_VALUES (medians of 10 alternated
# processes, 2 cores, one BLAS thread). A block holds about 8 MB of
# temporaries, so tables on one thread keep _BLOCK_VALUES.
_SPLIT_BLOCK_VALUES = 32768

# The kernel formats a value in about 0.175 us, against about 0.45 us for
# "%" (measured on 600 x 2000 tables of normal data, 2 cores). A table of
# at least twice this many values is formatted on two threads, so each
# gets at least about 35 ms of formatting, where starting and joining the
# helper thread costs about 0.2 ms. Threads share the GIL, so there is one
# helper whatever the CPU count.
_WRITER_MIN_VALUES = 200_000


def _veltkamp(a):
    """(hi, lo) with hi + lo == a exactly and each half 26 bits or fewer."""
    c = 134217729.0 * a  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


_POW10 = np.array([float(10**k) for k in range(21)])  # each 10**k, k <= 20, is exact
_POW10_HI, _POW10_LO = _veltkamp(_POW10)
_POW10_INT = np.array([10**k for k in range(18)], dtype=np.int64)
_n = np.arange(10000)
_PAIRS = ((48 + _n[:100] // 10) | (48 + _n[:100] % 10) << 8).astype("<u2")  # "00".."99"
_QUADS = (  # "0000".."9999"
    (48 + _n // 1000) | (48 + _n // 100 % 10) << 8 | (48 + _n // 10 % 10) << 16 | (48 + _n % 10) << 24
).astype("<u4")
# the trailing zeros of each four-digit group; 18 marks a zero group, as
# _TRAILING_LEAD marks a zero fraction field
_TRAILING = np.where(_n == 0, 18, sum((_n % 10**j == 0).view(np.int8) for j in (1, 2, 3))).astype(np.int8)
_TRAILING_LEAD = np.array([18] + [16] * 9, dtype=np.int8)
_n = np.arange(_SLOT)
_RUNS = (_n >= _n[:, None, None]) & (_n <= _n[None, :, None])  # _RUNS[start, end]: columns start..end
del _n


def _scaled(a, e):
    """a * 10**(16 - e) as an exact pair (p, err) with p = fl(product) (Dekker 1971)."""
    k = 16 - e
    b, b_hi, b_lo = _POW10[k], _POW10_HI[k], _POW10_LO[k]
    p = a * b
    a_hi, a_lo = _veltkamp(a)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _put_text(buf, start, end, idx, texts):
    """Copy ``texts`` (bytes of at most 24 characters) into the slots ``idx``."""
    buf[idx, :24] = np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24)
    start[idx] = 0
    end[idx] = [len(t) for t in texts]


def _slots(x):
    """The %.17g text of each value of the 1-d float array ``x``: (buf, start, end).

    Value i's text is ``buf[i, start[i]:end[i]]``; ``buf[i, end[i]]`` is left
    for its separator.
    """
    n = x.size
    buf = np.empty((n, _SLOT), np.uint8)
    b2, b4 = buf.view("<u2"), buf.view("<u4")
    b4[:, 3:5] = np.frombuffer(b"000000.0", "<u4")  # columns 12-19: zeros for 0.000ddd, the point
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)  # fixed notation; the double nearest 1e-4 lies above it
    zero = a == 0
    a = np.where(fast, a, 1.0)  # keeps the arithmetic below quiet on the other values
    # E, the decimal exponent (-4..16 here): the 17-digit mantissa is
    # a * 10**(16 - E), in [1e16, 1e17). E is judged on the exact product,
    # since log10 can be one off near a power of ten (never two).
    e = np.floor(np.log10(a)).astype(np.intp)
    np.clip(e, -4, 16, out=e)
    p, err = _scaled(a, e)
    below = (p < 1e16) | ((p == 1e16) & (err < 0))
    above = (p > 1e17) | ((p == 1e17) & (err >= 0))
    redo = np.flatnonzero(below | above)
    if redo.size:
        e[redo] = e[redo] - below[redo] + above[redo]
        p[redo], err[redo] = _scaled(a[redo], e[redo])
    # p >= 2**53 is an even integer, so rounding err half-to-even rounds the
    # exact product half-to-even. No rounding reaches a power of ten (the
    # largest double below each lies more than 5e-18 of it away), so the
    # printed value keeps E, and %.17g's notation switch at E = -4 is 1e-4's.
    D = p.astype(np.int64) + np.rint(err).astype(np.int64)
    D[zero], e[zero] = 0, 0
    # layout: Q is the number of integer digits less one (-1 for 0.ddd). I holds
    # the integer digits, G the fraction's, left-aligned in a 17-digit field.
    q = np.maximum(e, -1)
    div = _POW10_INT[16 - q]
    I = D // div
    G = (D - I * div) * _POW10_INT[q + 1]
    trailing = _TRAILING_LEAD[G // 10**16]
    for k, col in enumerate(range(8, 4, -1)):  # G's four-digit groups, from the right, in columns 20-35
        r = G % 10000
        b4[:, col] = _QUADS[r]
        np.minimum(trailing, _TRAILING[r] + 4 * k, out=trailing)
        G //= 10000
    buf[:, _POINT + 1] = G + 48  # G's leading digit
    for col in range(_POINT // 2 - 1, _POINT // 2 - 1 - (int(q.max(initial=-1)) + 2) // 2, -1):
        b2[:, col] = _PAIRS[I % 100]  # I's digit pairs, from the right
        I //= 100
    start = _POINT - 1 - np.maximum(q, 0)
    end = _POINT + 18 - trailing.astype(np.intp)  # the fraction less its trailing zeros; no point if none is left
    tiny = np.flatnonzero(e < -1)  # 0.0ddd .. 0.000ddd: the point moves left
    if tiny.size:
        buf[tiny, _POINT] = 48
        buf[tiny, _POINT + 1 + e[tiny]] = 46
        start[tiny] = _POINT + e[tiny]
    buf.reshape(-1)[np.arange(-1, n * _SLOT - 1, _SLOT) + start] = ord("-")  # outside the run unless negative
    start -= np.signbit(x)
    slow = np.flatnonzero(~(fast | zero))
    if slow.size:
        _put_text(buf, start, end, slow, [b"%.17g" % v for v in x[slow].tolist()])
    return buf, start, end


def _rows_text(X, sep, labels=None):
    """The text of the rows of ``X``, as uint8: %.17g values, ``sep`` between them, a newline after each row.

    With ``labels``, each row starts with its label (%d) and ``sep``.
    """
    rows, cols = X.shape
    if labels is not None:
        X = np.concatenate((np.zeros((rows, 1)), X), axis=1)  # a slot for each label
        cols += 1
    buf, start, end = _slots(np.ravel(X))
    if labels is not None:
        _put_text(buf, start, end, np.arange(0, rows * cols, cols), [b"%d" % v for v in labels.tolist()])
    seps = np.full((rows, cols), ord(sep), np.uint8)
    seps[:, -1] = ord("\n")
    buf.reshape(-1)[np.arange(0, buf.size, _SLOT) + end] = seps.reshape(-1)
    return buf[_RUNS[start, end]]


def _format_rows(fh, X, labels=None, sep=","):
    """Write the rows of ``X`` to the binary handle ``fh`` (see _rows_text), on two threads if it pays.

    A helper thread's error is raised here, and the helper is joined before
    this returns or raises.
    """
    split = X.size >= 2 * _WRITER_MIN_VALUES and (  # the size first: small tables make no CPU probe
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1) >= 2
    step = max(1, (_SPLIT_BLOCK_VALUES if split else _BLOCK_VALUES) // (X.shape[1] + (labels is not None)))
    starts = range(0, len(X), step)

    def text(start):
        return _rows_text(X[start:start + step], sep, None if labels is None else labels[start:start + step])

    if not split:
        for start in starts:
            fh.write(text(start))
        return
    # imported here, not at the top: it loads logging, 6-9 ms and up to
    # 0.25 MB that a process writing only small tables need not pay
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1) as helper:  # leaving joins the helper, which holds one block at most
        for start in starts[::2]:  # the helper formats each block after this thread's
            later = helper.submit(text, start + step)  # empty after the last block when their count is odd
            fh.write(text(start))
            fh.write(later.result())


def write_table(path, header, table, footer="") -> None:
    """Write ``header``, the rows of the 2-d ``table`` as CSV lines of %.17g values, then ``footer``."""
    with _atomic_open(path) as fh:
        fh.write(header.encode())
        _format_rows(fh, np.asarray(table, dtype=float))
        fh.write(footer.encode())


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
        if not _whole(labels):
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
        with _atomic_open(_sidecar_path(path), perm=before.st_mode & 0o666) as fh:
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
        fh.write(f"glda-model 1\nkind {kind} K {model.n_classes} p {model.p} estimator {estimator}\n".encode())
        for tag, block in (("priors", model.priors[None, :]), ("means", model.means), (section, rows)):
            fh.write(tag.encode() + b"\n")
            _format_rows(fh, block, sep=" ")


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
