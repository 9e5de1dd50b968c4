import os
import re
import stat
import threading
import time
from io import BytesIO, StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glda import io
from glda.classify import ClassifierModel, NaiveBayesModel
from glda.model import DirectionSet


def test_dataset_csv_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(7, 3)) * 10.0 ** rng.integers(-8, 8, size=(7, 3))
    y = rng.integers(1, 4, size=7)
    path = tmp_path / "d.csv"
    io.write_dataset_csv(path, X, y)
    X2, y2 = io.read_feature_csv(path)
    assert np.array_equal(X, X2)
    assert np.array_equal(y, y2)


def test_unlabeled_csv_round_trip(tmp_path):
    X = np.array([[1.5, -2.25], [np.pi, 1e-300]])
    path = tmp_path / "t.csv"
    io.write_dataset_csv(path, X)
    X2, labels = io.read_feature_csv(path)
    assert labels is None
    assert np.array_equal(X, X2)


def test_csv_and_model_file_exact_bytes(tmp_path):
    path = tmp_path / "d.csv"
    X = [[0.1, -0.0], [1e-300, 2.0]]
    io.write_dataset_csv(path, X, [1, 2])
    assert path.read_text() == "label,f1,f2\n1,0.10000000000000001,-0\n2,1e-300,2\n"
    io.write_dataset_csv(path, X)
    assert path.read_text() == "f1,f2\n0.10000000000000001,-0\n1e-300,2\n"
    model = ClassifierModel(directions=DirectionSet([[0.5], [-0.0]]),
                            means=np.array([[0.1, 0.0], [1.0, 2.0]]), priors=np.array([0.25, 0.75]))
    io.write_model_file(path, model, "grouped")
    # features keep -0.0 as given; DirectionSet stores a zero coefficient as +0.0
    assert path.read_text() == (
        "glda-model 1\nkind lda K 2 p 2 estimator grouped\npriors\n0.25 0.75\n"
        "means\n0.10000000000000001 0\n1 2\ndirections\n0.5\n0\n"
    )


def test_csv_blank_lines_crlf_and_whole_float_labels(tmp_path):
    clean, odd = tmp_path / "clean.csv", tmp_path / "odd.csv"
    clean.write_text("label,f1,f2\n1,0.5,-2\n2,3,4e-3\n")
    odd.write_bytes(b"\r\nlabel,f1,f2\r\n1,0.5,-2\r\n  \t\r\n2,3,4e-3\r\n")
    X, y = io.read_feature_csv(clean)
    X2, y2 = io.read_feature_csv(odd)
    assert np.array_equal(X, X2) and np.array_equal(y, y2)
    assert y2.dtype.kind == "i"
    clean.write_text("label,f1\n1.0,2\n2e0,3\n")
    assert io.read_feature_csv(clean)[1].tolist() == [1, 2]


def test_csv_write_failure_keeps_old_target(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    path.write_text("old\n")
    real_fdopen = io.os.fdopen

    class FailingFile:
        """Passes the header through, then fails on the rows."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, text):
            if self.writes == 1:
                raise OSError("disk full")
            self.writes += 1
            return self.fh.write(text)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(io.os, "fdopen", lambda *a, **k: FailingFile(real_fdopen(*a, **k)))
    with pytest.raises(OSError, match="disk full"):
        io.write_dataset_csv(path, np.ones((3, 2)), [1, 2, 1])
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


def test_csv_malformed_inputs(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("label,f1\n")
    with pytest.raises(io.FormatError, match="no data rows"):
        io.read_feature_csv(bad)
    bad.write_text("label,x1\n1,2.0\n")
    with pytest.raises(io.FormatError, match="malformed header"):
        io.read_feature_csv(bad)
    bad.write_text("label,f1\n1,2.0,3.0\n")
    with pytest.raises(io.FormatError, match="ragged row"):
        io.read_feature_csv(bad)
    for text in ("label,f1\n1,abc\n", "label,f1\n1.5,2.0\n", "label,f1\nx,2.0\n", "label,f1\n1,\n"):
        bad.write_text(text)
        with pytest.raises(io.FormatError, match="non-numeric"):
            io.read_feature_csv(bad)
    for text in ("label,f1\n1,nan\n", "label,f1\n1,-inf\n", "f1,f2\n1.0,inf\n"):
        bad.write_text(text)
        with pytest.raises(io.FormatError, match="non-finite value"):
            io.read_feature_csv(bad)
    bad.write_text("")
    with pytest.raises(io.FormatError, match="empty file"):
        io.read_feature_csv(bad)



@pytest.mark.parametrize("features, labels, match", [
    ([[np.nan, 1.0]], [1], "finite"),
    ([[1.0, -np.inf]], None, "finite"),
    ([[1.0], [2.0]], [1.5, 2], "whole numbers"),
    ([[1.0], [2.0]], [1, np.nan], "whole numbers"),
    ([[1.0], [2.0]], [1], "one label per row"),
    ([[1.0], [2.0]], [1, 2, 3], "one label per row"),
    (np.zeros((3, 0)), [1, 2, 1], "need at least one sample and one feature"),
    (np.zeros((0, 3)), None, "need at least one sample and one feature"),
    (np.zeros((2, 2, 2)), None, "features must be a 2-d array"),
])
def test_csv_writer_rejects_bad_input_before_making_a_file(tmp_path, features, labels, match):
    with pytest.raises(ValueError, match=match):
        io.write_dataset_csv(tmp_path / "d.csv", features, labels)
    assert list(tmp_path.iterdir()) == []


def test_writer_and_reader_share_one_label_rule(tmp_path):
    # a label is a whole number that fits an int64: the largest double below
    # 2**63 passes both, and 2**63, 1e19, a fraction, nan and inf fail both
    path = tmp_path / "d.csv"
    top = 2.0**63 - 1024
    io.write_dataset_csv(path, [[1.0], [2.0]], [top, 2.0])
    assert io.read_feature_csv(path)[1].tolist() == [2**63 - 1024, 2]
    for bad in (2.0**63, 1e19, -1e19, 2.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="whole numbers"):
            io.write_dataset_csv(path, [[1.0], [2.0]], [bad, 2.0])
        path.write_text(f"label,f1\n{bad!r},1\n2,2\n")
        with pytest.raises(io.FormatError, match="non-numeric"):
            io.read_feature_csv(path)


def test_csv_labels_are_written_from_their_integers(tmp_path):
    path = tmp_path / "d.csv"
    io.write_dataset_csv(path, [[1.0], [2.0]], np.array([2**53 + 1, 2]))
    assert path.read_text() == "label,f1\n9007199254740993,1\n2,2\n"
    io.write_dataset_csv(path, [[1.0], [2.0]], [1.0, 2.0])
    assert path.read_text() == "label,f1\n1,1\n2,2\n"


# --- writing a large table on two threads ----------------------------------


def _large_table(rows, cols):
    """Features that exercise every %.17g form, spread over the whole table."""
    rng = np.random.default_rng(5)
    X = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-300, 300, size=(rows, cols))
    special = [-0.0, 1e-300, 5e-324, 1e300, -1e300, 0.1, 1 / 3, 2 / 3 * 1e-7]
    for r in (0, rows // 2, rows - 1):
        X[r, :len(special)] = special
    return X, rng.integers(1, 4, size=rows)


def _savetxt_bytes(X, labels):
    names, formats = [f"f{j + 1}" for j in range(X.shape[1])], ["%.17g"] * X.shape[1]
    if labels is not None:
        X, names, formats = np.column_stack((labels, X)), ["label", *names], ["%d", *formats]
    out = StringIO()
    np.savetxt(out, X, fmt=formats, delimiter=",", header=",".join(names), comments="")
    return out.getvalue().encode()


@pytest.fixture
def formatted(monkeypatch):
    """Records each _rows_text call as (on a helper thread, address of its rows, row count); the rows are still formatted."""
    calls, real, here = [], io._rows_text, threading.get_ident()

    def recorded(X, sep, labels=None):
        calls.append((threading.get_ident() != here, X.ctypes.data, len(X)))
        return real(X, sep, labels)

    monkeypatch.setattr(io, "_rows_text", recorded)
    return calls


def _blocks_by_thread(formatted, X):
    """The blocks of ``X`` each thread formatted, as (first row, row count), in its order: (writing, helper).

    An empty block has no first row: it is (None, 0).
    """
    blocks = {False: [], True: []}
    for helper, address, rows in formatted:
        blocks[helper].append(((address - X.ctypes.data) // X.strides[0] if rows else None, rows))
    return blocks[False], blocks[True]


def _blocks(rows, step):
    """The blocks of ``step`` rows that a table of ``rows`` rows is cut into, as (first row, row count)."""
    return [(start, min(step, rows - start)) for start in range(0, rows, step)]


def _alternated(blocks):
    """``blocks`` as the writing thread and the helper format them: (writing, helper)."""
    return blocks[::2], blocks[1::2] + [(None, 0)] * (len(blocks) % 2)  # an odd count leaves the helper an empty block


def _cpus(monkeypatch, count):
    """Makes the CPU probe see ``count`` usable CPUs; returns the list its calls are recorded in."""
    probes = []
    monkeypatch.setattr(io.os, "sched_getaffinity", lambda pid: probes.append(pid) or set(range(count)))
    return probes


@pytest.mark.parametrize("labeled", [True, False])
@pytest.mark.parametrize("cpus, other_thread, helpers", [(3, False, 1), (1, False, 0), (3, True, 1)])
def test_large_csv_is_byte_identical_to_savetxt_on_any_writer_count(
        tmp_path, monkeypatch, formatted, labeled, cpus, other_thread, helpers):
    _cpus(monkeypatch, cpus)
    X, y = _large_table(3 * io._WRITER_MIN_VALUES // 500 + 7, 500)
    labels = y if labeled else None
    path = tmp_path / "d.csv"
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, daemon=True)
    if other_thread:  # another thread running does not stop the helper
        thread.start()
    try:
        threads = threading.active_count()
        io.write_dataset_csv(path, X, labels)
        assert threading.active_count() == threads
    finally:
        stop.set()
        if other_thread:
            thread.join(timeout=10)
    assert not thread.is_alive()
    if helpers:
        blocks = _blocks(len(X), io._SPLIT_BLOCK_VALUES // (500 + labeled))
        assert len(blocks) % 2 == 1
        assert _blocks_by_thread(formatted, X) == _alternated(blocks)
    else:
        assert _blocks_by_thread(formatted, X) == (_blocks(len(X), io._BLOCK_VALUES // (500 + labeled)), [])
    assert path.read_bytes() == _savetxt_bytes(X, labels)
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


def _two_thread_table(tmp_path, monkeypatch):
    _cpus(monkeypatch, 2)
    path = tmp_path / "d.csv"
    path.write_text("old\n")
    return path, np.ones((2 * io._WRITER_MIN_VALUES // 100, 100))


def _in_threads(monkeypatch, writing, helper):
    """Makes _rows_text call ``writing`` in the writing thread and ``helper`` in the helper."""
    here = threading.get_ident()
    monkeypatch.setattr(io, "_rows_text", lambda *a: writing() if threading.get_ident() == here else helper())


def _raise(exc):
    raise exc


def _leaves_nothing(path, tmp_path, threads):
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
    assert threading.active_count() == threads


def test_failing_writer_thread_raises_and_leaves_nothing(tmp_path, monkeypatch):
    path, X = _two_thread_table(tmp_path, monkeypatch)
    _in_threads(monkeypatch, lambda: b"", lambda: _raise(RuntimeError("boom")))
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="boom"):
        io.write_dataset_csv(path, X, np.ones(len(X), dtype=int))
    _leaves_nothing(path, tmp_path, threads)


def test_interrupted_write_joins_its_helper_and_leaves_nothing(tmp_path, monkeypatch):
    path, X = _two_thread_table(tmp_path, monkeypatch)
    finished = []
    _in_threads(monkeypatch, lambda: _raise(KeyboardInterrupt()), lambda: time.sleep(0.2) or finished.append(1) or b"")
    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        io.write_dataset_csv(path, X)
    assert finished == [1]  # the helper's block was waited for, and no other was started
    _leaves_nothing(path, tmp_path, threads)


def test_helper_that_cannot_start_fails_the_write_and_leaves_nothing(tmp_path, monkeypatch):
    path, X = _two_thread_table(tmp_path, monkeypatch)
    monkeypatch.setattr(threading.Thread, "start", lambda self: _raise(RuntimeError("can't start new thread")))
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="can't start"):
        io.write_dataset_csv(path, X)
    _leaves_nothing(path, tmp_path, threads)


def test_large_write_table_uses_the_helper_and_writes_percent_text(tmp_path, monkeypatch, formatted):
    _cpus(monkeypatch, 2)
    X = _large_table(2 * io._WRITER_MIN_VALUES // 1000, 1000)[0]
    path = tmp_path / "t.csv"
    io.write_table(path, "head\n", X, "# foot\n")
    assert _blocks_by_thread(formatted, X) == _alternated(_blocks(len(X), io._SPLIT_BLOCK_VALUES // 1000))
    assert path.read_bytes() == ("head\n" + "".join(_percent_text(row) for row in X.tolist()) + "# foot\n").encode()
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_path_sized_table_is_formatted_by_the_writing_thread_alone(tmp_path, monkeypatch, formatted):
    probes = _cpus(monkeypatch, 2)
    X = np.random.default_rng(6).normal(size=(20_000, 5))  # 100,000 values, as sim1's `path` table holds
    path = tmp_path / "t.csv"
    io.write_table(path, "", X)
    assert _blocks_by_thread(formatted, X) == (_blocks(len(X), io._BLOCK_VALUES // 5), [])
    assert probes == []  # the size alone rules the helper out
    assert path.read_bytes() == "".join(_percent_text(row) for row in X.tolist()).encode()


# --- the %.17g kernel ---------------------------------------------------------


def _kernel_text(values, sep=","):
    out = BytesIO()
    io._format_rows(out, np.asarray(values, dtype=float).reshape(1, -1), sep=sep)
    return out.getvalue().decode()


def _percent_text(values, sep=","):
    return sep.join("%.17g" % v for v in values) + "\n"


# the doubles on each side of 1e-4, where %.17g and the kernel hand over to
# "%", and of 1e-6, where the kernel handed over before it wrote fixed
# notation only; the double nearest 1e-4 lies above it, and 1e-6's below
_HANDOVERS = [9.9999999999999991e-05, 1e-4, 1.0000000000000002e-04,
              9.9999999999999974e-07, 1e-6, 1.0000000000000002e-06]


@settings(max_examples=400, deadline=None)
@example(_HANDOVERS + [-v for v in _HANDOVERS])
@given(st.lists(st.one_of(st.floats(), st.floats(-1e17, 1e17), st.floats(-1e-3, 1e-3)), min_size=1, max_size=40))
def test_kernel_writes_what_percent_writes(values):
    assert _kernel_text(values) == _percent_text(values)


def _boundary_values():
    """Floats where %.17g changes layout or rounds a tie, with both signs."""
    near = [(np.array([10.0**k, float(f"1e{k}")]).view(np.int64)[:, None] + np.arange(-40, 41)).view(np.float64)
            for k in range(-20, 23)]  # the nextafter neighbourhood of each power of ten
    halfway = (4e15 + 2 * np.arange(500) + 1) / 4  # 18 significant digits ending in 5: a tie at 17
    dyadic = np.ldexp(np.arange(2**52, 2**52 + 2000, 3, dtype=float), -3)
    edges = [9.9999999999999995e-07, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
             1.7976931348623157e308, 0.0, np.inf, np.nan]
    x = np.concatenate([*(a.ravel() for a in near), halfway, dyadic, edges])
    return np.concatenate([x, -x])


def test_kernel_on_boundary_values_and_wide_samples():
    assert all(("%.18g" % v).endswith("5") for v in (4e15 + 2 * np.arange(500) + 1) / 4)
    rng = np.random.default_rng(11)
    with np.errstate(invalid="ignore"):
        bits = rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(np.float64)
    samples = [_boundary_values(), rng.normal(size=20000), bits,
               rng.choice([-1, 1], 20000) * 10.0 ** rng.uniform(-8, 18, 20000)]
    for x in samples:
        assert _kernel_text(x) == _percent_text(x)
        assert _kernel_text(x, sep=" ") == _percent_text(x, sep=" ")
    assert _kernel_text([1e-6, 1e-5, -0.0, 0.0, 1e16, 100.0]) == "9.9999999999999995e-07,1.0000000000000001e-05,-0,0,10000000000000000,100\n"


def test_wide_model_file_bytes_and_one_kernel_call_per_section(tmp_path, monkeypatch):
    rng = np.random.default_rng(12)
    B = rng.normal(size=(2000, 2)) * (rng.random((2000, 1)) < 0.3)  # mostly zero rows, as a sparse fit gives
    model = ClassifierModel(directions=DirectionSet(B), means=rng.normal(size=(3, 2000)),
                            priors=np.array([0.2, 0.3, 0.5]))
    calls, rows_text = [], io._rows_text
    monkeypatch.setattr(io, "_rows_text", lambda *a: calls.append(1) or rows_text(*a))
    path = tmp_path / "m.txt"
    io.write_model_file(path, model, "grouped")
    blocks = [("priors", model.priors[None, :]), ("means", model.means), ("directions", model.directions.matrix)]
    expected = "glda-model 1\nkind lda K 3 p 2000 estimator grouped\n" + "".join(
        tag + "\n" + "".join(_percent_text(row, sep=" ") for row in block.tolist()) for tag, block in blocks)
    assert path.read_bytes() == expected.encode()
    assert len(calls) == 3


def test_write_table_writes_header_rows_and_footer(tmp_path):
    table = np.array([[0.5, 1, 2000, -0.0, np.nan], [1e-7, 2, 1, 3.25e20, np.inf]])
    path = tmp_path / "t.csv"
    io.write_table(path, "a,b,c,d,e\n", table, "# end,1\n")
    assert path.read_bytes() == b"a,b,c,d,e\n0.5,1,2000,-0,nan\n9.9999999999999995e-08,2,1,3.25e+20,inf\n# end,1\n"
    io.write_table(path, "a,b,c,d,e\n", np.empty((0, 5)))
    assert path.read_bytes() == b"a,b,c,d,e\n"
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


# --- the parse sidecar ----------------------------------------------------


def _sidecar(csv):
    return csv.parent / f".{csv.name}.glda-cache"


def _bits(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


@pytest.fixture
def count_parses(monkeypatch):
    """Counts np.loadtxt calls made by the CSV reader."""
    calls, real = [], io.np.loadtxt

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(io.np, "loadtxt", counted)
    return calls


@pytest.mark.parametrize("labeled", [True, False])
def test_second_read_loads_the_sidecar_bit_identical_without_parsing(tmp_path, monkeypatch, labeled):
    rng = np.random.default_rng(4)
    X = rng.normal(size=(9, 4)) * 10.0 ** rng.integers(-300, 300, size=(9, 4))
    X[0, 0], X[1, 1] = -0.0, 5e-324
    path = tmp_path / "d.csv"
    io.write_dataset_csv(path, X, rng.integers(1, 4, size=9) if labeled else None)
    first = io.read_feature_csv(path)
    assert _sidecar(path).is_file()

    def no_parse(*args, **kwargs):
        raise AssertionError("the CSV was parsed again")

    monkeypatch.setattr(io.np, "loadtxt", no_parse)
    second = io.read_feature_csv(path)
    assert [_bits(a) for a in second] == [_bits(a) for a in first]
    assert (second[1] is None) == (not labeled)


def test_same_size_edit_with_mtime_put_back_is_parsed_again(tmp_path, count_parses):
    path = tmp_path / "d.csv"
    path.write_text("label,f1\n1,2.5\n2,3.5\n")
    io.read_feature_csv(path)
    st = path.stat()
    path.write_text("label,f1\n1,2.5\n2,3.6\n")
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert path.stat().st_size == st.st_size and path.stat().st_mtime_ns == st.st_mtime_ns
    X, _ = io.read_feature_csv(path)
    assert X[:, 0].tolist() == [2.5, 3.6] and len(count_parses) == 2
    io.read_feature_csv(path)
    assert len(count_parses) == 2  # the edit's parse was kept


@pytest.mark.parametrize("damage", ["truncated", "garbage", "foreign tag"])
def test_damaged_sidecar_falls_back_to_a_parse_and_is_rewritten(tmp_path, count_parses, damage):
    path = tmp_path / "d.csv"
    io.write_dataset_csv(path, np.arange(12.0).reshape(4, 3) / 7.0, [1, 2, 3, 1])
    expected = io.read_feature_csv(path)
    good = _sidecar(path).read_bytes()
    damaged = {
        "truncated": good[: len(good) - 8],
        "garbage": os.urandom(len(good)),
        "foreign tag": good.replace(b"glda-csv-cache 1\n", b"glda-csv-cache 9\n", 1),
    }[damage]
    _sidecar(path).write_bytes(damaged)
    got = io.read_feature_csv(path)
    assert [_bits(a) for a in got] == [_bits(a) for a in expected]
    assert len(count_parses) == 2
    assert _sidecar(path).read_bytes() == good


@pytest.mark.parametrize("kept", ["int64", "1-d", "zero rows", "one labelled column"])
def test_sidecar_of_the_wrong_dtype_or_shape_is_a_miss_and_is_rewritten(tmp_path, count_parses, kept):
    path = tmp_path / "d.csv"
    io.write_dataset_csv(path, np.arange(12.0).reshape(4, 3) / 7.0, [1, 2, 3, 1])
    expected = io.read_feature_csv(path)
    good = _sidecar(path).read_bytes()
    head = good[:len(io._SIDECAR_TAG) + 33]  # the tag, the CSV's digest and "L"
    assert head.endswith(b"L")
    table = {"int64": np.ones((4, 4), dtype=np.int64), "1-d": np.ones(16), "zero rows": np.empty((0, 4)),
             "one labelled column": np.ones((4, 1))}[kept]
    out = BytesIO(head)
    out.seek(0, os.SEEK_END)
    np.lib.format.write_array(out, table, allow_pickle=False)
    _sidecar(path).write_bytes(out.getvalue())
    got = io.read_feature_csv(path)
    assert [_bits(a) for a in got] == [_bits(a) for a in expected]
    assert len(count_parses) == 2
    assert _sidecar(path).read_bytes() == good


def test_malformed_csv_fails_alike_on_every_read_and_leaves_no_sidecar(tmp_path):
    bad = tmp_path / "bad.csv"
    for text in ("label,f1\n", "label,x1\n1,2.0\n", "label,f1\n1,2.0,3.0\n", "label,f1\n1,abc\n",
                 "label,f1\n1.5,2.0\n", "label,f1\n1,nan\n", "f1,f2\n1.0,inf\n", ""):
        bad.write_text(text)
        errors = []
        for _ in range(2):
            with pytest.raises(io.FormatError) as exc:
                io.read_feature_csv(bad)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]
        assert [p.name for p in tmp_path.iterdir()] == ["bad.csv"]


def test_csv_changed_during_the_read_leaves_no_sidecar(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    path.write_text("label,f1\n1,2.5\n2,3.5\n")
    real = io.np.loadtxt

    def parse_then_append(*args, **kwargs):
        table = real(*args, **kwargs)
        with open(path, "a") as fh:
            fh.write("1,4.5\n")
        return table

    monkeypatch.setattr(io.np, "loadtxt", parse_then_append)
    X, _ = io.read_feature_csv(path)
    assert X[:, 0].tolist() == [2.5, 3.5]
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


def test_unwritable_sidecar_still_reads_and_leaves_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    io.write_dataset_csv(path, np.eye(3), [1, 2, 3])

    def fail(*args, **kwargs):
        raise OSError("read-only file system")

    monkeypatch.setattr(io.os, "replace", fail)
    X, labels = io.read_feature_csv(path)
    assert np.array_equal(X, np.eye(3)) and labels.tolist() == [1, 2, 3]
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


def test_sidecar_mode_is_no_wider_than_the_csv(tmp_path):
    path = tmp_path / "d.csv"
    io.write_dataset_csv(path, np.eye(2), [1, 2])
    path.chmod(0o600)
    old = os.umask(0o022)
    try:
        io.read_feature_csv(path)
    finally:
        os.umask(old)
    assert stat.S_IMODE(_sidecar(path).stat().st_mode) & ~0o600 == 0


def test_fifo_is_parsed_and_not_cached(tmp_path):
    fifo = tmp_path / "d.csv"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w") as fh:
            fh.write("label,f1,f2\n1,0.5,-2\n2,3,4e-3\n")

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    X, labels = io.read_feature_csv(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert X.tolist() == [[0.5, -2.0], [3.0, 4e-3]] and labels.tolist() == [1, 2]
    assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


def test_lda_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    means = rng.normal(size=(3, 4))
    priors = np.array([0.25, 0.35, 0.4])
    B = rng.normal(size=(4, 2))
    model = ClassifierModel(directions=DirectionSet(B), means=means, priors=priors)
    path = tmp_path / "m.txt"
    io.write_model_file(path, model, "grouped")
    loaded, est = io.read_model_file(path)
    assert est == "grouped"
    assert np.array_equal(loaded.means, means)
    assert np.array_equal(loaded.priors, priors)
    assert np.array_equal(loaded.directions.matrix, B)


def test_nbayes_model_file_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    m = NaiveBayesModel(
        means=rng.normal(size=(2, 3)),
        variances=rng.uniform(0.5, 2.0, size=(2, 3)),
        priors=np.array([0.5, 0.5]),
    )
    path = tmp_path / "nb.txt"
    io.write_model_file(path, m, "nbayes")
    loaded, est = io.read_model_file(path)
    assert est == "nbayes"
    assert isinstance(loaded, NaiveBayesModel)
    assert np.array_equal(loaded.variances, m.variances)


def test_model_file_rejects_garbage(tmp_path):
    path = tmp_path / "junk.txt"
    for text in ("not a model\n", "glda-model 1\n"):
        path.write_text(text)
        with pytest.raises(io.FormatError):
            io.read_model_file(path)
    lda = ClassifierModel(directions=DirectionSet(np.ones((3, 1))), means=np.zeros((2, 3)),
                          priors=np.array([0.5, 0.5]))
    nb = NaiveBayesModel(means=np.zeros((2, 3)), variances=np.ones((2, 3)),
                         priors=np.array([0.5, 0.5]))
    for model, section, row, reason in (
        (lda, "means", "0 nan 0", "model entries must be finite"),
        (lda, "directions", "inf", "model entries must be finite"),
        (nb, "variances", "1 1 nan", "model entries must be finite"),
        (lda, "means", "0 0", ""),  # ragged means row
        (lda, "means", "0 zero 0", "could not convert"),
    ):
        io.write_model_file(path, model, "grouped")
        lines = path.read_text().split("\n")
        lines[lines.index(section) + 1] = row
        path.write_text("\n".join(lines))
        with pytest.raises(io.FormatError, match=re.escape(f"{path}: {reason}")):
            io.read_model_file(path)
    for model, section, row in ((lda, "directions", "1"), (nb, "variances", "1 1 1")):
        io.write_model_file(path, model, "grouped")
        path.write_text(path.read_text() + row + "\n")  # one row more than the header's p or K
        with pytest.raises(io.FormatError, match=re.escape(f"{path}: unexpected line after section '{section}'")):
            io.read_model_file(path)
    for bad_head in ("kind lda K 0 p 3 estimator grouped", "kind lda K 2 p 0 estimator grouped"):
        io.write_model_file(path, lda, "grouped")
        lines = path.read_text().split("\n")
        lines[1] = bad_head
        path.write_text("\n".join(lines))
        with pytest.raises(io.FormatError, match=re.escape(f"{path}: malformed model header")):
            io.read_model_file(path)


def test_nbayes_model_file_rejects_wrong_variance_shape(tmp_path):
    m = NaiveBayesModel(
        means=np.zeros((2, 3)),
        variances=np.ones((2, 3)),
        priors=np.array([0.5, 0.5]),
    )
    path = tmp_path / "nb.txt"
    io.write_model_file(path, m, "nbayes")
    lines = path.read_text().split("\n")
    at = lines.index("variances")
    lines[at + 1:at + 3] = ["1", "1"]  # one variance per class instead of p
    path.write_text("\n".join(lines))
    with pytest.raises(io.FormatError, match="variance"):
        io.read_model_file(path)


def test_truth_file_round_trip(tmp_path):
    payload = {"design": "sim1", "seed": 3, "delta": [14.0, 6.44]}
    path = tmp_path / "truth.json"
    io.write_truth_file(path, payload)
    assert io.read_truth_file(path) == payload


def test_written_files_honour_the_umask(tmp_path):
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        path = tmp_path / f"d{umask:o}.csv"
        old = os.umask(umask)
        try:
            io.write_dataset_csv(path, np.eye(2), [1, 2])
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == mode


def test_atomic_write_leaves_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    io.atomic_write_text(path, "hello\n")
    assert path.read_text() == "hello\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_text_writes_utf8_whatever_the_locale(tmp_path):
    path = tmp_path / "u.txt"
    io.atomic_write_text(path, "λ ≥ 0.5, naïve\n")
    assert path.read_bytes() == "λ ≥ 0.5, naïve\n".encode("utf-8")


def test_atomic_write_retries_a_temp_name_that_is_taken(tmp_path, monkeypatch):
    taken = tmp_path / f".tmp-{bytes(4).hex()}"
    taken.write_bytes(b"another writer's\n")
    calls, real = [], os.urandom

    def urandom(n):
        calls.append(n)
        return bytes(n) if len(calls) == 1 else real(n)  # the first name is the taken one

    monkeypatch.setattr(io.os, "urandom", urandom)
    path = tmp_path / "t.txt"
    io.atomic_write_text(path, "new\n")
    assert len(calls) == 2
    assert path.read_text() == "new\n"
    assert taken.read_bytes() == b"another writer's\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "t.txt"]
