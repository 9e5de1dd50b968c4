import os
import re
import stat

import numpy as np
import pytest

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
        """Passes the header and the first row through, then fails."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, text):
            if self.writes == 2:
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
