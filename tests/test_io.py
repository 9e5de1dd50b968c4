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
    bad.write_text("label,f1\n1,abc\n")
    with pytest.raises(io.FormatError, match="non-numeric"):
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


def test_atomic_write_leaves_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    io.atomic_write_text(path, "hello\n")
    assert path.read_text() == "hello\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
