import csv
import json

import numpy as np
import pytest

from hyposcreen.dataset import (
    CONTINUOUS_DEMOGRAPHICS,
    DEMOGRAPHIC_COLUMNS,
    META_COLUMNS,
    LabeledDataset,
    build_feature_table,
    read_feature_table,
    write_feature_table,
)
import hyposcreen.dataset as dataset
from hyposcreen.cli import main
from hyposcreen.errors import (
    DataError,
    DuplicateEntry,
    EmptyFile,
    MissingCell,
    MissingColumn,
    MissingFile,
    NonNumericCell,
    OutOfRange,
)
from hyposcreen.featurize import feature_names, load_index_map, used_points
from hyposcreen.ingest import parse_manifest


def _tiny_dataset():
    rng = np.random.default_rng(20)
    return LabeledDataset(
        feature_names=["f0", "f1", "f2"],
        X=rng.normal(size=(5, 3)),
        y=np.array([1, 0, 1, 0, 0]),
        participant_ids=[f"p{i}" for i in range(5)],
        demographics={
            "sex": ["female", "male", None, "female", "male"],
            "age": [61.0, 55.5, 70.0, None, 66.0],
        },
    )


def test_labeled_dataset_fills_demographics_and_validates():
    ds = _tiny_dataset()
    assert set(ds.demographics) == set(DEMOGRAPHIC_COLUMNS)
    assert ds.demographics["cohort"] == [None] * 5
    assert ds.n_rows == 5
    with pytest.raises(DataError):
        LabeledDataset(feature_names=["a"], X=np.zeros((2, 2)),
                       y=np.array([0, 1]), participant_ids=["x", "y"])
    with pytest.raises(DataError):
        LabeledDataset(feature_names=["a", "b"], X=np.zeros((2, 2)),
                       y=np.array([0]), participant_ids=["x"])


def test_labeled_dataset_rejects_bad_cells_labels_and_ids():
    def make(X=np.zeros((3, 2)), y=(0, 1, 0), ids=("a", "b", "c")):
        return LabeledDataset(feature_names=["f0", "f1"], X=X, y=np.array(y),
                              participant_ids=list(ids))

    for bad in (np.nan, np.inf, -np.inf):
        X = np.zeros((3, 2))
        X[1, 1] = bad
        with pytest.raises(OutOfRange) as err:
            make(X=X)
        assert (err.value.row, err.value.col) == (1, "f1")
    for y in ((0, 0.5, 1), (0, 1, 2), (-1, 0, 1)):
        with pytest.raises(OutOfRange) as err:
            make(y=y)
        assert err.value.col == "label"
    with pytest.raises(DuplicateEntry) as err:
        make(ids=("a", "b", "a"))
    assert err.value.key == "a"
    assert make(y=(1.0, 0.0, True)).y.dtype == np.int64


def test_labeled_dataset_rejects_ids_of_the_wrong_length():
    # subset([0, 2]) used to die with IndexError on such a dataset
    with pytest.raises(DataError, match="participant ids"):
        LabeledDataset(feature_names=["a"], X=np.zeros((3, 1)), y=[0, 1, 0],
                       participant_ids=["x"])


def test_subset_and_column_subset():
    ds = _tiny_dataset()
    sub = ds.subset([4, 0])
    assert sub.participant_ids == ["p4", "p0"]
    assert np.array_equal(sub.X, ds.X[[4, 0]])
    assert sub.demographics["sex"] == ["male", "female"]

    cols = ds.column_subset(["f2", "f0"])
    assert cols.feature_names == ["f2", "f0"]
    assert np.array_equal(cols.X, ds.X[:, [2, 0]])
    assert np.array_equal(cols.y, ds.y)


def test_select_expressions_copies_only_a_table_it_narrows():
    rng = np.random.default_rng(21)
    names = feature_names()
    ds = LabeledDataset(feature_names=names, X=rng.normal(size=(4, len(names))),
                        y=np.array([1, 0, 1, 0]), participant_ids=list("abcd"))
    # a table that holds exactly the listed columns comes back as it is
    assert dataset.select_expressions(ds, ["smile", "disgust", "surprise"]) is ds
    smile = dataset.select_expressions(ds, ["smile"])
    assert smile.feature_names == feature_names(["smile"])
    assert np.array_equal(smile.X, ds.X[:, :len(smile.feature_names)])
    assert dataset.select_expressions(smile, ["smile"]) is smile
    with pytest.raises(DataError, match="lacks expected feature columns"):
        dataset.select_expressions(smile, ["smile", "surprise"])


def test_build_feature_table_from_manifest(manifest_corpus):
    manifest = parse_manifest(manifest_corpus)
    ds = build_feature_table(manifest)
    assert ds.feature_names == feature_names()
    assert ds.X.shape == (4, 126)
    assert ds.participant_ids == ["p01", "p02", "p03", "p04"]  # manifest order
    assert list(ds.y) == [1, 0, 1, 0]
    assert ds.demographics["sex"] == ["female", "male", "male", "female"]
    assert ds.demographics["disease_duration"] == [4.5, None, None, None]

    smaller = build_feature_table(manifest, expressions=["smile", "surprise"])
    assert smaller.X.shape == (4, 84)


@pytest.mark.parametrize("min_confidence", [None, 0.75])
def test_narrow_landmark_read_writes_the_full_read_table(manifest_corpus, tmp_path,
                                                        monkeypatch, min_confidence):
    manifest = parse_manifest(manifest_corpus)
    load = dataset.load_recording
    asked = []

    def full_read(entry, base_dir, min_confidence=None, points=None):
        asked.append(points)
        return load(entry, base_dir, min_confidence)

    paths = {}
    for kind in ("narrow", "full"):
        with monkeypatch.context() as m:
            if kind == "full":
                m.setattr(dataset, "load_recording", full_read)
            paths[kind] = tmp_path / f"{kind}.csv"
            write_feature_table(build_feature_table(manifest,
                                                    min_confidence=min_confidence),
                                paths[kind])
    assert asked == [used_points(load_index_map())] * 12
    assert len(asked[0]) == 22
    assert paths["narrow"].read_bytes() == paths["full"].read_bytes()


def test_build_feature_table_conflicting_labels(manifest_corpus):
    doc = json.loads(manifest_corpus.read_text())
    for entry in doc["entries"]:
        if entry["participant_id"] == "p01" and entry["expression"] == "surprise":
            entry["label"] = 0
    bad = manifest_corpus.parent / "conflict.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataError):
        build_feature_table(parse_manifest(bad))


@pytest.mark.parametrize("field, change", [
    ("sex", {"sex": "male", "age": 80}),
    ("age", {"age": 80}),
    ("ethnicity", {"ethnicity": None}),
    ("disease_duration", {"disease_duration": 9.0}),
], ids=["sex-and-age", "age", "ethnicity-absent", "disease-duration"])
@pytest.mark.parametrize("expressions", [None, ["smile"]])
def test_build_feature_table_rejects_conflicting_demographics(manifest_corpus, field,
                                                              change, expressions):
    # unchecked, the participant kept the first entry's demographics
    doc = json.loads(manifest_corpus.read_text())
    entry = next(e for e in doc["entries"]
                 if e["participant_id"] == "p01" and e["expression"] == "surprise")
    for key, value in change.items():
        if value is None:
            del entry[key]
        else:
            entry[key] = value
    bad = manifest_corpus.parent / "conflict.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=f"participant 'p01' has entries that "
                                        f"disagree on '{field}'"):
        build_feature_table(parse_manifest(bad), expressions=expressions)


def test_feature_table_csv_round_trip(tmp_path):
    ds = _tiny_dataset()
    path = tmp_path / "table.csv"
    write_feature_table(ds, path)
    back = read_feature_table(path)
    assert back.feature_names == ds.feature_names
    assert np.array_equal(back.X, ds.X)  # repr round-trips floats exactly
    assert np.array_equal(back.y, ds.y)
    assert back.participant_ids == ds.participant_ids
    for col in DEMOGRAPHIC_COLUMNS:
        assert back.demographics[col] == ds.demographics[col]

    header = path.read_text().splitlines()[0].split(",")
    assert tuple(header[:7]) == META_COLUMNS


def test_feature_table_writes_are_deterministic(tmp_path):
    ds = _tiny_dataset()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_feature_table(ds, a)
    write_feature_table(ds, b)
    assert a.read_bytes() == b.read_bytes()


def test_read_feature_table_header_order(tmp_path):
    # meta columns are found by name; every other column is a feature
    path = tmp_path / "t.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["g1", "label", "participant_id", "g0"])
        w.writerow(["0.5", "1", "idA", "2.0"])
        w.writerow(["0.25", "0", "idB", "4.0"])
    ds = read_feature_table(path)
    assert ds.feature_names == ["g1", "g0"]
    assert np.array_equal(ds.X, [[0.5, 2.0], [0.25, 4.0]])
    assert ds.participant_ids == ["idA", "idB"]
    assert ds.demographics["age"] == [None, None]


def test_read_feature_table_errors(tmp_path):
    with pytest.raises(MissingFile):
        read_feature_table(tmp_path / "none.csv")
    p = tmp_path / "empty.csv"
    p.write_text("participant_id,label\n")
    with pytest.raises(EmptyFile):
        read_feature_table(p)
    p2 = tmp_path / "nolabel.csv"
    p2.write_text("participant_id,f0\nx,1.0\n")
    with pytest.raises(MissingColumn):
        read_feature_table(p2)
    p3 = tmp_path / "badcell.csv"
    p3.write_text("participant_id,label,f0\nx,1,oops\n")
    with pytest.raises(NonNumericCell):
        read_feature_table(p3)
    p4 = tmp_path / "badage.csv"
    p4.write_text("participant_id,label,age,f0\nx,1,old,1.0\n")
    with pytest.raises(NonNumericCell):
        read_feature_table(p4)
    assert "age" in CONTINUOUS_DEMOGRAPHICS
    p5 = tmp_path / "shortrow.csv"
    p5.write_text("participant_id,label,f0,f1\na,1,1.0,2.0\nb,0,3.0\n")
    with pytest.raises(MissingCell) as err:
        read_feature_table(p5)
    assert (err.value.row, err.value.col) == (1, "f1")


@pytest.mark.parametrize("label", ["0.5", "inf", "nan", "2", "-1"])
def test_read_feature_table_label_must_be_binary(tmp_path, label):
    path = tmp_path / "t.csv"
    path.write_text(f"participant_id,label,f0\na,1.0,1.0\nb,0.0,2.0\nc,{label},3.0\n")
    with pytest.raises(OutOfRange) as err:
        read_feature_table(path)
    assert (err.value.row, err.value.col) == (2, "label")
    path.write_text("participant_id,label,f0\na,1.0,1.0\nb,0.0,2.0\nc,1,3.0\n")
    assert read_feature_table(path).y.tolist() == [1, 0, 1]


def test_read_feature_table_rejects_a_participant_listed_twice(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text("participant_id,label,f0\n"
                    + "".join(f"{pid},{i % 2},{i}.0\n"
                              for i, pid in enumerate("abcdbefa")))
    with pytest.raises(DuplicateEntry) as err:
        read_feature_table(path)
    assert err.value.key == "b"
    assert "feature-table row" in str(err.value)
    assert main(["train", "--features", str(path),
                 "--out", str(tmp_path / "model.json")]) == 3
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == (
        "DuplicateEntry")
    assert not (tmp_path / "model.json").exists()
