import csv
import json
from dataclasses import asdict, dataclass, replace

import numpy as np
import pytest

from conftest import (
    au_header,
    write_au_csv,
    write_au_file,
    write_landmark_csv,
    write_landmark_file,
)
from hyposcreen.errors import (
    DataError,
    DuplicateEntry,
    EmptyFile,
    LengthMismatch,
    MissingCell,
    MissingColumn,
    MissingFile,
    NonNumericCell,
    OutOfRange,
    RaggedFrame,
    SchemaViolation,
)
from hyposcreen.ingest import (
    EXPRESSION_AUS,
    EXPRESSIONS,
    ManifestEntry,
    load_recording,
    parse_au_csv,
    parse_landmark_series,
    parse_manifest,
)

SMILE_AUS = EXPRESSION_AUS["smile"]


def test_expression_au_sets():
    assert EXPRESSIONS == ("smile", "disgust", "surprise")
    assert EXPRESSION_AUS["smile"] == ("AU01", "AU06", "AU12", "AU14",
                                       "AU25", "AU26", "AU45")
    assert EXPRESSION_AUS["disgust"] == ("AU04", "AU07", "AU09", "AU10",
                                         "AU25", "AU26", "AU45")
    assert EXPRESSION_AUS["surprise"] == ("AU01", "AU02", "AU04", "AU05",
                                          "AU25", "AU26", "AU45")


def test_au_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    src = tmp_path / "a.csv"
    write_au_file(src, SMILE_AUS, 12, rng)
    first = parse_au_csv(src, "smile", "p1")
    out = tmp_path / "b.csv"
    write_au_csv(first, out)
    second = parse_au_csv(out, "smile", "p1")
    for au in SMILE_AUS:
        assert np.array_equal(first.au_intensity[au], second.au_intensity[au])
        assert np.array_equal(first.au_activation[au], second.au_activation[au])
    assert np.array_equal(first.confidence, second.confidence)


def test_au_csv_header_order_is_irrelevant(tmp_path):
    rng = np.random.default_rng(2)
    cols = au_header(SMILE_AUS)
    shuffled = list(cols)
    np.random.default_rng(3).shuffle(shuffled)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    rows = write_au_file(a, SMILE_AUS, 6, rng)
    with open(b, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(shuffled)
        for row in rows:
            w.writerow([row[c] for c in shuffled])
    sa = parse_au_csv(a, "smile")
    sb = parse_au_csv(b, "smile")
    for au in SMILE_AUS:
        assert np.array_equal(sa.au_intensity[au], sb.au_intensity[au])


def test_au_csv_rows_sorted_by_frame(tmp_path):
    path = tmp_path / "a.csv"
    header = au_header(SMILE_AUS, conf=False)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for frame, val in ((2, 3.0), (0, 1.0), (1, 2.0)):
            w.writerow([frame] + [val, 1] * len(SMILE_AUS))
    series = parse_au_csv(path, "smile")
    assert np.array_equal(series.au_intensity["AU01"], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("cell,col,exc", [
    ("5.1", "AU01_r", OutOfRange),
    ("-0.2", "AU01_r", OutOfRange),
    ("0.5", "AU01_c", OutOfRange),
    ("2", "AU01_c", OutOfRange),
    ("oops", "AU01_r", NonNumericCell),
    ("1.2", "confidence", OutOfRange),
    ("nan", "frame", OutOfRange),
])
def test_au_csv_cell_validation(tmp_path, cell, col, exc):
    rng = np.random.default_rng(4)
    path = tmp_path / "a.csv"
    write_au_file(path, SMILE_AUS, 3, rng)
    _check_cell_rejected(path, lambda p: parse_au_csv(p, "smile"), cell, col, exc)


@pytest.mark.parametrize("cell,col,exc", [
    ("oops", "p000_x", NonNumericCell),
    ("", "p321_y", NonNumericCell),
    ("nan", "p468_x", OutOfRange),
    ("-inf", "p477_z", OutOfRange),
    ("inf", "frame", OutOfRange),
    ("1e", "frame", NonNumericCell),
])
def test_landmark_csv_cell_validation(tmp_path, cell, col, exc):
    rng = np.random.default_rng(4)
    path = tmp_path / "lm.csv"
    write_landmark_file(path, 3, rng)
    _check_cell_rejected(path, parse_landmark_series, cell, col, exc)


def _check_cell_rejected(path, parse, cell, col, exc):
    """Put ``cell`` in column ``col`` of data row 1; ``parse`` must name it."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    pos = rows[0].index(col)
    rows[2][pos] = cell
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(exc) as err:
        parse(path)
    assert err.value.row == 1  # 0-based data-row index
    assert err.value.col == col


def test_au_csv_missing_column(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "a.csv"
    write_au_file(path, SMILE_AUS, 3, rng)
    rows = list(csv.reader(open(path)))
    drop = rows[0].index("AU12_c")
    rows = [[c for i, c in enumerate(row) if i != drop] for row in rows]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(MissingColumn) as err:
        parse_au_csv(path, "smile")
    assert err.value.name == "AU12_c"


def test_au_csv_short_row(tmp_path):
    path = tmp_path / "a.csv"
    write_au_file(path, SMILE_AUS, 3, np.random.default_rng(4))
    lines = path.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:3])  # frame, AU01_r, AU01_c
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MissingCell) as err:
        parse_au_csv(path, "smile")
    assert (err.value.row, err.value.col) == (1, "AU06_r")


def test_au_csv_empty_and_missing(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("frame\n")
    with pytest.raises(EmptyFile):
        parse_au_csv(empty, "smile")
    with pytest.raises(MissingFile):
        parse_au_csv(tmp_path / "nope.csv", "smile")
    with pytest.raises(DataError):
        parse_au_csv(empty, "frown")


def test_landmark_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    src = tmp_path / "lm.csv"
    pts = write_landmark_file(src, 4, rng)
    series = parse_landmark_series(src, "p1", "smile")
    assert series.landmarks.shape == (4, 478, 3)
    assert np.array_equal(series.landmarks, pts)
    out = tmp_path / "lm2.csv"
    write_landmark_csv(series, out)
    again = parse_landmark_series(out)
    assert np.array_equal(series.landmarks, again.landmarks)


def test_landmark_ragged_row(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "lm.csv"
    write_landmark_file(path, 3, rng)
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    lines[2] = ",".join(cells[:1 + 30 * 3])  # frame + 30 complete points
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(RaggedFrame) as err:
        parse_landmark_series(path)
    assert err.value.frame_idx == 1
    assert err.value.point_count == 30


def test_landmark_missing_column(tmp_path):
    path = tmp_path / "lm.csv"
    path.write_text("frame,p000_x\n0,1.0\n")
    with pytest.raises(MissingColumn):
        parse_landmark_series(path)


def test_merge_and_length_mismatch(tmp_path):
    rng = np.random.default_rng(8)
    write_au_file(tmp_path / "au.csv", SMILE_AUS, 5, rng)
    write_landmark_file(tmp_path / "lm.csv", 5, rng)
    entry = ManifestEntry("p1", "smile", "au.csv", "lm.csv", 1)
    merged = load_recording(entry, tmp_path)
    assert merged.frame_count == 5
    assert merged.landmarks is not None and merged.confidence is not None

    write_landmark_file(tmp_path / "lm4.csv", 4, rng)
    with pytest.raises(LengthMismatch):
        load_recording(replace(entry, landmark_path="lm4.csv"), tmp_path)


def test_filter_low_confidence(tmp_path):
    rng = np.random.default_rng(9)
    rows = write_au_file(tmp_path / "au.csv", SMILE_AUS, 8, rng)
    for row, c in zip(rows, [0.9, 0.2, 0.95, 0.1, 0.8, 0.85, 0.99, 0.3]):
        row["confidence"] = repr(c)
    with open(tmp_path / "au.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, au_header(SMILE_AUS))
        w.writeheader()
        w.writerows(rows)
    write_landmark_file(tmp_path / "lm.csv", 8, rng)
    entry = ManifestEntry("p1", "smile", "au.csv", "lm.csv", 1)
    whole = load_recording(entry, tmp_path)
    kept = load_recording(entry, tmp_path, min_confidence=0.75)
    assert kept.frame_count == 5
    assert np.all(kept.confidence >= 0.75)
    frames = [0, 2, 4, 5, 6]
    for au in SMILE_AUS:
        assert kept.au_intensity[au].shape == (5,)
        assert np.array_equal(kept.au_intensity[au], whole.au_intensity[au][frames])
        assert np.array_equal(kept.au_activation[au], whole.au_activation[au][frames])
    assert np.array_equal(kept.landmarks, whole.landmarks[frames])
    assert np.array_equal(kept.confidence, whole.confidence[frames])
    with pytest.raises(DataError, match="all 8 frames fall below confidence 1.1"):
        load_recording(entry, tmp_path, min_confidence=1.1)


LOW_CONFIDENCE = 0.75  # frames below this are counted, not dropped


@dataclass
class ValidationReport:
    participant_id: str
    expression: str
    frame_count: int
    active_fraction: dict[str, float]
    zero_active: list[str]
    low_confidence_frames: int | None  # None when no confidence track

    def to_dict(self) -> dict:
        return asdict(self)


def validate_recording(series) -> ValidationReport:
    fractions = {}
    zero = []
    for au in sorted(series.au_activation):
        frac = float(np.mean(series.au_activation[au]))
        fractions[au] = frac
        if frac == 0.0:
            zero.append(au)
    low = None
    if series.confidence is not None:
        low = int(np.sum(series.confidence < LOW_CONFIDENCE))
    return ValidationReport(
        participant_id=series.participant_id,
        expression=series.expression,
        frame_count=series.frame_count,
        active_fraction=fractions,
        zero_active=zero,
        low_confidence_frames=low,
    )


def test_validate_recording_reports_inactive_aus(tmp_path):
    rng = np.random.default_rng(10)
    path = tmp_path / "au.csv"
    write_au_file(path, SMILE_AUS, 6, rng)
    series = parse_au_csv(path, "smile", "p9")
    series.au_activation["AU45"][:] = 0
    series.confidence[:] = 0.5
    report = validate_recording(series)
    assert report.participant_id == "p9"
    assert "AU45" in report.zero_active
    assert report.active_fraction["AU45"] == 0.0
    assert report.low_confidence_frames == 6
    assert report.to_dict()["frame_count"] == 6


def test_parse_manifest_happy_path(manifest_corpus):
    manifest = parse_manifest(manifest_corpus)
    assert len(manifest.entries) == 12
    by_pid = manifest.by_participant()
    assert set(by_pid) == {"p01", "p02", "p03", "p04"}
    assert set(by_pid["p01"]) == set(EXPRESSIONS)
    assert by_pid["p01"]["smile"].label == 1
    assert by_pid["p01"]["smile"].age == 63.0
    assert by_pid["p02"]["smile"].disease_duration is None

    series = load_recording(by_pid["p01"]["smile"], manifest.base_dir)
    assert series.frame_count == 5
    assert series.landmarks.shape == (5, 478, 3)


@pytest.mark.parametrize("patch,exc", [
    ({"label": 2}, SchemaViolation),
    ({"expression": "frown"}, SchemaViolation),
    ({"age": 17}, SchemaViolation),
    ({"age": 121}, SchemaViolation),
    ({"age": "old"}, SchemaViolation),
    ({"disease_duration": -1}, SchemaViolation),
    ({"au_path": "missing.csv"}, MissingFile),
    ({"label": True}, SchemaViolation),  # True == 1, but it is not a label
    ({"label": False}, SchemaViolation),
    ({"disease_duration": float("nan")}, SchemaViolation),  # nan < 0 is false
    ({"disease_duration": float("inf")}, SchemaViolation),
    # str() of an object or array would be written to the feature table
    ({"participant_id": {"id": 1}}, SchemaViolation),
    ({"cohort": ["clinic"]}, SchemaViolation),
    ({"sex": {"a": 1}}, SchemaViolation),
    ({"ethnicity": ["x", "y"]}, SchemaViolation),
])
def test_parse_manifest_rejects_bad_entries(manifest_corpus, patch, exc):
    doc = json.loads(manifest_corpus.read_text())
    doc["entries"][0].update(patch)
    bad = manifest_corpus.parent / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(exc):
        parse_manifest(bad)


def test_parse_manifest_duplicate_key(manifest_corpus):
    doc = json.loads(manifest_corpus.read_text())
    doc["entries"].append(dict(doc["entries"][0]))
    bad = manifest_corpus.parent / "dup.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DuplicateEntry):
        parse_manifest(bad)


def test_parse_manifest_missing_required_field(manifest_corpus):
    doc = json.loads(manifest_corpus.read_text())
    del doc["entries"][0]["au_path"]
    bad = manifest_corpus.parent / "short.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(SchemaViolation) as err:
        parse_manifest(bad)
    assert err.value.field == "au_path"


def test_parse_manifest_not_json(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{nope")
    with pytest.raises(DataError):
        parse_manifest(path)
    with pytest.raises(MissingFile):
        parse_manifest(tmp_path / "absent.json")


@pytest.mark.parametrize("content, message", [
    (None, "cannot read manifest file"),
    (b"\xff\xfe", "manifest is not valid JSON"),
    (b'{"entries": 5}', "must be an object with an 'entries' list"),
    (b'{"entries": null}', "must be an object with an 'entries' list"),
], ids=["directory", "not-utf8", "entries-a-number", "entries-null"])
def test_parse_manifest_rejects_a_directory_non_utf8_text_or_entries_not_a_list(
        tmp_path, content, message):
    path = tmp_path / "manifest.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    with pytest.raises(DataError, match=message):
        parse_manifest(path)


def test_csv_that_is_a_directory_or_not_utf8_is_a_data_error(tmp_path):
    (tmp_path / "dir.csv").mkdir()
    with pytest.raises(DataError, match="cannot read .*dir.csv"):
        parse_au_csv(tmp_path / "dir.csv", "smile")
    path = tmp_path / "au.csv"
    write_au_file(path, SMILE_AUS, 400, np.random.default_rng(11))
    data = path.read_bytes()
    # past the text reader's first blocks, so the byte is decoded only when
    # the cell-by-cell pass reaches the last row, after the bulk pass declined
    assert len(data) > 2 * 8192 and data.endswith(b"\r\n")
    for bad in (data[:-3] + b"\xff" + data[-2:], b"\xff" + data):
        path.write_bytes(bad)
        with pytest.raises(DataError, match="au.csv is not UTF-8 text"):
            parse_au_csv(path, "smile")
