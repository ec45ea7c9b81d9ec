"""Loading of recording manifests, action-unit tracks, and landmark tracks.

Input follows the usual video-toolchain conventions: one AU csv per recording
(``frame`` column plus ``AU##_r`` intensities in [0, 5] and ``AU##_c``
activations in {0, 1}) and one landmark csv per recording (``frame`` plus
``p000_x .. p477_z`` for 478 tracked points).  Column order in the header is
irrelevant; columns are located by name.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import operator
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
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

EXPRESSIONS = ("smile", "disgust", "surprise")

# Per-expression action units tracked by the upstream AU extractor.
EXPRESSION_AUS = {
    "smile": ("AU01", "AU06", "AU12", "AU14", "AU25", "AU26", "AU45"),
    "disgust": ("AU04", "AU07", "AU09", "AU10", "AU25", "AU26", "AU45"),
    "surprise": ("AU01", "AU02", "AU04", "AU05", "AU25", "AU26", "AU45"),
}

N_POINTS = 478
LOW_CONFIDENCE = 0.75  # frames below this are counted, not dropped


@dataclass
class ManifestEntry:
    participant_id: str
    expression: str
    au_path: str
    landmark_path: str
    label: int
    cohort: str | None = None
    sex: str | None = None
    age: float | None = None
    ethnicity: str | None = None
    disease_duration: float | None = None


@dataclass
class Manifest:
    entries: list[ManifestEntry] = field(default_factory=list)
    base_dir: Path = Path(".")

    def by_participant(self) -> dict[str, dict[str, ManifestEntry]]:
        """participant id -> expression -> entry."""
        out: dict[str, dict[str, ManifestEntry]] = {}
        for e in self.entries:
            out.setdefault(e.participant_id, {})[e.expression] = e
        return out


@dataclass(eq=False)
class RecordingSeries:
    """Per-frame tracks of one recording.

    ``au_intensity`` and ``au_activation`` map AU names to per-frame arrays;
    ``landmarks`` is (frame_count, 478, 3) when present.  All per-frame arrays
    share ``frame_count``.
    """

    participant_id: str
    expression: str
    frame_count: int
    au_intensity: dict[str, np.ndarray] = field(default_factory=dict)
    au_activation: dict[str, np.ndarray] = field(default_factory=dict)
    landmarks: np.ndarray | None = None
    confidence: np.ndarray | None = None


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


# --- manifest -------------------------------------------------------------

_REQUIRED_FIELDS = ("participant_id", "expression", "au_path", "landmark_path", "label")
_OPTIONAL_FIELDS = ("cohort", "sex", "age", "ethnicity", "disease_duration")


def parse_manifest(path) -> Manifest:
    """Load and validate a manifest JSON file.

    Referenced csv paths are resolved relative to the manifest's directory
    and must exist.
    """
    path = Path(path)
    if not path.exists():
        raise MissingFile(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "entries" not in doc:
        raise DataError("manifest must be an object with an 'entries' list")
    base = path.parent
    entries = []
    seen = set()
    for i, raw in enumerate(doc["entries"]):
        if not isinstance(raw, dict):
            raise SchemaViolation("entries", i, "entry is not an object")
        for f in _REQUIRED_FIELDS:
            if f not in raw or raw[f] is None:
                raise SchemaViolation(f, i, "missing")
        if raw["expression"] not in EXPRESSIONS:
            raise SchemaViolation("expression", i,
                                  f"{raw['expression']!r} not one of {EXPRESSIONS}")
        if raw["label"] not in (0, 1):
            raise SchemaViolation("label", i, "label must be 0 or 1")
        age = raw.get("age")
        if age is not None:
            if not isinstance(age, (int, float)) or isinstance(age, bool):
                raise SchemaViolation("age", i, "age must be numeric")
            if not 18 <= age <= 120:
                raise SchemaViolation("age", i, f"age {age} outside [18, 120]")
        dur = raw.get("disease_duration")
        if dur is not None:
            if not isinstance(dur, (int, float)) or isinstance(dur, bool):
                raise SchemaViolation("disease_duration", i, "must be numeric")
            if dur < 0:
                raise SchemaViolation("disease_duration", i, "must be >= 0")
        key = (str(raw["participant_id"]), raw["expression"])
        if key in seen:
            raise DuplicateEntry(key)
        seen.add(key)
        entry = ManifestEntry(
            participant_id=str(raw["participant_id"]),
            expression=raw["expression"],
            au_path=str(raw["au_path"]),
            landmark_path=str(raw["landmark_path"]),
            label=int(raw["label"]),
            cohort=raw.get("cohort"),
            sex=raw.get("sex"),
            age=None if age is None else float(age),
            ethnicity=raw.get("ethnicity"),
            disease_duration=None if dur is None else float(dur),
        )
        for p in (entry.au_path, entry.landmark_path):
            if not (base / p).exists():
                raise MissingFile(base / p)
        entries.append(entry)
    return Manifest(entries=entries, base_dir=base)


# --- csv helpers ----------------------------------------------------------

@contextmanager
def csv_rows(path):
    """Open a csv and yield ``(header, rows)``.

    ``header`` holds the stripped names of the first non-blank line; ``rows``
    iterates over the data rows after it, skipping empty and whitespace-only
    lines.  Raises :class:`MissingFile`, or :class:`EmptyFile` when no data
    row follows the header.
    """
    path = Path(path)
    if not path.exists():
        raise MissingFile(path)
    with open(path, newline="") as fh:
        rows = (row for row in csv.reader(fh) if any(c.strip() for c in row))
        header = next(rows, None)
        first = next(rows, None)
        if first is None:
            raise EmptyFile(path)
        yield [h.strip() for h in header], itertools.chain((first,), rows)


def _read_rows(path) -> tuple[list[str], list[list[str]]]:
    with csv_rows(path) as (header, rows):
        return header, list(rows)


def float_block(rows, positions) -> np.ndarray | None:
    """The cells at ``positions`` of every row as an (n, len(positions)) array.

    Each cell goes through one ``float()``, as in a cell-by-cell loop, so the
    values are the same.  Returns None when a row is too short for
    ``positions``, or when a cell is rejected by ``float()`` or is not finite:
    the caller then reads the file again cell by cell to name the first bad
    cell.
    """
    k = len(positions)
    # itemgetter of one position returns a bare string, not a tuple
    pick = (operator.itemgetter(*positions) if k > 1
            else lambda row: [row[p] for p in positions])
    n = 0

    def picked():
        nonlocal n
        for row in rows:
            n += 1
            yield pick(row)

    try:
        flat = np.fromiter(map(float, itertools.chain.from_iterable(picked())),
                           dtype=float)
    except (ValueError, IndexError):
        return None
    if not np.isfinite(flat).all():
        return None
    return flat.reshape(n, k)


def cell_float(row_cells, row_idx, pos, name) -> float:
    """The finite number in cell ``pos`` of data row ``row_idx``."""
    if pos >= len(row_cells):
        raise MissingCell(row_idx, name)
    try:
        v = float(row_cells[pos])
    except ValueError:
        raise NonNumericCell(row_idx, name) from None
    if not math.isfinite(v):
        raise OutOfRange(row_idx, name, v)
    return v


# --- AU csv ---------------------------------------------------------------

def parse_au_csv(path, expression, participant_id: str = "") -> RecordingSeries:
    """Parse one AU track.  Intensities must lie in [0, 5], activations in {0, 1}.

    Row indices in error messages are 0-based data-row positions.  Rows are
    sorted by frame number, so header and row order never matter.
    """
    if expression not in EXPRESSION_AUS:
        raise DataError(f"unknown expression {expression!r}")
    aus = EXPRESSION_AUS[expression]
    header, data = _read_rows(path)
    pos = {name: i for i, name in enumerate(header)}
    if "frame" not in pos:
        raise MissingColumn("frame")
    for au in aus:
        for suffix in ("_r", "_c"):
            if au + suffix not in pos:
                raise MissingColumn(au + suffix)
    has_conf = "confidence" in pos

    n = len(data)
    frames = np.empty(n)
    intensity = {au: np.empty(n) for au in aus}
    activation = {au: np.empty(n, dtype=np.uint8) for au in aus}
    conf = np.empty(n) if has_conf else None
    for r, cells in enumerate(data):
        frames[r] = cell_float(cells, r, pos["frame"], "frame")
        for au in aus:
            v = cell_float(cells, r, pos[au + "_r"], au + "_r")
            if not 0.0 <= v <= 5.0:
                raise OutOfRange(r, au + "_r", v)
            intensity[au][r] = v
            a = cell_float(cells, r, pos[au + "_c"], au + "_c")
            if a not in (0.0, 1.0):
                raise OutOfRange(r, au + "_c", a)
            activation[au][r] = int(a)
        if has_conf:
            c = cell_float(cells, r, pos["confidence"], "confidence")
            if not 0.0 <= c <= 1.0:
                raise OutOfRange(r, "confidence", c)
            conf[r] = c

    order = np.argsort(frames, kind="stable")
    return RecordingSeries(
        participant_id=participant_id,
        expression=expression,
        frame_count=n,
        au_intensity={au: intensity[au][order] for au in aus},
        au_activation={au: activation[au][order] for au in aus},
        confidence=conf[order] if has_conf else None,
    )


def write_au_csv(series: RecordingSeries, path) -> None:
    """Serialize the AU tracks in canonical column order (round-trips exactly)."""
    aus = sorted(series.au_intensity)
    header = ["frame"] + [au + "_r" for au in aus] + [au + "_c" for au in aus]
    if series.confidence is not None:
        header.append("confidence")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r in range(series.frame_count):
            row = [r]
            row += [repr(float(series.au_intensity[au][r])) for au in aus]
            row += [int(series.au_activation[au][r]) for au in aus]
            if series.confidence is not None:
                row.append(repr(float(series.confidence[r])))
            w.writerow(row)


# --- landmark csv ----------------------------------------------------------

_AXES = ("x", "y", "z")


def _landmark_columns() -> list[str]:
    return [f"p{i:03d}_{ax}" for i in range(N_POINTS) for ax in _AXES]


def parse_landmark_series(path, participant_id: str = "",
                          expression: str = "") -> RecordingSeries:
    """Parse one landmark track into a (frames, 478, 3) array.

    The cells are converted by numpy's C parser (:func:`_loadtxt_block`).  A
    file it refuses is read cell by cell by :func:`_landmark_cells`, which
    raises for the first bad cell in row order.
    """
    names = ["frame"] + _landmark_columns()
    with csv_rows(path) as (header, _):
        pos = {name: i for i, name in enumerate(header)}
    for c in names:
        if c not in pos:
            raise MissingColumn(c)
    wanted = [pos[c] for c in names]
    block = _loadtxt_block(path, wanted, len(header))
    if block is None:
        block = _landmark_cells(path, wanted, names)

    n = len(block)
    order = np.argsort(block[:, 0], kind="stable")
    return RecordingSeries(
        participant_id=participant_id,
        expression=expression,
        frame_count=n,
        landmarks=block[order, 1:].reshape(n, N_POINTS, 3),
    )


# numpy's number parser strips these (the ASCII file, group, record and unit
# separators) around a cell as whitespace; ``float()`` rejects them.
_NOT_FLOAT_SPACE = "\x1c\x1d\x1e\x1f"
# np.loadtxt opens a path with one of these suffixes through a decompressor;
# csv_rows reads every path as plain text.
_DECOMPRESSED_SUFFIXES = (".bz2", ".gz", ".xz", ".lzma")


def _loadtxt_block(path, positions, width) -> np.ndarray | None:
    """The columns at ``positions`` of every row after the first line, as
    converted by ``np.loadtxt``.

    numpy converts a cell with the same correctly rounded routine as
    ``float()``, so the values are the same; it accepts fewer spellings (no
    quotes, ``1_0`` or non-ASCII digits, no whitespace-only line, no blank
    line before the header).  Returns None when numpy raises or warns, when
    the file holds no row, when a row is not ``width`` cells long, when the
    file holds a character only numpy takes for padding or has a suffix numpy
    decompresses, or when a value at ``positions`` is not finite: the caller
    then reads the file through the ``float()`` path, which accepts and
    rejects exactly what it did before.
    """
    if Path(path).suffix in _DECOMPRESSED_SUFFIXES:
        return None
    try:
        with open(path) as fh:  # decoded as csv_rows and np.loadtxt decode it
            text = fh.read()
        if any(c in text for c in _NOT_FLOAT_SPACE):
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a path, not a file object: numpy then reads it in large chunks
            table = np.loadtxt(path, delimiter=",", skiprows=1, comments=None,
                               dtype=float, ndmin=2)
    except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    if len(table) == 0 or table.shape[1] != width:
        return None
    block = table[:, positions]
    return block if np.isfinite(block).all() else None


def _landmark_cells(path, positions, names) -> np.ndarray:
    """Cell-by-cell read of the columns at ``positions`` (frame first).

    Raises :class:`RaggedFrame` for a row whose width differs from the
    header's, else the error of the row's first bad cell in ``names`` order.
    """
    header, data = _read_rows(path)
    width = len(header)
    out = np.empty((len(data), len(positions)))
    for r, cells in enumerate(data):
        if len(cells) != width:
            complete = sum(p < len(cells) for p in positions[1:]) // 3
            raise RaggedFrame(r, complete)
        for j, p in enumerate(positions):
            out[r, j] = cell_float(cells, r, p, names[j])
    return out


def write_landmark_csv(series: RecordingSeries, path) -> None:
    if series.landmarks is None:
        raise DataError("series has no landmarks to serialize")
    flat = series.landmarks.reshape(series.frame_count, -1)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["frame"] + _landmark_columns())
        for r in range(series.frame_count):
            w.writerow([r] + [repr(float(v)) for v in flat[r]])


# --- merge and validation ---------------------------------------------------

def merge_series(au: RecordingSeries, lm: RecordingSeries) -> RecordingSeries:
    if au.frame_count != lm.frame_count:
        raise LengthMismatch(
            f"AU track has {au.frame_count} frames, landmarks {lm.frame_count}")
    return RecordingSeries(
        participant_id=au.participant_id,
        expression=au.expression,
        frame_count=au.frame_count,
        au_intensity=au.au_intensity,
        au_activation=au.au_activation,
        landmarks=lm.landmarks,
        confidence=au.confidence,
    )


def load_recording(entry: ManifestEntry, base_dir,
                   min_confidence: float | None = None) -> RecordingSeries:
    base = Path(base_dir)
    au = parse_au_csv(base / entry.au_path, entry.expression, entry.participant_id)
    lm = parse_landmark_series(base / entry.landmark_path,
                               entry.participant_id, entry.expression)
    series = merge_series(au, lm)
    if min_confidence is not None:
        series = filter_low_confidence(series, min_confidence)
    return series


def filter_low_confidence(series: RecordingSeries, threshold: float) -> RecordingSeries:
    """Drop frames whose confidence falls below ``threshold``."""
    if series.confidence is None:
        return series
    keep = series.confidence >= threshold
    n = int(np.sum(keep))
    if n == 0:
        raise DataError(
            f"all {series.frame_count} frames fall below confidence {threshold}")
    return RecordingSeries(
        participant_id=series.participant_id,
        expression=series.expression,
        frame_count=n,
        au_intensity={k: v[keep] for k, v in series.au_intensity.items()},
        au_activation={k: v[keep] for k, v in series.au_activation.items()},
        landmarks=None if series.landmarks is None else series.landmarks[keep],
        confidence=series.confidence[keep],
    )


def validate_recording(series: RecordingSeries) -> ValidationReport:
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
