"""Loading of recording manifests, action-unit tracks, and landmark tracks.

Input follows the usual video-toolchain conventions: one AU csv per recording
(``frame`` column plus ``AU##_r`` intensities in [0, 5] and ``AU##_c``
activations in {0, 1}) and one landmark csv per recording (``frame`` plus
``p000_x .. p477_z`` for 478 tracked points).  Column order in the header is
irrelevant; columns are located by name.

The manifest is read by :func:`~hyposcreen.util.read_json`, and every csv,
feature tables and predictions included, is opened by :func:`csv_rows`, so
an input that is a directory or is not UTF-8 text raises :class:`DataError`.
:func:`load_recording` sorts each track by frame number, pairs AU row ``i``
with landmark row ``i`` and drops the frames below a confidence threshold
from both tracks, building the one :class:`RecordingSeries` it returns.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    DataError,
    DuplicateEntry,
    EmptyFile,
    IndexOutOfRange,
    LengthMismatch,
    MissingCell,
    MissingColumn,
    MissingFile,
    NonNumericCell,
    OutOfRange,
    RaggedFrame,
    SchemaViolation,
    WideRow,
)
from .util import read_json

EXPRESSIONS = ("smile", "disgust", "surprise")

# Per-expression action units tracked by the upstream AU extractor.
EXPRESSION_AUS = {
    "smile": ("AU01", "AU06", "AU12", "AU14", "AU25", "AU26", "AU45"),
    "disgust": ("AU04", "AU07", "AU09", "AU10", "AU25", "AU26", "AU45"),
    "surprise": ("AU01", "AU02", "AU04", "AU05", "AU25", "AU26", "AU45"),
}

N_POINTS = 478


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


# --- manifest -------------------------------------------------------------

_REQUIRED_FIELDS = ("participant_id", "expression", "au_path", "landmark_path", "label")
# fields whose value is written to the feature table as text
_TEXT_FIELDS = ("participant_id", "cohort", "sex", "ethnicity")


def parse_manifest(path) -> Manifest:
    """Load and validate a manifest JSON file.

    Referenced csv paths are resolved relative to the manifest's directory
    and must exist.  A ``participant_id``, ``cohort``, ``sex`` or
    ``ethnicity`` that is a JSON object or array raises
    :class:`SchemaViolation`.
    """
    path = Path(path)
    if not path.exists():
        raise MissingFile(path)
    doc = read_json(path, "manifest")
    if not isinstance(doc, dict) or not isinstance(doc.get("entries"), list):
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
        for f in _TEXT_FIELDS:
            if isinstance(raw.get(f), (dict, list)):
                raise SchemaViolation(f, i, "must be a string or a number, "
                                            "not an object or array")
        if raw["expression"] not in EXPRESSIONS:
            raise SchemaViolation("expression", i,
                                  f"{raw['expression']!r} not one of {EXPRESSIONS}")
        if isinstance(raw["label"], bool) or raw["label"] not in (0, 1):
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
            if not 0 <= dur < math.inf:  # also false for nan
                raise SchemaViolation("disease_duration", i,
                                      f"must be a finite number >= 0, got {dur}")
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


# --- csv reader ------------------------------------------------------------

@contextmanager
def csv_rows(path):
    """Open a csv and yield ``(header, rows)``.

    ``header`` holds the stripped names of the first non-blank line; ``rows``
    iterates over the data rows after it, skipping empty and whitespace-only
    lines.  Raises :class:`MissingFile`, or :class:`EmptyFile` when no data
    row follows the header.  A path that cannot be opened, such as a
    directory, and text that is not UTF-8, in the header or in any row,
    raise :class:`DataError` naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise MissingFile(path)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None
    with fh:
        rows = _nonblank_rows(fh, path)
        header = next(rows, None)
        first = next(rows, None)
        if first is None:
            raise EmptyFile(path)
        yield [h.strip() for h in header], itertools.chain((first,), rows)


def _nonblank_rows(fh, path):
    """The rows of ``fh`` that hold a non-blank cell; text that is not
    UTF-8 raises :class:`DataError` naming ``path``."""
    try:
        for row in csv.reader(fh):
            if any(c.strip() for c in row):
                yield row
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from None


def is_binary(v):
    """Value rule, for one value or an array: ``v`` is 0 or 1."""
    return (v == 0.0) | (v == 1.0)


@dataclass(frozen=True)
class Column:
    """One column of a csv format, found by its header name.

    A ``number`` cell must hold a finite ``float()`` that passes ``rule``;
    other cells are text.  An ``optional`` column may be missing from the
    header.  A ``blank`` column reads an empty or missing cell as None.  A
    value seen twice in a ``unique`` column raises :class:`DuplicateEntry`.
    A column that is not ``read`` must be in the header, and a row must reach
    it as it must reach a read column, but its cells are neither converted
    nor checked.
    """

    name: str
    number: bool = True
    rule: Callable | None = None
    optional: bool = False
    blank: bool = False
    unique: str | None = None
    read: bool = True


@dataclass(frozen=True)
class CsvSpec:
    """A csv format: its columns in check order; with ``rest``, then every
    header column it does not name, as a number that is read when
    ``rest(name)`` is true.  ``ragged(r, present)`` is the error for data
    row ``r`` if its width differs from the header's; ``present`` says which
    columns the row reaches.  Without ``ragged``, a row wider than the header
    raises :class:`WideRow` before its cells are checked, and a shorter one
    :class:`MissingCell` for the first column of the spec it does not reach
    (a ``blank`` column it does not reach reads as None).
    """

    columns: tuple[Column, ...]
    rest: Callable[[str], bool] | None = None
    ragged: Callable | None = None


def read_columns(path, spec: CsvSpec):
    """``(names, block, cells)``: the columns of ``spec`` in the csv at ``path``.

    ``block`` holds the non-blank number columns ``names``, one row per data
    row; ``cells`` maps every other read column to its list of values.  Only
    the read columns are converted and checked; a column that is not read is
    only looked for in the header and in each row's width.  A file that
    :func:`_bulk_pass` declines is read by :func:`_cell_pass`, which raises
    for the first bad row width or cell in row order, then in spec order.
    Repeats in a ``unique`` column are checked after every cell.  A header
    that names a column twice raises :class:`DuplicateEntry` before any row
    is read.
    """
    with csv_rows(path) as (header, _):
        pass
    pos = {}
    for i, name in enumerate(header):
        if name in pos:
            raise DuplicateEntry(name, "header column")
        pos[name] = i
    for col in spec.columns:
        if col.name not in pos and not col.optional:
            raise MissingColumn(col.name)
    columns = [(col, pos[col.name]) for col in spec.columns if col.name in pos]
    if spec.rest:
        named = {col.name for col in spec.columns}
        columns += [(Column(h, read=spec.rest(h)), i)
                    for i, h in enumerate(header) if h not in named]
    width = len(header)

    def ragged(r, n_cells):
        if spec.ragged:
            return spec.ragged(r, [p < n_cells for _, p in columns])
        return WideRow(r, n_cells, width) if n_cells > width else None
    names, block, cells = (_bulk_pass(path, header, columns)
                           or _cell_pass(path, width, columns, ragged))
    for col, _ in columns:
        if col.unique and col.read:
            seen = set()
            for value in cells[col.name]:
                if value in seen:
                    raise DuplicateEntry(value, col.unique)
                seen.add(value)
    return names, block, cells


def _in_block(col: Column) -> bool:
    return col.number and not col.blank


def _cell(cells, r: int, col: Column, pos: int):
    """The value of cell ``pos`` of data row ``r``, checked against ``col``."""
    if pos >= len(cells) or (col.blank and cells[pos] == ""):
        if col.blank:
            return None
        raise MissingCell(r, col.name)
    if not col.read:
        return None
    if not col.number:
        return cells[pos]
    try:
        v = float(cells[pos])
    except ValueError:
        raise NonNumericCell(r, col.name) from None
    if not math.isfinite(v) or (col.rule is not None and not col.rule(v)):
        raise OutOfRange(r, col.name, v)
    return v


def _cell_pass(path, width: int, columns, ragged):
    """Cell-by-cell read of the read ones of ``columns``, ``(Column,
    position)`` pairs.  ``ragged(r, n_cells)`` is the error, or None, for a
    row that is not ``width`` wide; a short row it lets through must still
    reach every column that is not ``blank``, checked in spec order."""
    read = [(col, p) for col, p in columns if col.read]
    values = []
    with csv_rows(path) as (_, rows):
        for r, cells in enumerate(rows):
            if len(cells) != width:
                error = ragged(r, len(cells))
                if error is not None:
                    raise error
                for col, p in columns:
                    _cell(cells, r, col, p)
            values.append([_cell(cells, r, col, p) for col, p in read])
    picks = [j for j, (col, _) in enumerate(read) if _in_block(col)]
    block = np.array([[row[j] for j in picks] for row in values], dtype=float)
    return ([read[j][0].name for j in picks],
            block.reshape(len(values), len(picks)),
            {col.name: [row[j] for row in values]
             for j, (col, _) in enumerate(read) if not _in_block(col)})


# Bytes whose cells numpy's parser and ``float()`` split or strip
# differently: a quote (numpy takes it as text, csv as quoting) and the ASCII
# file, group, record and unit separators (numpy strips them as whitespace).
# No byte of a multi-byte UTF-8 character is one of them, or a comma.
_DECLINED = (b'"', b"\x1c", b"\x1d", b"\x1e", b"\x1f")
# np.loadtxt opens a path with one of these suffixes through a decompressor;
# csv_rows reads every path as plain text.
_DECOMPRESSED_SUFFIXES = (".bz2", ".gz", ".xz", ".lzma")
# The pre-scan reads a file in blocks of this many bytes, so that neither the
# file nor a mask of its commas is ever held whole.
_SCAN_BLOCK = 1 << 20


def _bulk_pass(path, header, columns):
    """The result of :func:`_cell_pass` from one ``np.loadtxt`` call, or None
    to decline the file.

    numpy converts a cell with the same correctly rounded routine as
    ``float()``, so the values are the same; it accepts fewer spellings (no
    ``1_0`` or non-ASCII digits, no whitespace-only line).  It parses only
    the read ones of ``columns`` (``usecols``) and takes any row that
    reaches them, so the pass checks row widths from the file's bytes with
    no pass over its lines: the first line must be the header, and the last
    header column joins ``usecols`` under a converter that keeps nothing,
    so numpy raises on a row that stops short of it.  Every row then holds
    at least the header's comma count, and the file is kept only if its
    commas total that count once for the header and once per row numpy
    returns, so no row is wider either.  (numpy, like csv_rows, reads
    ``"\\r\\n"`` and ``"\\r"`` as ``"\\n"``, and skips only empty lines, which
    hold no comma.)  The text and blank columns go through converters that
    keep each cell's text as csv reads it, which :func:`_cell` then checks.
    The pass declines when numpy raises or warns, when the commas do not
    add up, when the file holds a byte of :data:`_DECLINED`, a blank line
    before the header or a suffix numpy decompresses, when no number column
    is read, or when a cell fails its column's checks.
    """
    if Path(path).suffix in _DECOMPRESSED_SUFFIXES:
        return None
    numbers = [(col, p) for col, p in columns if col.read and _in_block(col)]
    others = [(col, p) for col, p in columns if col.read and not _in_block(col)]
    if not numbers:  # numpy would read a line of empty cells, which csv skips
        return None
    commas = 0
    with open(path, "rb") as fh:
        chunk = fh.read(_SCAN_BLOCK)
        first = chunk.split(b"\n", 1)[0].split(b"\r", 1)[0]
        while chunk:
            if any(c in chunk for c in _DECLINED):
                return None
            commas += np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord(","))
            chunk = fh.read(_SCAN_BLOCK)
    texts = {p: [] for _, p in others}
    last = len(header) - 1
    converters = {p: _keeper(texts[p]) for p in texts}
    usecols = [p for _, p in numbers] + list(texts)
    if last not in usecols:
        usecols.append(last)
        converters[last] = _discard
    try:
        if [h.strip() for h in first.decode().split(",")] != header:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a path, not a file object: numpy then reads it in large chunks;
            # converter keys are header positions, not usecols positions
            table = np.loadtxt(path, delimiter=",", skiprows=1, comments=None,
                               dtype=float, ndmin=2, usecols=usecols,
                               converters=converters)
    except (ValueError, Warning):  # UnicodeDecodeError included
        return None
    if commas != last * (len(table) + 1):
        return None
    block = np.ascontiguousarray(table[:, :len(numbers)])
    del table
    if not np.isfinite(block).all() or not all(
            col.rule(block[:, j]).all()
            for j, (col, _) in enumerate(numbers) if col.rule is not None):
        return None
    if any(len(t) != len(block) for t in texts.values()):
        return None
    try:
        cells = {col.name: [_cell((t,), r, col, 0) for r, t in enumerate(texts[p])]
                 for col, p in others}
    except DataError:
        return None
    return [col.name for col, _ in numbers], block, cells


def _discard(text):
    """A ``np.loadtxt`` converter that keeps nothing of a cell."""
    return 0.0


def _keeper(out: list):
    """A ``np.loadtxt`` converter that appends each cell's text to ``out``."""
    def convert(text):
        out.append(text)
        return 0.0
    return convert


# --- AU csv ---------------------------------------------------------------

def _au_spec(expression) -> CsvSpec:
    columns = [Column("frame")]
    for au in EXPRESSION_AUS[expression]:
        columns += [Column(au + "_r", rule=lambda v: (0.0 <= v) & (v <= 5.0)),
                    Column(au + "_c", rule=is_binary)]
    columns.append(Column("confidence", rule=lambda v: (0.0 <= v) & (v <= 1.0),
                          optional=True))
    return CsvSpec(tuple(columns))


def parse_au_csv(path, expression, participant_id: str = "") -> RecordingSeries:
    """Parse one AU track.  Intensities must lie in [0, 5], activations in {0, 1}.

    Row indices in error messages are 0-based data-row positions.  Rows are
    sorted by frame number, so header and row order never matter.
    """
    if expression not in EXPRESSION_AUS:
        raise DataError(f"unknown expression {expression!r}")
    aus = EXPRESSION_AUS[expression]
    names, block, _ = read_columns(path, _au_spec(expression))
    col = {name: j for j, name in enumerate(names)}
    order = np.argsort(block[:, 0], kind="stable")

    def track(name):
        return block[order, col[name]]

    return RecordingSeries(
        participant_id=participant_id,
        expression=expression,
        frame_count=len(order),
        au_intensity={au: track(au + "_r") for au in aus},
        au_activation={au: track(au + "_c").astype(np.uint8) for au in aus},
        confidence=track("confidence") if "confidence" in col else None,
    )


# --- landmark csv ----------------------------------------------------------

@functools.lru_cache(maxsize=4)
def _landmark_spec(points: tuple[int, ...] | None) -> CsvSpec:
    """``frame`` and every landmark column; with ``points``, only ``frame``
    and the x/y columns of those points are read."""
    keep = None if points is None else {f"p{i:03d}_{ax}" for i in points for ax in "xy"}
    names = (f"p{i:03d}_{ax}" for i in range(N_POINTS) for ax in "xyz")
    return CsvSpec(
        (Column("frame"),) + tuple(Column(name, read=keep is None or name in keep)
                                   for name in names),
        ragged=lambda r, present: RaggedFrame(r, sum(present[1:]) // 3))


def point_indices(points, n_points: int = N_POINTS) -> list[int]:
    """The distinct ``points`` in ascending order; the first one outside
    ``[0, n_points)`` raises :class:`IndexOutOfRange`."""
    for i in points:
        if not 0 <= int(i) < n_points:
            raise IndexOutOfRange(int(i), n_points)
    return sorted({int(i) for i in points})


def parse_landmark_series(path, participant_id: str = "",
                          expression: str = "", points=None) -> RecordingSeries:
    """Parse one landmark track into a (frames, 478, 3) array.

    A row whose width differs from the header's raises :class:`RaggedFrame`
    with the number of complete points it holds.  With ``points``, only
    ``frame`` and the x/y columns of those points are converted and checked;
    every other cell of ``landmarks`` is NaN.  The header must still name
    all 478 x 3 columns, and every row must still be as wide as the header.
    """
    if points is not None:
        points = tuple(point_indices(points))
    _, block, _ = read_columns(path, _landmark_spec(points))
    n = len(block)
    order = np.argsort(block[:, 0], kind="stable")
    if points is None:
        landmarks = block[order, 1:].reshape(n, N_POINTS, 3)
    else:
        landmarks = np.full((n, N_POINTS, 3), np.nan)
        landmarks[:, list(points), :2] = block[order, 1:].reshape(n, len(points), 2)
    return RecordingSeries(
        participant_id=participant_id,
        expression=expression,
        frame_count=n,
        landmarks=landmarks,
    )


# --- recording ---------------------------------------------------------------

def load_recording(entry: ManifestEntry, base_dir,
                   min_confidence: float | None = None,
                   points=None) -> RecordingSeries:
    """One recording: its AU and landmark tracks, each sorted by frame
    number, AU row ``i`` paired with landmark row ``i``; ``points`` as for
    :func:`parse_landmark_series`.

    Tracks of different lengths raise :class:`LengthMismatch`.  With
    ``min_confidence`` and a confidence column, a frame whose confidence is
    below it is dropped from both tracks, and :class:`DataError` is raised
    when no frame is left.
    """
    base = Path(base_dir)
    au = parse_au_csv(base / entry.au_path, entry.expression, entry.participant_id)
    lm = parse_landmark_series(base / entry.landmark_path,
                               entry.participant_id, entry.expression, points=points)
    if au.frame_count != lm.frame_count:
        raise LengthMismatch(
            f"AU track has {au.frame_count} frames, landmarks {lm.frame_count}")
    keep, n = slice(None), au.frame_count  # a slice takes views, not copies
    if min_confidence is not None and au.confidence is not None:
        keep = au.confidence >= min_confidence
        n = int(np.sum(keep))
        if n == 0:
            raise DataError(
                f"all {au.frame_count} frames fall below confidence {min_confidence}")
    return RecordingSeries(
        participant_id=au.participant_id,
        expression=au.expression,
        frame_count=n,
        au_intensity={k: v[keep] for k, v in au.au_intensity.items()},
        au_activation={k: v[keep] for k, v in au.au_activation.items()},
        landmarks=lm.landmarks[keep],
        confidence=None if au.confidence is None else au.confidence[keep],
    )
