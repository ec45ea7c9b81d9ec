"""Labeled feature tables: in-memory container and csv round-trip."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DuplicateEntry
from .featurize import (
    canonical_expressions,
    feature_names,
    featurize_recording,
    load_index_map,
    used_points,
)
from .ingest import (
    EXPRESSIONS,
    Column,
    CsvSpec,
    Manifest,
    is_binary,
    load_recording,
    read_columns,
)
from .util import open_output, require_binary, require_finite

META_COLUMNS = ("participant_id", "label", "cohort", "sex", "age",
                "ethnicity", "disease_duration")
DEMOGRAPHIC_COLUMNS = ("cohort", "sex", "age", "ethnicity", "disease_duration")
CONTINUOUS_DEMOGRAPHICS = ("age", "disease_duration")


@dataclass(eq=False)
class LabeledDataset:
    """One row per participant: features, binary label, demographics."""

    feature_names: list[str]
    X: np.ndarray  # (n, d) float
    y: np.ndarray  # (n,) int, 1 = case
    participant_ids: list[str]
    demographics: dict[str, list] = field(default_factory=dict)

    def __post_init__(self):
        """A non-finite cell or a label outside {0, 1} raises
        :class:`OutOfRange`, an id listed twice :class:`DuplicateEntry`."""
        self.X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y)
        if self.X.ndim != 2:
            raise DataError("feature matrix must be 2-D")
        if self.X.shape[0] != y.shape[0]:
            raise DataError("feature matrix and labels disagree on row count")
        if self.X.shape[0] != len(self.participant_ids):
            raise DataError("feature matrix and participant ids disagree on row count")
        if self.X.shape[1] != len(self.feature_names):
            raise DataError("feature matrix and names disagree on column count")
        require_finite(self.X, self.feature_names)
        require_binary(y)
        self.y = y.astype(np.int64)
        seen = set()
        for pid in self.participant_ids:
            if pid in seen:
                raise DuplicateEntry(pid, "participant id")
            seen.add(pid)
        for col in DEMOGRAPHIC_COLUMNS:
            self.demographics.setdefault(col, [None] * len(self.y))

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    def subset(self, rows) -> "LabeledDataset":
        rows = np.asarray(rows)
        return LabeledDataset(
            feature_names=list(self.feature_names),
            X=self.X[rows],
            y=self.y[rows],
            participant_ids=[self.participant_ids[i] for i in rows],
            demographics={k: [v[i] for i in rows]
                          for k, v in self.demographics.items()},
        )

    def column_subset(self, names) -> "LabeledDataset":
        idx = [self.feature_names.index(n) for n in names]
        return LabeledDataset(
            feature_names=list(names),
            X=self.X[:, idx],
            y=self.y,
            participant_ids=list(self.participant_ids),
            demographics={k: list(v) for k, v in self.demographics.items()},
        )


def expression_columns(feature_cols) -> dict:
    """Map expression -> its columns, for tables with canonical names."""
    out = {}
    for expr in EXPRESSIONS:
        cols = [c for c in feature_cols if c.startswith(expr + "_")]
        if cols:
            out[expr] = cols
    return out


def select_expressions(ds: LabeledDataset, expressions) -> LabeledDataset:
    """``ds`` reduced to the canonical columns of ``expressions``, or ``ds``
    itself when it holds exactly those.  A table without canonical names
    passes through untouched when all three are listed; with fewer, there
    is nothing to subset, and it raises :class:`DataError`."""
    wanted = feature_names(expressions)
    if ds.feature_names == wanted:
        return ds
    if not expression_columns(ds.feature_names):
        if set(expressions) != set(EXPRESSIONS):
            raise DataError(f"expressions {expressions} select columns by their "
                            f"expression prefix, but no feature column of the "
                            f"table starts with one of {list(EXPRESSIONS)}")
        return ds
    missing = [c for c in wanted if c not in ds.feature_names]
    if missing:
        raise DataError(f"table lacks expected feature columns {missing[:3]}...")
    return ds.column_subset(wanted)


def build_feature_table(manifest: Manifest, expressions=None,
                        index_map_path=None,
                        min_confidence: float | None = None) -> LabeledDataset:
    """Featurize every participant in the manifest, in manifest order.

    Only the recordings of the requested ``expressions`` are read, and of
    their landmark tracks only the x/y columns of the index map's points.
    Labels and demographics come from the manifest: a participant whose
    entries disagree on the label or on a demographic, an absent one read as
    None, raises :class:`DataError` naming the field, whichever expressions
    are requested.
    """
    index_map = load_index_map(index_map_path)
    points = used_points(index_map)
    expressions = canonical_expressions(expressions)
    names = feature_names(expressions)
    rows, labels, pids = [], [], []
    demo = {k: [] for k in DEMOGRAPHIC_COLUMNS}
    for pid, entries in manifest.by_participant().items():
        series = {expr: load_recording(entry, manifest.base_dir,
                                       min_confidence=min_confidence, points=points)
                  for expr, entry in entries.items() if expr in expressions}
        vec = featurize_recording(series, index_map, expressions=expressions)
        rows.append([vec.values[n] for n in names])
        first, *others = entries.values()
        for col in ("label",) + DEMOGRAPHIC_COLUMNS:
            if any(getattr(e, col) != getattr(first, col) for e in others):
                raise DataError(f"participant {pid!r} has entries that disagree "
                                f"on {col!r}")
        labels.append(first.label)
        pids.append(pid)
        for col in DEMOGRAPHIC_COLUMNS:
            demo[col].append(getattr(first, col))
    if not rows:
        raise DataError("manifest contains no participants")
    return LabeledDataset(feature_names=names, X=np.array(rows),
                          y=np.array(labels), participant_ids=pids,
                          demographics=demo)


# --- csv round-trip -----------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def write_feature_table(ds: LabeledDataset, path) -> None:
    """Deterministic csv: the seven metadata columns, then features."""
    with open_output(path, newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(META_COLUMNS) + list(ds.feature_names))
        for i in range(ds.n_rows):
            row = [ds.participant_ids[i], int(ds.y[i])]
            row += [_fmt(ds.demographics[c][i]) for c in DEMOGRAPHIC_COLUMNS]
            row += [repr(float(v)) for v in ds.X[i]]
            w.writerow(row)


_TABLE_COLUMNS = (
    (Column("participant_id", number=False, unique="feature-table row"),
     Column("label", rule=is_binary))
    + tuple(Column(c, number=c in CONTINUOUS_DEMOGRAPHICS, optional=True,
                   blank=True) for c in DEMOGRAPHIC_COLUMNS))


def read_feature_table(path, features=None) -> LabeledDataset:
    """Read a feature table; columns are found by name, in any order.

    Every column outside :data:`META_COLUMNS` is a feature.  With
    ``features``, only those feature columns are converted and checked, and
    the dataset holds only those present, in header order; every other
    feature column must still be in the header and reached by every row,
    but its cells are not read.  A row wider than the header raises
    :class:`WideRow`.  A table whose cells are all good but which lists a
    participant twice raises :class:`DuplicateEntry` for the first id seen
    again: folds are assigned by row, so one participant would sit on both
    sides of a split.
    """
    read = None if features is None else set(features)
    spec = CsvSpec(_TABLE_COLUMNS, rest=lambda name: read is None or name in read)
    names, block, cells = read_columns(path, spec)
    return LabeledDataset(
        feature_names=names[1:], X=np.ascontiguousarray(block[:, 1:]),
        y=block[:, 0].astype(np.int64), participant_ids=cells["participant_id"],
        demographics={c: cells.get(c, [None] * len(block))
                      for c in DEMOGRAPHIC_COLUMNS})
