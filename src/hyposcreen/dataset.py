"""Labeled feature tables: in-memory container and csv round-trip."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataError,
    DuplicateEntry,
    MissingCell,
    MissingColumn,
    OutOfRange,
)
from .featurize import featurize_recording, load_index_map
from .ingest import Manifest, cell_float, csv_rows, float_block, load_recording

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
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=np.int64)
        if self.X.ndim != 2:
            raise DataError("feature matrix must be 2-D")
        if self.X.shape[0] != self.y.shape[0]:
            raise DataError("feature matrix and labels disagree on row count")
        if self.X.shape[1] != len(self.feature_names):
            raise DataError("feature matrix and names disagree on column count")
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


def build_feature_table(manifest: Manifest, expressions=None,
                        index_map_path=None,
                        min_confidence: float | None = None) -> LabeledDataset:
    """Featurize every participant in the manifest, in manifest order."""
    index_map = load_index_map(index_map_path)
    names = None
    rows, labels, pids = [], [], []
    demo = {k: [] for k in DEMOGRAPHIC_COLUMNS}
    for pid, entries in manifest.by_participant().items():
        series = {}
        for expr, entry in entries.items():
            series[expr] = load_recording(entry, manifest.base_dir,
                                          min_confidence=min_confidence)
        vec = featurize_recording(series, index_map, expressions=expressions)
        if names is None:
            names = list(vec.values)
        rows.append([vec.values[n] for n in names])
        first = entries[next(iter(entries))]
        labs = {e.label for e in entries.values()}
        if len(labs) != 1:
            raise DataError(f"participant {pid!r} has conflicting labels")
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
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(list(META_COLUMNS) + list(ds.feature_names))
        for i in range(ds.n_rows):
            row = [ds.participant_ids[i], int(ds.y[i])]
            row += [_fmt(ds.demographics[c][i]) for c in DEMOGRAPHIC_COLUMNS]
            row += [repr(float(v)) for v in ds.X[i]]
            w.writerow(row)


def read_feature_table(path) -> LabeledDataset:
    """Read a feature table; columns are found by name, in any order.

    Every column outside :data:`META_COLUMNS` is a feature.  Feature cells are
    converted in one bulk pass; a table that fails it is read again by
    :func:`_table_cells`, which raises for the first bad cell in row order.
    A table whose cells are all good but which lists a participant twice
    raises :class:`DuplicateEntry` for the first id seen again: folds are
    assigned by row, so one participant would sit on both sides of a split.
    """
    with csv_rows(path) as (header, rows):
        pos = {h: i for i, h in enumerate(header)}
        for col in ("participant_id", "label"):
            if col not in pos:
                raise MissingColumn(col)
        meta_set = set(META_COLUMNS)
        feat_cols = [(h, i) for i, h in enumerate(header) if h not in meta_set]
        meta = {c: [] for c in META_COLUMNS}

        def with_meta():
            for r, cells in enumerate(rows):
                _read_meta(cells, r, pos, meta)
                yield cells

        try:
            X = float_block(with_meta(), [i for _, i in feat_cols])
        except DataError:  # a bad meta cell; an earlier feature cell may be bad too
            X = None
    if X is None:
        X, meta = _table_cells(path, pos, feat_cols)
    seen = set()
    for pid in meta["participant_id"]:
        if pid in seen:
            raise DuplicateEntry(pid, "feature-table row")
        seen.add(pid)
    return LabeledDataset(feature_names=[h for h, _ in feat_cols], X=X,
                          y=meta["label"], participant_ids=meta["participant_id"],
                          demographics={c: meta[c] for c in DEMOGRAPHIC_COLUMNS})


def _read_meta(cells, r, pos, meta) -> None:
    """Append row ``r``'s participant id, label and demographics to ``meta``."""
    if pos["participant_id"] >= len(cells):
        raise MissingCell(r, "participant_id")
    meta["participant_id"].append(cells[pos["participant_id"]])
    label = cell_float(cells, r, pos["label"], "label")
    if label not in (0.0, 1.0):
        raise OutOfRange(r, "label", label)
    meta["label"].append(int(label))
    for col in DEMOGRAPHIC_COLUMNS:
        if col not in pos or pos[col] >= len(cells) or cells[pos[col]] == "":
            meta[col].append(None)
        elif col in CONTINUOUS_DEMOGRAPHICS:
            meta[col].append(cell_float(cells, r, pos[col], col))
        else:
            meta[col].append(cells[pos[col]])


def _table_cells(path, pos, feat_cols) -> tuple[np.ndarray, dict]:
    """Cell-by-cell read of a feature table; raises for the first bad cell."""
    meta = {c: [] for c in META_COLUMNS}
    values = []
    with csv_rows(path) as (_, rows):
        for r, cells in enumerate(rows):
            _read_meta(cells, r, pos, meta)
            for name, i in feat_cols:
                values.append(cell_float(cells, r, i, name))
    return np.array(values).reshape(len(meta["label"]), len(feat_cols)), meta
