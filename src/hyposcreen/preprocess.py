"""Train-fitted scaling, minority oversampling, and stratified fold plans.

Scalers are fit on training rows only and applied unchanged elsewhere; test
values are never clamped, so out-of-range inputs map outside [0, 1].  The
oversampler interpolates strictly between a minority row and one of its
k nearest minority neighbours, as in classic SMOTE.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClassTooSmall,
    DataError,
    EmptyMatrix,
    SingleClass,
    TooFewMinority,
    WidthMismatch,
)
from .util import require_finite

SCALER_KINDS = ("minmax", "standard", "none")


@dataclass
class FittedScaler:
    """Per-column parameters, in the column order of the matrix it was fit
    on; the feature names travel with the artifact, not the scaler."""

    kind: str
    # minmax: lo/hi; standard: lo=mean, hi=population sd; none: lo=0, hi=1.
    lo: np.ndarray
    hi: np.ndarray

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lo": [float(v) for v in self.lo],
            "hi": [float(v) for v in self.hi],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FittedScaler":
        return cls(kind=d["kind"], lo=np.array(d["lo"], dtype=float),
                   hi=np.array(d["hi"], dtype=float))

    def restrict(self, columns) -> "FittedScaler":
        """Keep the parameters of the columns at ``columns`` (after selection)."""
        return FittedScaler(kind=self.kind, lo=self.lo[columns], hi=self.hi[columns])


def fit_scaler(kind: str, X: np.ndarray, feature_names) -> FittedScaler:
    if kind not in SCALER_KINDS:
        raise DataError(f"unknown scaler kind {kind!r}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyMatrix()
    if X.shape[1] != len(feature_names):
        raise WidthMismatch(len(feature_names), X.shape[1])
    require_finite(X, feature_names)
    if kind == "minmax":
        lo, hi = X.min(axis=0), X.max(axis=0)
    elif kind == "standard":
        lo, hi = X.mean(axis=0), X.std(axis=0)  # population sd
    else:
        lo = np.zeros(X.shape[1])
        hi = np.ones(X.shape[1])
    return FittedScaler(kind=kind, lo=lo, hi=hi)


def apply_scaler(scaler: FittedScaler, X: np.ndarray) -> np.ndarray:
    """Transform with train-time parameters; constant columns map to 0."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != scaler.lo.size:
        raise WidthMismatch(scaler.lo.size, X.shape[1])
    scale = scaler.hi - scaler.lo if scaler.kind == "minmax" else scaler.hi
    out = (X - scaler.lo) / np.where(scale == 0.0, 1.0, scale)
    out[:, scale == 0.0] = 0.0
    return out


# --- SMOTE ---------------------------------------------------------------------

def smote_oversample(minority: np.ndarray, majority_count: int,
                     k_neighbors: int, seed: int) -> np.ndarray:
    """Synthesize ``majority_count - len(minority)`` rows between neighbours.

    Each synthetic row is ``x + u * (nn - x)`` with ``u ~ U[0, 1]`` and ``nn``
    one of the k nearest minority neighbours of ``x`` (k shrinks to
    ``len(minority) - 1`` when the class is small).  Deterministic per seed.
    """
    X = np.asarray(minority, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyMatrix()
    n_min = X.shape[0]
    if n_min < 2:
        raise TooFewMinority(n_min, "")
    if k_neighbors < 1:
        raise DataError("k_neighbors must be >= 1")
    n_syn = int(majority_count) - n_min
    if n_syn <= 0:
        return np.empty((0, X.shape[1]))

    k = min(k_neighbors, n_min - 1)
    d2 = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=2)
    np.fill_diagonal(d2, np.inf)
    # stable ordering keeps neighbour choice deterministic under ties
    nn = np.argsort(d2, axis=1, kind="stable")[:, :k]

    rng = np.random.default_rng(seed)
    order = rng.permutation(n_min)
    out = np.empty((n_syn, X.shape[1]))
    for t in range(n_syn):
        i = order[t % n_min]
        j = nn[i, rng.integers(k)]
        u = rng.random()
        out[t] = X[i] + u * (X[j] - X[i])
    return out


def balance_training_set(X: np.ndarray, y: np.ndarray, k_neighbors: int, seed: int):
    """Oversample the minority class up to the majority count.

    Returns ``(X_aug, y_aug, n_synthetic)``; synthetic rows are appended after
    the originals so callers can tag their provenance.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2:
        raise SingleClass()
    minority_label = classes[np.argmin(counts)]
    majority = int(counts.max())
    if counts.min() == majority:
        return X, y, 0
    syn = smote_oversample(X[y == minority_label], majority, k_neighbors, seed)
    X_aug = np.vstack([X, syn])
    y_aug = np.concatenate([y, np.full(len(syn), minority_label, dtype=y.dtype)])
    return X_aug, y_aug, len(syn)


# --- stratified folds -------------------------------------------------------------

@dataclass
class FoldPlan:
    k: int
    seed: int
    assignments: np.ndarray = field(default=None)  # fold index per row

    def fold_indices(self, fold: int):
        eval_idx = np.where(self.assignments == fold)[0]
        train_idx = np.where(self.assignments != fold)[0]
        return train_idx, eval_idx

    def to_dict(self) -> dict:
        return {"k": self.k, "seed": self.seed,
                "assignments": [int(a) for a in self.assignments]}


def stratified_kfold(y: np.ndarray, k: int, seed: int) -> FoldPlan:
    """Assign rows to k folds, preserving class balance per fold.

    Within each class the rows are shuffled once (seeded) and dealt
    round-robin, so every fold's class count is within one row of perfect
    proportionality.
    """
    y = np.asarray(y)
    if k < 2:
        raise DataError(f"need at least 2 folds, got {k}")
    if y.size == 0:
        raise EmptyMatrix()
    rng = np.random.default_rng(seed)
    assignments = np.full(y.shape[0], -1, dtype=np.int64)
    # with return_counts: the bare np.unique imports numpy.ma on first use
    for label, count in zip(*np.unique(y, return_counts=True)):
        if count < k:
            raise ClassTooSmall(label.item(), int(count), k, "k", "")
        idx = np.where(y == label)[0]
        idx = idx[rng.permutation(idx.size)]
        assignments[idx] = np.arange(idx.size) % k
    return FoldPlan(k=k, seed=seed, assignments=assignments)


def train_counts(counts, k: int) -> np.ndarray:
    """Rows of each class in each fold's training split under
    :func:`stratified_kfold`, as a ``(k, classes)`` array.  Fold ``j`` is
    dealt ``ceil((c - j) / k)`` of a class's ``c`` rows whatever the seed:
    the seed only shuffles which rows each class deals round-robin."""
    j = np.arange(k)[:, None]
    return counts - (counts - j + k - 1) // k
