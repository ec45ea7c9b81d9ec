"""Quantile binning of feature matrices for the booster, which finds each
split by scanning a node's rows presorted by bin code (see ``histboost``)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ArtifactError, DataError, EmptyMatrix, WidthMismatch
from ..util import require_finite


@dataclass(eq=False)
class BinMapper:
    """Per-feature ascending thresholds; feature f has len(thresholds[f]) + 1 bins."""

    thresholds: list
    max_bins: int

    def to_dict(self) -> dict:
        # max_bins is the booster's, stored with its other parameters
        return {"thresholds": [t.tolist() for t in self.thresholds]}

    def key(self) -> tuple:
        """Equal for mappers with equal ``max_bins`` and thresholds, which
        bin every matrix alike."""
        return self.max_bins, tuple(t.tobytes() for t in self.thresholds)

    @classmethod
    def from_dict(cls, d: dict, max_bins: int) -> "BinMapper":
        """The mapper of a loaded artifact.  Each feature's thresholds must
        be finite, rise strictly and number fewer than ``max_bins``, or
        :class:`ArtifactError` is raised: a NaN or a descending pair bins
        rows where no training row went, and past 255 thresholds the uint8
        codes wrap."""
        thresholds = [np.array(t, dtype=float) for t in d["thresholds"]]
        for f, t in enumerate(thresholds):
            if t.ndim != 1 or t.size >= max_bins or not (
                    np.isfinite(t).all() and (t[1:] > t[:-1]).all()):
                raise ArtifactError(f"bins.thresholds[{f}] must be fewer than "
                                    f"max_bins={max_bins} finite numbers in strictly "
                                    f"increasing order")
        return cls(thresholds=thresholds, max_bins=max_bins)


def fit_bins(X, max_bins: int) -> BinMapper:
    """Thresholds at midpoints of distinct values, or at empirical quantiles
    of the distinct values once a feature exceeds ``max_bins`` of them.

    One sort of the transposed matrix serves every column: a threshold sits
    wherever a sorted value differs from the one before it, halfway between
    the two.  A non-finite cell raises :class:`OutOfRange`.
    """
    if not 2 <= max_bins <= 255:
        raise DataError(f"max_bins must be in [2, 255], got {max_bins}")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyMatrix()
    require_finite(X, range(X.shape[1]))
    S = X.T.copy()  # a copy even where X.T is already contiguous (one column)
    S.sort(axis=1)
    step = S[:, 1:] != S[:, :-1]
    mids = ((S[:, 1:] + S[:, :-1]) / 2.0)[step]  # row-major: column by column
    ends = step.sum(axis=1).cumsum().tolist()
    thresholds = [mids[a:b] for a, b in zip([0] + ends, ends)]
    for f, t in enumerate(thresholds):
        m = t.size + 1
        if m > max_bins:
            # the ranks rise by at least m // max_bins >= 1 a step: all distinct
            ranks = (np.arange(1, max_bins) * m) // max_bins
            thresholds[f] = t[ranks - 1]
    return BinMapper(thresholds=thresholds, max_bins=max_bins)


def bin_matrix(mapper: BinMapper, X) -> np.ndarray:
    """Map raw values to bin indices; a value equal to a threshold bins left."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != len(mapper.thresholds):
        raise WidthMismatch(len(mapper.thresholds), X.shape[1])
    out = np.empty(X.shape, dtype=np.uint8)
    for f, thr in enumerate(mapper.thresholds):
        out[:, f] = thr.searchsorted(X[:, f], side="left")  # no np.* wrapper
    return out
