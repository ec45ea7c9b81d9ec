"""Classification metrics, ROC/AUROC, bootstrap CIs.

A metric whose denominator is zero is reported as ``None`` (JSON null), never
as 0.  ``ensemble.run_cross_validation`` reports them pooled over the
out-of-fold scores, its primary readout, and as per-fold means.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DataError, SingleClass
from .preprocess import stratified_kfold  # noqa: F401 - unused; perfbench/trace_cli.py wraps it
from .util import require_binary, require_finite

METRIC_KEYS = ("accuracy", "sensitivity", "specificity", "ppv", "npv", "f1", "auroc")
BOOTSTRAP_LEVEL = 0.95  # coverage of the percentile interval over seeds


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int
    threshold: float

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion_counts(scores, labels, threshold: float) -> ConfusionCounts:
    """Counts at a fixed threshold; a row is called positive when
    ``score >= threshold``.  A label other than 0 or 1 raises
    :class:`OutOfRange`."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape[0] != labels.shape[0]:
        raise DataError("scores and labels differ in length")
    require_binary(labels)
    if scores.shape[0] == 0:
        raise DataError("no rows to score")
    pred = scores >= threshold
    pos = labels == 1
    return ConfusionCounts(
        tp=int(np.sum(pred & pos)),
        fp=int(np.sum(pred & ~pos)),
        tn=int(np.sum(~pred & ~pos)),
        fn=int(np.sum(~pred & pos)),
        threshold=float(threshold),
    )


def _ratio(num: int, den: int):
    return None if den == 0 else num / den


def classification_metrics(counts: ConfusionCounts) -> dict:
    sens = _ratio(counts.tp, counts.tp + counts.fn)
    spec = _ratio(counts.tn, counts.tn + counts.fp)
    ppv = _ratio(counts.tp, counts.tp + counts.fp)
    npv = _ratio(counts.tn, counts.tn + counts.fn)
    if ppv is None or sens is None or (ppv + sens) == 0:
        f1 = None
    else:
        f1 = 2 * ppv * sens / (ppv + sens)
    return {
        "accuracy": _ratio(counts.tp + counts.tn, counts.n),
        "sensitivity": sens,
        "specificity": spec,
        "ppv": ppv,
        "npv": npv,
        "f1": f1,
    }


# --- ROC -----------------------------------------------------------------------

def roc_curve(scores, labels) -> list:
    """(fpr, tpr, threshold) points from (0,0) to (1,1), one step per unique
    score, descending.  Tied scores collapse into a single point, whose
    threshold is the first of the tied scores in the stable descending
    order.  A non-finite score or a label other than 0 or 1 raises
    :class:`OutOfRange`."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    require_finite(scores[:, None], ["score"])
    require_binary(labels)
    pos_total = int(np.sum(labels == 1))
    neg_total = int(np.sum(labels != 1))
    if pos_total == 0 or neg_total == 0:
        raise SingleClass()
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    ends = np.append(np.flatnonzero(s[1:] != s[:-1]), s.shape[0] - 1)
    starts = np.append(0, ends[:-1] + 1)
    tp = np.cumsum(labels[order] == 1)[ends]
    fp = ends + 1 - tp
    return [(0.0, 0.0, float("inf"))] + list(zip(
        (fp / neg_total).tolist(), (tp / pos_total).tolist(), s[starts].tolist()))


def auroc_from_points(points) -> float:
    area = 0.0
    for (x0, y0, _), (x1, y1, _) in zip(points[:-1], points[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return float(area)


def auroc(scores, labels) -> float:
    """Trapezoidal area under the tie-collapsed ROC polyline."""
    return auroc_from_points(roc_curve(scores, labels))


# --- bootstrap ---------------------------------------------------------------------

def percentile_interval(values) -> tuple:
    """95% percentile interval, interpolating between order statistics.

    It is ``np.percentile``'s default (linear) method step by step, with
    the same partition, so it has its bits, signed zeros included.  It is
    written out because ``np.percentile`` imports ``numpy.ma`` on first use
    (about 12 ms of import on a 2-vCPU host), which nothing else that
    ``cv`` runs needs.
    """
    v = np.asarray(values, dtype=float).flatten()
    if v.size == 0:
        raise DataError("no values to summarize")
    alpha = (1.0 - BOOTSTRAP_LEVEL) / 2.0 * 100.0
    at = (v.size - 1) * (np.array([alpha, 100.0 - alpha]) / 100)
    below = np.floor(at)
    last = at >= v.size - 1  # only with one value: both ends read it
    i = np.where(last, -1, below).astype(np.intp)
    j = np.where(last, -1, below + 1).astype(np.intp)
    v.partition(sorted({0, -1, *i.tolist(), *j.tolist()}))
    if np.isnan(v[-1]):  # a nan sorts last and makes both ends nan
        return float("nan"), float("nan")
    t = at - i
    a, b = v[i], v[j]
    d = b - a
    lo, hi = np.where(t >= 0.5, b - d * (1 - t), a + d * t)
    return float(lo), float(hi)


@dataclass
class BootstrapSummary:
    n_seeds: int
    level: float
    metrics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def summarize_bootstrap(per_seed_metrics: list) -> BootstrapSummary:
    """Aggregate per-seed metric dicts into mean, percentile CI, half-width."""
    if not per_seed_metrics:
        raise DataError("no per-seed metrics to summarize")
    out = BootstrapSummary(n_seeds=len(per_seed_metrics), level=BOOTSTRAP_LEVEL)
    keys = per_seed_metrics[0].keys()
    for key in keys:
        vals = [m[key] for m in per_seed_metrics if m.get(key) is not None]
        if not vals:
            out.metrics[key] = None
            continue
        lo, hi = percentile_interval(vals)
        out.metrics[key] = {
            "mean": float(np.mean(vals)),
            "ci_lo": lo,
            "ci_hi": hi,
            "half_width": (hi - lo) / 2.0,
            "n_defined": len(vals),
        }
    return out
