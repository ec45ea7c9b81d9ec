"""Per-recording feature engineering.

Each participant contributes 42 features per expression: three statistics
(mean, population variance, Shannon entropy) for each of seven action units
and each of seven geometric attributes.  With the three expressions this
yields the full 126-dimensional vector.

AU statistics are computed over active frames only (activation flag set) on
the fixed intensity domain [0, 5]; geometric attributes are iris-normalized
distances summarized over all frames on their observed range.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import (
    DataError,
    DegenerateDomain,
    DegenerateIrisDistance,
    EmptySeries,
    IncompleteExpression,
)
from .ingest import EXPRESSION_AUS, EXPRESSIONS, N_POINTS, RecordingSeries, point_indices

# Geometric attributes in canonical order.
ATTRIBUTES = (
    "right_eye_open",
    "left_eye_open",
    "right_brow_raised",
    "left_brow_raised",
    "mouth_open",
    "mouth_width",
    "jaw_open",
)

STATS = ("mean", "variance", "entropy")

AU_DOMAIN = (0.0, 5.0)
ENTROPY_BINS = 10
IRIS_EPS = 1e-9


# --- entropy ----------------------------------------------------------------

def shannon_entropy(values, domain=None) -> float:
    """Entropy (natural log) of an ``ENTROPY_BINS``-bin equal-width
    histogram of ``values``.

    ``domain=None`` uses the observed min..max (a constant series has zero
    entropy by definition); a ``(lo, hi)`` pair fixes the histogram support,
    with values outside it clipped into the edge bins.  Empty bins contribute
    nothing, so the result lies in [0, ln(ENTROPY_BINS)].
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        raise EmptySeries()
    if domain is None:
        lo, hi = float(np.min(v)), float(np.max(v))
        if lo == hi:
            return 0.0
    else:
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise DegenerateDomain(lo, hi)
    idx = np.floor((v - lo) / (hi - lo) * ENTROPY_BINS).astype(np.int64)
    idx = np.clip(idx, 0, ENTROPY_BINS - 1)
    counts = np.bincount(idx, minlength=ENTROPY_BINS)
    p = counts[counts > 0] / v.size
    return float(-np.sum(p * np.log(p)))


# --- AU statistics ------------------------------------------------------------

@dataclass
class AuStats:
    mean: float
    variance: float
    entropy: float
    n_active: int
    missing: bool  # no active frames; the three statistics default to 0


def au_statistics(intensity, activation) -> AuStats:
    """Summaries of one AU over its active frames on the fixed [0, 5] domain."""
    intensity = np.asarray(intensity, dtype=float)
    activation = np.asarray(activation)
    if intensity.shape != activation.shape:
        raise DataError("intensity and activation lengths differ")
    if intensity.size == 0:
        raise EmptySeries("AU track")
    active = intensity[activation == 1]
    if active.size == 0:
        return AuStats(0.0, 0.0, 0.0, 0, True)
    return AuStats(
        mean=float(np.mean(active)),
        variance=float(np.var(active)),
        entropy=shannon_entropy(active, domain=AU_DOMAIN),
        n_active=int(active.size),
        missing=False,
    )


# --- geometric attributes -----------------------------------------------------

def load_index_map(path=None) -> dict:
    """Read a landmark index map; with no path, the packaged default."""
    if path is None:
        text = resources.files("hyposcreen.data").joinpath(
            "landmark_indices.json").read_text()
    else:
        text = Path(path).read_text()
    doc = json.loads(text)
    for key in ("iris", "attributes"):
        if key not in doc:
            raise DataError(f"index map lacks {key!r}")
    for attr in ATTRIBUTES:
        if attr not in doc["attributes"]:
            raise DataError(f"index map lacks attribute {attr!r}")
    return doc


def used_points(index_map: dict, n_points: int = N_POINTS) -> list[int]:
    """The distinct points the iris and attribute groups of ``index_map``
    name, ascending; the first index outside ``[0, n_points)``, in map
    order, raises :class:`IndexOutOfRange`."""
    used = list(index_map["iris"]["right"]) + list(index_map["iris"]["left"])
    for groups in index_map["attributes"].values():
        used += list(groups[0]) + list(groups[1])
    return point_indices(used, n_points)


def _centroid(xy: np.ndarray, ids) -> np.ndarray:
    return xy[:, list(ids), :].mean(axis=1)


def attribute_series(landmarks: np.ndarray, index_map: dict) -> dict[str, np.ndarray]:
    """Per-frame normalized attribute values from a (frames, points, 3) array.

    Distances use the x/y image plane only and are divided by the per-frame
    iris-center distance, which removes face scale.
    """
    lm = np.asarray(landmarks, dtype=float)
    if lm.ndim != 3 or lm.shape[2] != 3:
        raise DataError("landmarks must have shape (frames, points, 3)")
    used_points(index_map, lm.shape[1])
    xy = lm[:, :, :2]
    iris = _centroid(xy, index_map["iris"]["right"]) - _centroid(
        xy, index_map["iris"]["left"])
    iris_dist = np.linalg.norm(iris, axis=1)
    bad = np.where(iris_dist < IRIS_EPS)[0]
    if bad.size:
        raise DegenerateIrisDistance(float(iris_dist[bad[0]]))

    out = {}
    for attr in ATTRIBUTES:
        a, b = index_map["attributes"][attr]
        delta = _centroid(xy, a) - _centroid(xy, b)
        out[attr] = np.linalg.norm(delta, axis=1) / iris_dist
    return out


def attribute_statistics(values) -> tuple[float, float, float]:
    """(mean, population variance, observed-range entropy) of one attribute."""
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise EmptySeries("attribute series")
    return (float(np.mean(v)), float(np.var(v)),
            shannon_entropy(v))


# --- assembly ------------------------------------------------------------------

@dataclass
class FeatureVector:
    participant_id: str
    values: dict[str, float]  # insertion order is the canonical order
    expressions: tuple[str, ...]
    missing: list[str] = field(default_factory=list)  # AUs with no active frames


def canonical_expressions(expressions=None) -> tuple[str, ...]:
    if expressions is None:
        return EXPRESSIONS
    subset = tuple(e for e in EXPRESSIONS if e in set(expressions))
    if not subset:
        raise DataError(f"no valid expressions in {expressions!r}")
    return subset


def feature_names(expressions=None) -> list[str]:
    """Canonical feature-column order: 42 names per requested expression."""
    out = []
    for expr in canonical_expressions(expressions):
        for au in EXPRESSION_AUS[expr]:
            out.extend(f"{expr}_au_{au}_{s}" for s in STATS)
        for attr in ATTRIBUTES:
            out.extend(f"{expr}_lm_{attr}_{s}" for s in STATS)
    return out


def featurize_recording(series_by_expression: dict[str, RecordingSeries],
                        index_map: dict | None = None,
                        expressions=None) -> FeatureVector:
    """Assemble one participant's feature vector from their recordings."""
    if index_map is None:
        index_map = load_index_map()
    exprs = canonical_expressions(expressions)
    values: dict[str, float] = {}
    missing: list[str] = []
    pid = ""
    for expr in exprs:
        series = series_by_expression.get(expr)
        if series is None:
            raise IncompleteExpression(expr, "no recording")
        pid = pid or series.participant_id
        for au in EXPRESSION_AUS[expr]:
            if au not in series.au_intensity:
                raise IncompleteExpression(expr, f"AU track {au} missing")
            st = au_statistics(series.au_intensity[au], series.au_activation[au])
            if st.missing:
                missing.append(f"{expr}_au_{au}")
            values[f"{expr}_au_{au}_mean"] = st.mean
            values[f"{expr}_au_{au}_variance"] = st.variance
            values[f"{expr}_au_{au}_entropy"] = st.entropy
        if series.landmarks is None:
            raise IncompleteExpression(expr, "no landmark track")
        attrs = attribute_series(series.landmarks, index_map)
        for attr in ATTRIBUTES:
            m, v, h = attribute_statistics(attrs[attr])
            values[f"{expr}_lm_{attr}_mean"] = m
            values[f"{expr}_lm_{attr}_variance"] = v
            values[f"{expr}_lm_{attr}_entropy"] = h
    return FeatureVector(participant_id=pid, values=values,
                         expressions=exprs, missing=missing)
