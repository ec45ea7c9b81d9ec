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

from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import (
    DataError,
    DegenerateDomain,
    DegenerateIrisDistance,
    EmptySeries,
    IncompleteExpression,
)
from .ingest import EXPRESSION_AUS, EXPRESSIONS, N_POINTS, RecordingSeries, point_indices
from .util import read_json

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

    @property
    def missing(self) -> bool:
        """No active frames: the three statistics default to 0."""
        return self.n_active == 0


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
        return AuStats(0.0, 0.0, 0.0, 0)
    return AuStats(
        mean=float(np.mean(active)),
        variance=float(np.var(active)),
        entropy=shannon_entropy(active, domain=AU_DOMAIN),
        n_active=int(active.size),
    )


# --- geometric attributes -----------------------------------------------------

def _point_lists(groups) -> bool:
    """True when ``groups`` is a pair of non-empty lists of integers."""
    return isinstance(groups, list) and len(groups) == 2 and all(
        isinstance(g, list) and g and all(type(i) is int for i in g) for g in groups)


def load_index_map(path=None) -> dict:
    """Read a landmark index map; with no path, the packaged default.

    ``iris`` must hold ``right`` and ``left`` lists of point indices, and
    ``attributes`` a pair of such lists for every attribute, or
    :class:`DataError` names the key; :func:`used_points` checks the ranges.
    """
    if path is None:
        path = resources.files("hyposcreen.data").joinpath("landmark_indices.json")
    doc = read_json(path, "index map")
    iris, attributes = ((doc.get("iris"), doc.get("attributes"))
                        if isinstance(doc, dict) else (None, None))
    if not (isinstance(iris, dict)
            and _point_lists([iris.get("right"), iris.get("left")])):
        raise DataError(f"index map 'iris' must hold 'right' and 'left' lists "
                        f"of point indices, got {iris!r}")
    if not isinstance(attributes, dict):
        raise DataError(f"index map 'attributes' must be an object, got {attributes!r}")
    for attr in dict.fromkeys(ATTRIBUTES + tuple(attributes)):
        if not _point_lists(attributes.get(attr)):
            raise DataError(f"index map attribute {attr!r} must be a pair of lists "
                            f"of point indices, got {attributes.get(attr)!r}")
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
    """``expressions`` in canonical order, all three for None; a name that
    is not an expression, or none at all, raises :class:`DataError`."""
    if expressions is None:
        return EXPRESSIONS
    unknown = [e for e in expressions if e not in EXPRESSIONS]
    if unknown:
        raise DataError(f"unknown expressions {unknown}; expected names from "
                        f"{list(EXPRESSIONS)}")
    wanted = set(expressions)
    if not wanted:
        raise DataError("no expressions requested")
    return tuple(e for e in EXPRESSIONS if e in wanted)


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
    stats: list[float] = []  # (mean, variance, entropy) per track, in name order
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
            stats += (st.mean, st.variance, st.entropy)
        if series.landmarks is None:
            raise IncompleteExpression(expr, "no landmark track")
        attrs = attribute_series(series.landmarks, index_map)
        for attr in ATTRIBUTES:
            stats += attribute_statistics(attrs[attr])
    return FeatureVector(participant_id=pid,
                         values=dict(zip(feature_names(exprs), stats, strict=True)),
                         expressions=exprs, missing=missing)
