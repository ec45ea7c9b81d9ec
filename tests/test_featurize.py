import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyposcreen.errors import (
    DataError,
    DegenerateDomain,
    DegenerateIrisDistance,
    EmptySeries,
    IncompleteExpression,
    IndexOutOfRange,
)
from hyposcreen.featurize import (
    ATTRIBUTES,
    STATS,
    attribute_series,
    attribute_statistics,
    au_statistics,
    canonical_expressions,
    feature_names,
    featurize_recording,
    load_index_map,
    shannon_entropy,
)
from hyposcreen.ingest import EXPRESSION_AUS, EXPRESSIONS, RecordingSeries


def entropy_oracle(values, bins, lo, hi):
    """Independent floor-indexed histogram entropy for cross-checking."""
    counts = [0] * bins
    for v in values:
        i = int(math.floor((v - lo) / (hi - lo) * bins))
        counts[min(max(i, 0), bins - 1)] += 1
    n = len(values)
    return -sum((c / n) * math.log(c / n) for c in counts if c)


def test_entropy_matches_oracle_over_random_series():
    rng = np.random.default_rng(11)
    for trial in range(100):
        n = int(rng.integers(2, 200))
        v = rng.uniform(-3, 7, size=n)
        lo, hi = float(v.min()), float(v.max())
        if lo == hi:
            continue
        got = shannon_entropy(v)
        assert abs(got - entropy_oracle(v, 10, lo, hi)) < 1e-12
        got_fixed = shannon_entropy(v, domain=(-3.0, 7.0))
        assert abs(got_fixed - entropy_oracle(v, 10, -3.0, 7.0)) < 1e-12


def test_entropy_frozen_values():
    # two equally-filled bins
    assert math.isclose(shannon_entropy([1.0, 5.0] * 8, domain=(0.0, 5.0)),
                        math.log(2.0), rel_tol=1e-12)
    # 0..9 over its observed range lands one value per bin
    assert math.isclose(shannon_entropy(np.arange(10.0)), math.log(10.0),
                        rel_tol=1e-12)
    # constant series carries no information
    assert shannon_entropy([2.5] * 6) == 0.0
    # upper-edge value falls in the last bin, not out of range
    one_bin = shannon_entropy([5.0, 5.0], domain=(0.0, 5.0))
    assert one_bin == 0.0
    # out-of-domain values clip into the edge bins
    assert math.isclose(shannon_entropy([-1.0, 9.9], domain=(0.0, 5.0)),
                        math.log(2.0), rel_tol=1e-12)


def test_entropy_bounds_and_errors():
    rng = np.random.default_rng(12)
    v = rng.uniform(0, 5, size=50)
    h = shannon_entropy(v)
    assert 0.0 <= h <= math.log(10.0) + 1e-12
    with pytest.raises(EmptySeries):
        shannon_entropy([])
    with pytest.raises(DegenerateDomain):
        shannon_entropy([1.0, 2.0], domain=(3.0, 3.0))


def test_entropy_is_permutation_invariant():
    rng = np.random.default_rng(13)
    v = rng.uniform(0, 5, size=40)
    p = rng.permutation(40)
    assert shannon_entropy(v, domain=(0, 5)) == shannon_entropy(v[p], domain=(0, 5))


def test_au_statistics_worked_example():
    st_ = au_statistics([1.0, 2.0, 3.0], [1, 1, 1])
    assert st_.mean == 2.0
    assert math.isclose(st_.variance, 2.0 / 3.0, rel_tol=1e-12)  # population
    assert st_.n_active == 3
    assert not st_.missing


def test_au_statistics_uses_active_frames_only():
    st_ = au_statistics([1.0, 2.0, 3.0, 4.9], [1, 1, 1, 0])
    assert st_.mean == 2.0
    assert st_.n_active == 3


def test_au_statistics_alternating_extremes_entropy():
    st_ = au_statistics([1.0, 5.0] * 10, [1] * 20)
    assert math.isclose(st_.entropy, math.log(2.0), rel_tol=1e-12)


def test_au_statistics_no_active_frames_is_missing_not_error():
    st_ = au_statistics([1.0, 2.0], [0, 0])
    assert st_.missing
    assert (st_.mean, st_.variance, st_.entropy, st_.n_active) == (0, 0, 0, 0)


def test_au_statistics_errors():
    with pytest.raises(EmptySeries):
        au_statistics([], [])
    with pytest.raises(DataError):
        au_statistics([1.0], [1, 0])


def test_attribute_statistics_matches_numpy():
    rng = np.random.default_rng(14)
    v = rng.uniform(0.2, 0.9, size=60)
    m, var, h = attribute_statistics(v)
    assert math.isclose(m, float(np.mean(v)), rel_tol=1e-12)
    assert math.isclose(var, float(np.var(v)), rel_tol=1e-12)  # ddof=0
    assert math.isclose(h, entropy_oracle(v, 10, v.min(), v.max()), abs_tol=1e-12)


def _blank_landmarks(n_frames, index_map):
    lm = np.zeros((n_frames, 478, 3))
    lm[:, index_map["iris"]["right"], 0] = 2.0  # iris distance 2 along x
    return lm


def test_attribute_series_hand_geometry():
    index_map = load_index_map()
    lm = _blank_landmarks(3, index_map)
    # mouth_open pairs point groups 13 and 14; put them 1 apart vertically
    a, b = index_map["attributes"]["mouth_open"]
    lm[:, a, 1] = 1.0
    # z must be ignored: bury everything at random depths
    lm[:, :, 2] = np.random.default_rng(15).normal(size=(3, 478))
    series = attribute_series(lm, index_map)
    assert np.allclose(series["mouth_open"], 0.5, atol=1e-12)  # 1 / 2
    assert np.allclose(series["jaw_open"], 0.0, atol=1e-12)
    assert set(series) == set(ATTRIBUTES)


def test_attribute_series_centroid_groups():
    # multi-point groups average before measuring the distance
    index_map = {
        "iris": {"right": [0, 1], "left": [2]},
        "attributes": {attr: [[3, 4], [5]] for attr in ATTRIBUTES},
    }
    lm = np.zeros((2, 6, 3))
    lm[:, 0, 0] = 1.0
    lm[:, 1, 0] = 3.0   # right iris centroid x = 2, left at origin
    lm[:, 3, 1] = 2.0
    lm[:, 4, 1] = 4.0   # group centroid y = 3 vs 0 at point 5
    series = attribute_series(lm, index_map)
    assert np.allclose(series["mouth_open"], 1.5, atol=1e-12)  # 3 / 2


def test_attribute_series_degenerate_iris():
    index_map = load_index_map()
    lm = np.zeros((2, 478, 3))
    with pytest.raises(DegenerateIrisDistance):
        attribute_series(lm, index_map)


def test_attribute_series_index_out_of_range():
    index_map = load_index_map()
    lm = _blank_landmarks(2, index_map)
    bad = json.loads(json.dumps(index_map))
    bad["attributes"]["mouth_open"] = [[478], [14]]
    with pytest.raises(IndexOutOfRange):
        attribute_series(lm, bad)


def test_index_map_validation(tmp_path):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"iris": {"right": [0], "left": [1]}}))
    with pytest.raises(DataError):
        load_index_map(path)
    doc = load_index_map()
    assert set(doc["attributes"]) >= set(ATTRIBUTES)
    assert doc["iris"]["right"] == [468, 469, 470, 471, 472]
    assert doc["iris"]["left"] == [473, 474, 475, 476, 477]


def test_feature_name_counts_and_order():
    names = feature_names()
    assert len(names) == 126
    for expr in EXPRESSIONS:
        per = [n for n in names if n.startswith(expr + "_")]
        assert len(per) == 42
    single = feature_names(["smile"])
    assert len(single) == 42
    assert names[:42] == single
    # AU block first (ascending), then attributes, stats innermost
    assert single[0] == "smile_au_AU01_mean"
    assert single[1] == "smile_au_AU01_variance"
    assert single[2] == "smile_au_AU01_entropy"
    assert single[21] == "smile_lm_right_eye_open_mean"
    assert single[-1] == "smile_lm_jaw_open_entropy"
    # requested order never overrides the canonical order
    assert feature_names(["surprise", "smile"]) == feature_names(["smile", "surprise"])
    with pytest.raises(DataError):
        feature_names(["frown"])


def test_canonical_expressions_subset():
    assert canonical_expressions(None) == EXPRESSIONS
    assert canonical_expressions({"surprise", "smile"}) == ("smile", "surprise")


@pytest.mark.parametrize("names, message", [
    (["smile", "frown"], "unknown expressions ['frown']"),
    (["Smile"], "unknown expressions ['Smile']"),
    ([], "no expressions requested"),
])
def test_canonical_expressions_rejects_unknown_names(names, message):
    with pytest.raises(DataError) as err:
        canonical_expressions(names)
    assert str(err.value).startswith(message)


def _series_for(expr, rng, n_frames=30):
    aus = EXPRESSION_AUS[expr]
    index_map = load_index_map()
    lm = _blank_landmarks(n_frames, index_map)
    lm[:, :, :2] += rng.normal(scale=0.05, size=(n_frames, 478, 2))
    return RecordingSeries(
        participant_id="p7",
        expression=expr,
        frame_count=n_frames,
        au_intensity={au: rng.uniform(0, 5, size=n_frames) for au in aus},
        au_activation={au: (rng.random(n_frames) < 0.8).astype(np.uint8)
                       for au in aus},
        landmarks=lm,
    )


def test_featurize_recording_full_vector():
    rng = np.random.default_rng(16)
    series = {expr: _series_for(expr, rng) for expr in EXPRESSIONS}
    vec = featurize_recording(series)
    assert list(vec.values) == feature_names()
    assert vec.participant_id == "p7"
    assert all(math.isfinite(v) for v in vec.values.values())
    # AU feature values come from au_statistics on the same tracks
    smile = series["smile"]
    st_ = au_statistics(smile.au_intensity["AU12"], smile.au_activation["AU12"])
    assert vec.values["smile_au_AU12_mean"] == st_.mean
    assert vec.values["smile_au_AU12_variance"] == st_.variance
    assert vec.values["smile_au_AU12_entropy"] == st_.entropy


def test_featurize_recording_marks_missing_aus():
    rng = np.random.default_rng(17)
    series = {expr: _series_for(expr, rng) for expr in EXPRESSIONS}
    series["smile"].au_activation["AU45"][:] = 0
    vec = featurize_recording(series)
    assert "smile_au_AU45" in vec.missing
    assert vec.values["smile_au_AU45_mean"] == 0.0


def test_featurize_recording_subset_and_errors():
    rng = np.random.default_rng(18)
    series = {expr: _series_for(expr, rng) for expr in EXPRESSIONS}
    vec = featurize_recording(series, expressions=["disgust"])
    assert len(vec.values) == 42
    assert all(n.startswith("disgust_") for n in vec.values)

    with pytest.raises(IncompleteExpression):
        featurize_recording({"smile": series["smile"]})
    broken = {expr: _series_for(expr, rng) for expr in EXPRESSIONS}
    broken["smile"].landmarks = None
    with pytest.raises(IncompleteExpression):
        featurize_recording(broken)
    del broken["smile"].au_intensity["AU12"]
    with pytest.raises(IncompleteExpression):
        featurize_recording(broken)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                min_size=2, max_size=40),
       st.randoms(use_true_random=False))
def test_statistics_permutation_invariance(values, pyrandom):
    perm = list(range(len(values)))
    pyrandom.shuffle(perm)
    shuffled = [values[i] for i in perm]
    a = au_statistics(values, [1] * len(values))
    b = au_statistics(shuffled, [1] * len(values))
    assert math.isclose(a.mean, b.mean, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(a.variance, b.variance, rel_tol=0, abs_tol=1e-12)
    assert a.entropy == b.entropy  # bin counts are order-free
