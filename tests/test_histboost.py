import json
import math
import warnings

import numpy as np
import pytest

from hyposcreen.artifact import (ensemble_predict, input_columns, load_ensemble,
                                 save_ensemble)
from hyposcreen.config import EnsembleConfig, PipelineConfig, SelectionConfig, SmoteConfig
from hyposcreen.dataset import LabeledDataset
from hyposcreen.ensemble import train_pipeline
from hyposcreen.errors import (
    ArtifactError,
    DataError,
    DegenerateParams,
    OutOfRange,
    SingleClass,
)
from hyposcreen.model import histboost
from hyposcreen.model.binning import BinMapper, bin_matrix, fit_bins
from hyposcreen.model.histboost import (
    WALK_PAIRS,
    BoostParams,
    BoostedModel,
    Tree,
    build_histograms,
    fit_histgbm,
    predict_columns,
    predict_proba,
    predict_raw,
)
from hyposcreen.model.logistic import predict_proba_logistic
from hyposcreen.preprocess import apply_scaler
from hyposcreen.util import sigmoid

from split_oracle import (
    best_split_oracle,
    bin_counts,
    boost_oracle,
    grow_tree_oracle,
    log_loss,
    predict_raw_oracle,
    scan_node_oracle,
    tree_outputs,
)


# --- binning -------------------------------------------------------------------

def test_fit_bins_midpoints_when_few_distinct_values():
    X = np.array([[1.0], [3.0], [2.0], [3.0]])
    mapper = fit_bins(X, max_bins=255)
    assert np.allclose(mapper.thresholds[0], [1.5, 2.5])
    assert bin_counts(mapper)[0] == 3


def test_fit_bins_quantile_ranks_balance_counts():
    rng = np.random.default_rng(50)
    n, B = 10000, 64
    X = rng.normal(size=(n, 1))  # all values distinct almost surely
    mapper = fit_bins(X, max_bins=B)
    binned = bin_matrix(mapper, X)
    counts = np.bincount(binned[:, 0], minlength=B)
    # rank thresholds put floor(n/B) or ceil(n/B) rows in every bin
    assert counts.min() >= math.floor(n / B)
    assert counts.max() <= math.ceil(n / B)


def test_fit_bins_with_heavy_ties_matches_sorted_oracle():
    rng = np.random.default_rng(51)
    vals = rng.integers(0, 40, size=3000).astype(float)
    mapper = fit_bins(vals[:, None], max_bins=16)
    d = np.unique(vals)
    ranks = np.unique((np.arange(1, 16) * d.size) // 16)
    assert np.allclose(mapper.thresholds[0], (d[ranks - 1] + d[ranks]) / 2.0)


def _unique_loop_bins(X, max_bins):
    """The per-column ``np.unique`` thresholds that the one-sort fit replaced."""
    thresholds = []
    for f in range(X.shape[1]):
        d = np.unique(X[:, f])
        m = d.size
        if m <= 1:
            thresholds.append(np.empty(0))
        elif m <= max_bins:
            thresholds.append((d[1:] + d[:-1]) / 2.0)
        else:
            ranks = np.unique((np.arange(1, max_bins) * m) // max_bins)
            thresholds.append((d[ranks - 1] + d[ranks]) / 2.0)
    return thresholds


def _bin_oracle_cases(rng):
    n = 300
    yield rng.integers(-5, 6, size=(n, 4)).astype(float)           # heavy ties
    signed_zeros = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(n, 3))
    yield signed_zeros
    yield np.concatenate([np.full((n, 1), 3.5), np.full((n, 1), -0.0),
                          rng.normal(size=(n, 1))], axis=1)       # constant columns
    yield rng.normal(size=(n, 5))                                 # all distinct
    base = rng.normal(size=(1, 3))
    steps = rng.integers(0, 40, size=(n, 3))
    adjacent = base.repeat(n, axis=0)
    for _ in range(40):                                           # neighbouring floats
        adjacent = np.where(steps > 0, np.nextafter(adjacent, np.inf), adjacent)
        steps = steps - 1
    yield adjacent
    yield np.round(rng.normal(size=(n, 3)) * 1e3) / 1e3 * np.array([1.0, 1e-300, 1e300])
    yield rng.normal(size=(1, 4))                                 # one row
    yield np.empty((5, 0))                                        # no columns


def test_one_sort_fit_bins_equals_unique_loop_bit_for_bit():
    rng = np.random.default_rng(59)
    cases = list(_bin_oracle_cases(rng))
    cases.append(rng.normal(size=(50, 1)))                         # X.T is contiguous
    for X in cases:
        X_before = X.copy()
        for max_bins in range(2, 256):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = fit_bins(X, max_bins).thresholds
            want = _unique_loop_bins(X, max_bins)
            assert np.array_equal(X, X_before)   # the input is not sorted in place
            assert len(got) == len(want) == X.shape[1]
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


def test_bin_matrix_value_equal_to_threshold_goes_left():
    mapper = BinMapper(thresholds=[np.array([1.0, 2.0])], max_bins=255)
    X = np.array([[0.5], [1.0], [1.5], [2.0], [2.5]])
    assert bin_matrix(mapper, X)[:, 0].tolist() == [0, 0, 1, 1, 2]


def test_fit_bins_constant_column_and_errors():
    mapper = fit_bins(np.full((5, 1), 2.0), max_bins=255)
    assert bin_counts(mapper)[0] == 1
    assert bin_matrix(mapper, np.array([[7.0]]))[0, 0] == 0
    with pytest.raises(DataError):
        fit_bins(np.zeros((2, 1)), max_bins=1)
    with pytest.raises(DataError):
        fit_bins(np.zeros((0, 1)), max_bins=255)
    for bad in (np.nan, np.inf, -np.inf):
        X = np.zeros((4, 3))
        X[2, 1] = bad
        X[3, 0] = np.nan
        with pytest.raises(OutOfRange) as err:
            fit_bins(X, max_bins=255)
        assert (err.value.row, err.value.col) == (2, 1)


def test_bin_mapper_round_trip():
    rng = np.random.default_rng(52)
    X = rng.normal(size=(100, 3))
    mapper = fit_bins(X, max_bins=32)
    assert list(mapper.to_dict()) == ["thresholds"]  # max_bins is the booster's
    back = BinMapper.from_dict(mapper.to_dict(), 32)
    assert np.array_equal(bin_matrix(back, X), bin_matrix(mapper, X))


# --- histograms -----------------------------------------------------------------

def test_histograms_match_direct_sums_and_subtraction():
    rng = np.random.default_rng(53)
    n, d, stride = 200, 3, 16
    binned = rng.integers(0, stride, size=(n, d)).astype(np.int64)
    g = rng.normal(size=n)
    h = rng.uniform(0.01, 0.25, size=n)
    idx = np.arange(n)
    G, H, C = build_histograms(binned, idx, g, h, stride)
    for f in range(d):
        for b in range(stride):
            rows = binned[:, f] == b
            assert math.isclose(G[f, b], float(g[rows].sum()), abs_tol=1e-10)
            assert math.isclose(H[f, b], float(h[rows].sum()), abs_tol=1e-10)
            assert C[f, b] == float(rows.sum())
    # sibling histogram by subtraction equals direct accumulation
    left = idx[: n // 3]
    right = idx[n // 3:]
    Gl, Hl, Cl = build_histograms(binned, left, g, h, stride)
    Gr, Hr, Cr = build_histograms(binned, right, g, h, stride)
    assert np.allclose(G - Gl, Gr, atol=1e-10)
    assert np.allclose(H - Hl, Hr, atol=1e-10)
    assert np.array_equal(C - Cl, Cr)


# --- single-split oracle ------------------------------------------------------------

def _best_stump_oracle(binned, g, h, n_bins, lam, min_leaf):
    """Exhaustive search over (feature, bin) with the flat tie-break."""
    Gt, Ht = float(g.sum()), float(h.sum())
    parent = Gt * Gt / (Ht + lam)
    best = (-np.inf, None, None)
    for f in range(binned.shape[1]):
        for b in range(n_bins[f] - 1):
            left = binned[:, f] <= b
            nl = int(left.sum())
            if nl < min_leaf or binned.shape[0] - nl < min_leaf:
                continue
            GL, HL = float(g[left].sum()), float(h[left].sum())
            gain = 0.5 * (GL * GL / (HL + lam)
                          + (Gt - GL) ** 2 / (Ht - HL + lam) - parent)
            if gain > best[0] + 1e-12:
                best = (gain, f, b)
    return best


def test_first_split_matches_exhaustive_oracle():
    rng = np.random.default_rng(54)
    for trial in range(25):
        n = int(rng.integers(40, 120))
        d = int(rng.integers(2, 5))
        X = rng.normal(size=(n, d))
        y = (rng.random(n) < sigmoid(X[:, 0] * 1.5)).astype(float)
        if y.min() == y.max():
            continue
        params = BoostParams(n_trees=1, max_leaves=2, min_samples_leaf=5,
                             max_bins=16)
        model = fit_histgbm(X, y, params)
        tree = model.trees[0]

        p0 = sigmoid(np.full(n, model.base_score))
        g = p0 - y
        h = p0 * (1 - p0)
        binned = bin_matrix(model.mapper, X).astype(np.int64)
        gain, f, b = _best_stump_oracle(binned, g, h, bin_counts(model.mapper),
                                        1.0, 5)
        if gain <= 0:
            assert tree.feature[0] == -1
            continue
        assert tree.feature[0] == f
        assert tree.split_bin[0] == b
        # leaf values are the unscaled Newton steps
        left = binned[:, f] <= b
        for rows, node in ((left, tree.left[0]), (~left, tree.right[0])):
            expect = -float(g[rows].sum()) / (float(h[rows].sum()) + 1.0)
            assert math.isclose(tree.value[node], expect, rel_tol=1e-12)
            assert tree.cover[node] == float(rows.sum())


def _presorted(binned, rows=None):
    """Each feature's stable row order by code, shape (d, k), and the codes in
    that order, for the node holding ``rows`` (every row by default): the
    full order with the other rows dropped, as growth derives a child's."""
    order = np.argsort(binned.T, axis=1, kind="stable")
    if rows is not None:
        member = np.zeros(binned.shape[0], dtype=bool)
        member[rows] = True
        order = order[member[order]].reshape(binned.shape[1], len(rows))
    return order, np.take_along_axis(binned.T, order, axis=1)


def _lanes(g, h):
    """The booster's gradient-hessian vector: ``g`` in the real part and
    ``h`` in the imaginary part, each copied exactly."""
    gh = np.empty(g.shape, dtype=complex)
    gh.real, gh.imag = g, h
    return gh


def test_row_scan_split_equals_full_histogram_scan():
    rng = np.random.default_rng(65)
    nodes = splits = at_band_edge = 0
    while nodes < 600:
        n = int(rng.integers(20, 700))
        d = int(rng.integers(1, 8))
        X = rng.normal(size=(n, d))
        if rng.random() < 0.3:
            X = np.round(X, 1)                       # ties between rows
        max_bins = int(rng.integers(2, 256))         # quantile bins when n > max_bins
        mapper = fit_bins(X, max_bins)
        binned = bin_matrix(mapper, X)
        if rng.random() < 0.3:                       # two-valued gradients
            y = (rng.random(n) < 0.4).astype(float)
            p0 = float(rng.uniform(0.2, 0.8))
            g, h = p0 - y, np.full(n, p0 * (1.0 - p0))
        else:
            p = rng.uniform(0.02, 0.98, size=n)
            g, h = p - (rng.random(n) < p), p * (1.0 - p)
        gh = _lanes(g, h)
        for _ in range(10):
            k = int(rng.integers(2, n + 1))
            rows = np.sort(rng.choice(n, size=k, replace=False))
            min_leaf = int(rng.integers(1, k // 2 + 1))
            if rng.random() < 0.2:
                min_leaf = k // 2
                rows = rows[:2 * min_leaf]
            at_band_edge += rows.size == 2 * min_leaf
            order, codes = _presorted(binned, rows)
            got = histboost._scan_node(gh, order, codes, float(np.sum(g[rows])),
                                       float(np.sum(h[rows])), min_leaf)
            want = best_split_oracle(binned, rows, g, h, bin_counts(mapper), min_leaf)
            nodes += 1
            if want is None:
                assert got is None
                continue
            splits += 1
            gain, f, n_left = got
            assert (f, int(codes[f, n_left - 1])) == want[1:]
            assert np.count_nonzero(binned[rows, f] <= want[2]) == n_left
            assert math.isclose(gain, want[0], rel_tol=1e-12)
    assert splits >= 300 and at_band_edge >= 50


def test_complex_scan_equals_the_two_float_lane_scan_bit_for_bit():
    # one cumsum of g + 1j * h adds each lane in the float scan's order, so
    # every prefix, gain, tie and split position must be the same
    rng = np.random.default_rng(67)
    kinds = dict.fromkeys(("split", "band_edge", "ties", "no_candidate",
                           "no_gain"), 0)
    for t in range(1500):
        k = int(rng.integers(2, 300))
        d = int(rng.integers(1, 9))
        n = k + int(rng.integers(0, 50))
        levels = 2 if t % 4 == 0 else int(rng.integers(2, 256))  # heavy ties
        binned = rng.integers(0, levels, size=(n, d))
        if t % 7 == 0:
            binned[:] = binned[0]                    # one code: no candidate
        if t % 4 == 1:                               # two-valued gradients
            y = (rng.random(n) < 0.4).astype(float)
            p0 = float(rng.uniform(0.2, 0.8))
            g, h = p0 - y, np.full(n, p0 * (1.0 - p0))
        else:
            p = rng.uniform(0.02, 0.98, size=n)
            g, h = p - (rng.random(n) < p), p * (1.0 - p)
        if t % 9 == 0:
            g[:] = 0.0                               # every gain 0: no split
        rows = np.sort(rng.choice(n, size=k, replace=False))
        min_leaf = int(rng.integers(1, k // 2 + 1))
        if t % 5 == 0:                               # both band edges at once
            min_leaf = k // 2
            rows = rows[:2 * min_leaf]
        order, codes = _presorted(binned, rows)
        gt, ht = float(np.sum(g[rows])), float(np.sum(h[rows]))
        got = histboost._scan_node(_lanes(g, h), order, codes, gt, ht, min_leaf)
        want = scan_node_oracle(np.stack((g, h)), order, codes, gt, ht, min_leaf)
        assert got == want
        if got is not None:
            assert got[0].hex() == want[0].hex()
            kinds["split"] += 1
        elif (codes[:, min_leaf - 1:rows.size - min_leaf]
              == codes[:, min_leaf:rows.size - min_leaf + 1]).all():
            kinds["no_candidate"] += 1
        else:
            kinds["no_gain"] += 1
        kinds["band_edge"] += rows.size == 2 * min_leaf
        kinds["ties"] += levels == 2
    assert kinds["split"] >= 800 and min(kinds.values()) >= 150, kinds


def test_tree_zero_stump_takes_the_lowest_of_tied_splits():
    # column 2 holds column 1's values, permuted within each class: with two-
    # valued gradients every split of either column has the same left counts
    # per class, so their gains are equal, and float rounding must not choose
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = 200
        y = (rng.random(n) < 0.4).astype(float)
        X = rng.normal(size=(n, 4))
        X[:, 1] = np.round(rng.normal(size=n) + y, 1)
        for c in (0.0, 1.0):
            rows = np.flatnonzero(y == c)
            X[rows, 2] = X[rng.permutation(rows), 1]
        model = fit_histgbm(X, y, BoostParams(n_trees=1, max_leaves=2,
                                              min_samples_leaf=5))
        p0 = sigmoid(np.full(n, model.base_score))
        binned = bin_matrix(model.mapper, X).astype(np.int64)
        _, f, b = _best_stump_oracle(binned, p0 - y, p0 * (1 - p0),
                                     bin_counts(model.mapper), 1.0, 5)
        assert (model.trees[0].feature[0], model.trees[0].split_bin[0]) == (f, b)


# --- prediction oracle ----------------------------------------------------------

def _naive_walk(model, X):
    binned = bin_matrix(model.mapper, X).astype(np.int64)
    out = np.full(X.shape[0], model.base_score)
    for i in range(X.shape[0]):
        for tree in model.trees:
            node = 0
            while tree.feature[node] >= 0:
                f = tree.feature[node]
                node = (tree.left[node] if binned[i, f] <= tree.split_bin[node]
                        else tree.right[node])
            out[i] += model.params.learning_rate * tree.value[node]
    return out


def test_prediction_matches_naive_tree_walk():
    rng = np.random.default_rng(55)
    X = rng.normal(size=(150, 5))
    y = (rng.random(150) < sigmoid(X[:, 0] - X[:, 1])).astype(float)
    params = BoostParams(n_trees=12, max_leaves=8, min_samples_leaf=4,
                         max_bins=32)
    model = fit_histgbm(X, y, params)
    X_test = rng.normal(size=(120, 5)) * 1.5
    fast = predict_raw(model, X_test)
    slow = _naive_walk(model, X_test)
    assert np.max(np.abs(fast - slow)) <= 1e-12
    assert np.allclose(predict_proba(model, X_test), sigmoid(fast), atol=1e-15)


def test_one_row_predictions_equal_batch_rows_bit_for_bit():
    rng = np.random.default_rng(56)
    for t in range(6):
        d = int(rng.integers(1, 6))
        X = rng.normal(size=(200, d))
        y = (rng.random(200) < sigmoid(2.0 * X[:, 0])).astype(float)
        model = fit_histgbm(X, y, BoostParams(
            n_trees=int(rng.integers(1, 15)), learning_rate=float(rng.uniform(0.05, 1.0)),
            max_leaves=int(rng.integers(2, 20)), min_samples_leaf=int(rng.integers(1, 10)),
            max_bins=int(rng.integers(2, 64))))
        X_test = np.concatenate([X[:40], rng.normal(size=(40, d)) * 2.0])
        batch = predict_raw(model, X_test)
        for i in range(X_test.shape[0]):
            one = predict_raw(model, X_test[i:i + 1])
            assert one.shape == (1,) and one[0] == batch[i]
    assert predict_raw(model, X_test[:0]).shape == (0,)


def _random_tree(rng, n_leaves, d, max_bins):
    """A tree of ``n_leaves`` leaves, grown by splitting leaves at random,
    with every node but the root renumbered at random: a right child is
    seldom its left sibling + 1, and a child may come before its parent."""
    feature, split_bin, left, right = [-1], [-1], [-1], [-1]
    leaves = [0]
    while len(leaves) < n_leaves:
        node = leaves.pop(int(rng.integers(len(leaves))))
        feature[node] = int(rng.integers(d))
        split_bin[node] = int(rng.integers(max_bins - 1))
        for side in (left, right):
            side[node] = len(feature)
            leaves.append(len(feature))
            for a in (feature, split_bin, left, right):
                a.append(-1)
    n = len(feature)
    new = np.concatenate([[0], 1 + rng.permutation(n - 1)])  # old id -> new id
    arrays = {}
    for name, a, is_child in (("feature", feature, False), ("split_bin", split_bin, False),
                              ("left", left, True), ("right", right, True)):
        a = np.array(a, dtype=np.int64)
        if is_child:
            a = np.where(a >= 0, new[a], -1)
        arrays[name] = np.empty(n, dtype=np.int64)
        arrays[name][new] = a
    return Tree(value=rng.normal(size=n), cover=np.ones(n), **arrays)


def test_level_walk_equals_the_per_tree_walk_bit_for_bit():
    # predict_raw walks all trees at once in blocks of WALK_PAIRS (tree, row)
    # pairs and adds their outputs with np.add.accumulate; the oracle walks
    # one tree at a time and adds each tree's outputs to the margins in turn
    rng = np.random.default_rng(68)
    d = 4
    X = rng.normal(size=(500, d))
    y = (rng.random(500) < sigmoid(X[:, 0] - X[:, 2])).astype(float)
    fitted = fit_histgbm(X, y, BoostParams(n_trees=10, max_leaves=31, min_samples_leaf=3))
    models = [("fitted", fitted)]
    for n_trees in (1, 10, 200):
        for kind, leaves in (("stumps", lambda: 2), ("one-leaf", lambda: 1),
                             ("31-leaf", lambda: 31),
                             ("mixed", lambda: int(rng.integers(1, 32)))):
            max_bins = int(rng.integers(2, 256))
            models.append((f"{n_trees} {kind}", BoostedModel(
                params=BoostParams(n_trees=n_trees, learning_rate=float(rng.uniform(0.01, 1.0))),
                mapper=fit_bins(X, max_bins), base_score=float(rng.normal()),
                trees=[_random_tree(rng, leaves(), d, max_bins) for _ in range(n_trees)])))
    checked = 0
    for name, model in models:
        back = BoostedModel.from_dict(json.loads(json.dumps(model.to_dict())), d)
        step = WALK_PAIRS // len(model.trees)
        for n in (0, 1, 40, 1200, step - 1, step, step + 1):
            X_test = rng.normal(size=(n, d)) * 1.5
            want = predict_raw_oracle(model, X_test).tobytes()
            assert predict_raw(model, X_test).tobytes() == want, (name, n)
            assert predict_raw(back, X_test).tobytes() == want, (name, n)
            checked += 1
    assert checked == 7 * len(models)
    print(f"level walk: {len(models)} models x 7 row counts equal to the per-tree walk")


def _model_doc(n_trees=2):
    rng = np.random.default_rng(69)
    X = rng.normal(size=(120, 3))
    y = (X[:, 0] + 0.5 * rng.normal(size=120) > 0).astype(float)
    model = fit_histgbm(X, y, BoostParams(n_trees=n_trees, max_leaves=4, min_samples_leaf=5))
    return json.loads(json.dumps(model.to_dict()))


def _break(doc, tree, **arrays):
    doc["trees"][tree].update(arrays)
    return doc


@pytest.mark.parametrize("change, message", [
    (lambda t: {"left": [len(t["left"]) + 4] + t["left"][1:]},
     "tree 1: node 0 has a child index out of range"),
    (lambda t: {"right": [-3] + t["right"][1:]},
     "tree 1: node 0 has a child index out of range"),
    (lambda t: {"left": [0] + t["left"][1:]},
     "tree 1: node 0 is not reached exactly once from the root"),
    (lambda t: {"left": [t["right"][0]] + t["left"][1:]},
     "is not reached exactly once from the root"),
    (lambda t: {"left": t["left"][:-1] + [0]},
     "is a leaf with children"),
    (lambda t: {"feature": [3] + t["feature"][1:]},
     "tree 1: node 0 splits on a feature outside the model's 3"),
    (lambda t: {"value": t["value"][:-1]},
     "tree 1: node arrays are empty or differ in length"),
    (lambda t: {k: [] for k in ("feature", "split_bin", "left", "right", "value", "cover")},
     "tree 1: node arrays are empty or differ in length"),
], ids=["child-past-end", "negative-child", "root-is-its-own-child", "shared-child",
        "leaf-with-child", "feature-out-of-range", "short-values", "empty-tree"])
def test_malformed_tree_fails_on_load(change, message):
    doc = _model_doc()
    tree = doc["trees"][1]
    assert tree["feature"][0] >= 0 and tree["feature"][-1] < 0
    with pytest.raises(ArtifactError, match=message):
        BoostedModel.from_dict(_break(doc, 1, **change(tree)), 3)


def test_tree_cycle_unreached_from_the_root_fails_on_load():
    # every node has one parent, but nodes 1 and 2 are each other's child
    doc = _model_doc()
    doc["trees"][0] = {"feature": [0, 1, 2, -1, -1, -1, -1],
                       "split_bin": [0, 0, 0, -1, -1, -1, -1],
                       "left": [3, 2, 1, -1, -1, -1, -1],
                       "right": [4, 5, 6, -1, -1, -1, -1],
                       "value": [0.0] * 7, "cover": [1] * 7}
    with pytest.raises(ArtifactError, match="tree 0: node 1 is not reached from the root"):
        BoostedModel.from_dict(doc, 3)
    doc["trees"][0]["left"][1:3] = [5, 6]
    doc["trees"][0]["right"][1:3] = [1, 2]  # now each is its own right child
    with pytest.raises(ArtifactError, match="tree 0: node 1 is not reached from the root"):
        BoostedModel.from_dict(doc, 3)


def test_leaf_values_from_growth_equal_a_walk_of_the_training_rows():
    rng = np.random.default_rng(62)
    for t in range(30):
        n, d = int(rng.integers(10, 300)), int(rng.integers(1, 6))
        binned = rng.integers(0, 8, size=(n, d)) * (rng.random((n, d)) < 0.7)
        g, h = rng.normal(size=n), rng.uniform(0.01, 0.25, size=n)
        params = BoostParams(max_leaves=int(rng.integers(2, 40)),
                             min_samples_leaf=int(rng.integers(1, 12)))
        tree, _, out = histboost._grow_tree(_lanes(g, h), params,
                                            *_presorted(binned))
        assert np.array_equal(out, tree_outputs(tree, binned))


def _tree_bytes(tree):
    return b"|".join(a.tobytes() for a in (tree.feature, tree.split_bin, tree.left,
                                          tree.right, tree.value, tree.cover))


def test_growth_and_rounds_equal_the_two_array_oracle_bit_for_bit():
    # _boost writes a round's gradients and hessians into one complex
    # buffer; _grow_tree sums a node's totals from the
    # buffer's two lanes, scans with one complex prefix sum and builds no
    # sorted arrays for a child too small to split.  The oracle is the loop
    # before that, with the float two-lane scan.
    rng = np.random.default_rng(66)
    fits = capped = uncapped = tied = at_band_edge = 0
    while fits < 48:
        n, d = int(rng.integers(20, 400)), int(rng.integers(1, 7))
        X = rng.normal(size=(n, d))
        if fits % 3 == 0:
            X = np.round(X, 1)                       # tied values
            tied += 1
        y = (rng.random(n) < sigmoid(1.5 * X[:, 0])).astype(float)
        y[:2] = [0.0, 1.0]
        params = BoostParams(
            n_trees=int(rng.integers(1, 9)), learning_rate=float(rng.uniform(0.05, 1.0)),
            max_leaves=int(rng.integers(2, 8)) if fits % 2 else int(rng.integers(8, 64)),
            min_samples_leaf=int(rng.integers(1, 16)), max_bins=int(rng.integers(2, 256)))
        codes = bin_matrix(fit_bins(X, params.max_bins), X)
        base = float(np.log(y.mean() / (1.0 - y.mean())))
        grown = histboost._boost(histboost._presort(codes), y, params, base)
        trees, stopped = boost_oracle(codes, y, params, base)
        assert [_tree_bytes(t) for t in grown.trees] == [_tree_bytes(t) for t in trees]
        assert grown.capped == stopped
        capped += stopped
        uncapped += not stopped
        at_band_edge += sum(int(np.sum(t.cover == 2 * params.min_samples_leaf))
                            for t in trees)
        # one tree from two-valued gradients, as every fit's first round has
        p0 = float(rng.uniform(0.2, 0.8))
        g, h = p0 - y, np.full(n, p0 * (1.0 - p0))
        presorted = _presorted(codes)
        tree, stop, out = histboost._grow_tree(_lanes(g, h), params, *presorted)
        want, want_stop, want_out = grow_tree_oracle(g, h, params, *presorted)
        assert _tree_bytes(tree) == _tree_bytes(want)
        assert stop == want_stop and out.tobytes() == want_out.tobytes()
        fits += 1
    assert tied >= 16 and capped >= 20 and uncapped >= 10 and at_band_edge >= 50


def _first_trees(model, k):
    """``model`` cut to its first ``k`` trees: the model ``k`` rounds grew."""
    return BoostedModel(params=model.params, mapper=model.mapper,
                        base_score=model.base_score, trees=model.trees[:k])


def _staged_losses(model, X, y) -> np.ndarray:
    """The training log-loss after each round, from the truncated models."""
    return np.array([log_loss(y, sigmoid(predict_raw(_first_trees(model, k), X)))
                     for k in range(1, len(model.trees) + 1)])


def test_boosted_training_margins_equal_predict_raw_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(63)
    for t in range(6):
        n, d = int(rng.integers(30, 200)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, d))
        y = (rng.random(n) < sigmoid(2.0 * X[:, 0])).astype(float)
        y[:2] = [0.0, 1.0]
        # round k takes its gradients from the margins of the first k trees,
        # which _boost accumulated from the rows' leaf values
        seen = []
        monkeypatch.setattr(histboost, "sigmoid", lambda raw: seen.append(raw.copy())
                            or sigmoid(raw))
        model = fit_histgbm(X, y, BoostParams(
            n_trees=int(rng.integers(2, 12)), max_leaves=int(rng.integers(2, 16)),
            min_samples_leaf=int(rng.integers(1, 8)), max_bins=int(rng.integers(2, 64))))
        monkeypatch.undo()
        assert len(seen) == len(model.trees)
        assert np.all(seen[0] == model.base_score)
        for k in range(1, len(model.trees)):
            assert predict_raw(_first_trees(model, k), X).tobytes() == seen[k].tobytes()


def test_memo_hit_bins_no_matrix(monkeypatch):
    calls = []
    real = histboost.bin_matrix
    monkeypatch.setattr(histboost, "bin_matrix",
                        lambda *a: calls.append(1) or real(*a))
    rng = np.random.default_rng(64)
    X = rng.normal(size=(60, 3))
    y = (X[:, 0] > 0).astype(float)
    memo = {}
    fits = [fit_histgbm(X, y, BoostParams(n_trees=3, max_leaves=cap), memo=memo)
            for cap in (31, 63)]
    assert len(calls) == 1
    assert fits[0].trees == fits[1].trees
    assert fits[0].nodes() is fits[1].nodes()  # packed once for both


def test_predict_columns_equal_each_models_own_bit_for_bit(tmp_path, monkeypatch):
    # two max_bins, and leaf caps no tree reaches: the refits on one max_bins
    # share one grown tree set, so an in-process ensemble bins once per
    # max_bins and walks once per tree set; its loaded artifact has a node
    # table per model and walks each, still binning once per max_bins
    rng = np.random.default_rng(129)
    y = np.array([1] * 18 + [0] * 30)
    X = rng.normal(size=(48, 5))
    X[:, 0] += 1.5 * y
    X[:, 1] -= 1.0 * y
    ds = LabeledDataset(feature_names=[f"f{j}" for j in range(5)], X=X, y=y,
                        participant_ids=[f"p{i:02d}" for i in range(48)])
    grid = [{"n_trees": 5, "learning_rate": 0.3, "max_leaves": cap,
             "min_samples_leaf": 4, "max_bins": bins}
            for bins in (8, 255) for cap in (31, 63)]
    config = PipelineConfig(selection=SelectionConfig(method="none"),
                            smote=SmoteConfig(k_neighbors=3),
                            ensemble=EnsembleConfig(m=4, inner_folds=3, grid=grid))
    fitted = train_pipeline(ds, config, seed=7)
    save_ensemble(fitted, tmp_path / "model.json")
    loaded = load_ensemble(tmp_path / "model.json")
    X_test = np.random.default_rng(130).normal(size=(50, 5))
    binned, walked = [], []
    real_bin, real_walk = histboost.bin_matrix, histboost.predict_raw
    monkeypatch.setattr(histboost, "bin_matrix",
                        lambda *a: binned.append(1) or real_bin(*a))
    monkeypatch.setattr(histboost, "predict_raw",
                        lambda *a: walked.append(1) or real_walk(*a))
    for ens, walks in ((fitted, 2), (loaded, 4)):
        Xs = apply_scaler(ens.scaler, X_test[:, input_columns(ens, ds.feature_names)])
        binned.clear()
        walked.clear()
        base = predict_columns(ens.base_models, Xs)
        assert (len(binned), len(walked)) == (2, walks)
        for j, model in enumerate(ens.base_models):
            assert base[:, j].tobytes() == predict_proba(model, Xs).tobytes(), j
        assert ensemble_predict(ens, X_test, ds.feature_names).tobytes() == \
            predict_proba_logistic(ens.meta, base).tobytes()
    assert predict_columns(fitted.base_models, Xs).tobytes() == base.tobytes()


def test_training_log_loss_is_non_increasing():
    rng = np.random.default_rng(56)
    X = rng.normal(size=(200, 4))
    y = (rng.random(200) < sigmoid(0.8 * X[:, 0])).astype(float)
    model = fit_histgbm(X, y, BoostParams(n_trees=40, max_leaves=8,
                                          min_samples_leaf=5))
    losses = _staged_losses(model, X, y)
    assert losses.shape == (40,)
    assert np.all(np.diff(losses) <= 1e-9)


def test_base_score_is_log_odds_of_prevalence():
    rng = np.random.default_rng(57)
    X = rng.normal(size=(40, 2))
    y = np.array([1.0] * 10 + [0.0] * 30)
    model = fit_histgbm(X, y, BoostParams(n_trees=1, min_samples_leaf=5))
    assert math.isclose(model.base_score, math.log(0.25 / 0.75), rel_tol=1e-12)


def test_structure_respects_limits():
    rng = np.random.default_rng(58)
    X = rng.normal(size=(300, 6))
    y = (rng.random(300) < sigmoid(X[:, 0] + 0.5 * X[:, 2])).astype(float)
    params = BoostParams(n_trees=5, max_leaves=6, min_samples_leaf=7)
    model = fit_histgbm(X, y, params)
    for tree in model.trees:
        leaves = tree.feature < 0
        assert int(leaves.sum()) <= 6
        if tree.n_nodes > 1:
            assert np.all(tree.cover[leaves] >= 7)
        # internal consistency: children partition the parent cover
        for node in range(tree.n_nodes):
            if tree.feature[node] >= 0:
                assert (tree.cover[tree.left[node]]
                        + tree.cover[tree.right[node]]) == tree.cover[node]


def test_save_load_round_trip():
    rng = np.random.default_rng(60)
    X = rng.normal(size=(80, 3))
    y = (rng.random(80) < sigmoid(X[:, 1])).astype(float)
    model = fit_histgbm(X, y, BoostParams(n_trees=4, min_samples_leaf=5))
    doc = json.loads(json.dumps(model.to_dict(), sort_keys=True))
    back = BoostedModel.from_dict(doc, 3)
    assert np.array_equal(predict_raw(back, X), predict_raw(model, X))
    # the artifact's schema_version covers its models, and the width is the
    # artifact's feature count: neither is stored twice
    assert list(doc) == ["base_score", "bins", "params", "trees"]
    assert list(doc["bins"]) == ["thresholds"]
    with pytest.raises(ArtifactError, match="bins.thresholds cover 3 features, "
                                            "not the 4 the artifact names"):
        BoostedModel.from_dict(doc, 4)


def test_fit_errors_and_param_validation():
    X = np.random.default_rng(61).normal(size=(20, 2))
    with pytest.raises(SingleClass):
        fit_histgbm(X, np.ones(20))
    with pytest.raises(DataError):
        fit_histgbm(X, np.array([0.0, 1.0]))
    with pytest.raises(OutOfRange) as err:
        fit_histgbm(X[:6], np.array([0, 2, 0, 2, 2, 0]))
    assert (err.value.row, err.value.col) == (1, "label")
    with pytest.raises(OutOfRange):
        fit_histgbm(X[:4], np.array([0.0, 1.0, np.nan, 1.0]))
    X_bad = X.copy()
    X_bad[5, 1] = np.nan
    with pytest.raises(OutOfRange) as err:
        fit_histgbm(X_bad, (np.arange(20) % 2).astype(float))
    assert (err.value.row, err.value.col) == (5, 1)
    for bad in (dict(n_trees=0), dict(learning_rate=0.0), dict(max_leaves=1),
                dict(min_samples_leaf=0), dict(max_bins=300)):
        with pytest.raises(DegenerateParams):
            BoostParams(**bad).validate()
