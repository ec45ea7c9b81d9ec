import math

import numpy as np
import pytest

from hyposcreen.config import EnsembleConfig, PipelineConfig, SmoteConfig
from hyposcreen.ensemble import fit_stacking_ensemble
from hyposcreen.errors import DataError, SingleCluster, TooFewColumns, TooFewRows
from hyposcreen.explain import (
    mean_abs_shap,
    pca_project,
    silhouette_score,
    tree_shap,
)
from hyposcreen.model.histboost import BoostParams, fit_histgbm, predict_raw
from hyposcreen.util import sigmoid

from shap_oracle import exact_shapley_oracle


def _fit_small_model(rng, d, n=90, n_trees=3, max_leaves=6, msl=5,
                     max_bins=16):
    X = rng.normal(size=(n, d))
    logit = 1.2 * X[:, 0] - 0.8 * X[:, d - 1] + 0.3 * X[:, 0] * X[:, d - 1]
    y = (rng.random(n) < sigmoid(logit)).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    params = BoostParams(n_trees=n_trees, max_leaves=max_leaves,
                         min_samples_leaf=msl, max_bins=max_bins)
    rng.integers(1 << 30)  # unused; keeps the later draws of this stream fixed
    return fit_histgbm(X, y, params), X


# --- TreeSHAP vs exact enumeration --------------------------------------------------

def test_tree_shap_matches_exact_shapley_on_many_instances():
    rng = np.random.default_rng(100)
    instances = 0
    for m in range(12):
        d = int(rng.integers(2, 11))
        model, X = _fit_small_model(rng, d,
                                    n_trees=int(rng.integers(1, 5)),
                                    max_leaves=int(rng.integers(3, 9)))
        for _ in range(10):
            row = rng.normal(size=d) * 1.5
            fast = tree_shap(model, row)
            slow = exact_shapley_oracle(model, row)
            assert np.max(np.abs(fast.phi - slow.phi)) < 1e-9
            assert abs(fast.base_value - slow.base_value) < 1e-9
            instances += 1
    assert instances == 120


def test_tree_shap_with_repeated_feature_on_deep_paths():
    # few features and many leaves force the same feature to reappear
    # along a single root-to-leaf path
    rng = np.random.default_rng(101)
    for _ in range(6):
        X = rng.normal(size=(200, 2))
        y = ((np.sin(2.0 * X[:, 0]) + 0.2 * X[:, 1]) > 0).astype(float)
        model = fit_histgbm(X, y, BoostParams(n_trees=2, max_leaves=16,
                                              min_samples_leaf=3,
                                              max_bins=32))
        depths_reuse = any(
            len({int(f) for f in t.feature if f >= 0}) <
            int(np.sum(t.feature >= 0))
            for t in model.trees)
        assert depths_reuse
        for _ in range(8):
            row = rng.normal(size=2) * 2.0
            fast = tree_shap(model, row)
            slow = exact_shapley_oracle(model, row)
            assert np.max(np.abs(fast.phi - slow.phi)) < 1e-9


def test_local_accuracy_additivity():
    rng = np.random.default_rng(102)
    # includes a model wider than the exact-enumeration guard
    for d in (3, 8, 20):
        model, X = _fit_small_model(rng, d, n=150, n_trees=6, max_leaves=8)
        for i in range(15):
            att = tree_shap(model, X[i])
            assert abs(att.base_value + att.phi.sum()
                       - att.raw_prediction) < 1e-9
            assert att.raw_prediction == predict_raw(model, X[i][None, :])[0]


def test_base_value_is_cover_weighted_expectation():
    rng = np.random.default_rng(103)
    model, X = _fit_small_model(rng, 4, n_trees=3)
    expect = model.base_score
    for tree in model.trees:
        leaves = tree.feature < 0
        expect += model.params.learning_rate * float(
            np.sum(tree.value[leaves] * tree.cover[leaves]) / tree.cover[0])
    att = tree_shap(model, X[0])
    assert math.isclose(att.base_value, expect, rel_tol=1e-12)


def test_mean_abs_shap_matches_rowwise_mean():
    rng = np.random.default_rng(104)
    model, X = _fit_small_model(rng, 5)
    rows = np.concatenate([X[:12], X[:12]])  # repeated rows hit the memo
    manual = np.mean([np.abs(tree_shap(model, r).phi) for r in rows], axis=0)
    assert np.array_equal(mean_abs_shap(model, rows), manual)


def _same_attribution(a, b) -> bool:
    return (np.array_equal(a.phi, b.phi) and a.base_value == b.base_value
            and a.raw_prediction == b.raw_prediction)


def test_memoized_tree_shap_equals_fresh_calls_bit_for_bit():
    rng = np.random.default_rng(110)
    calls = reused = 0
    for t in range(8):
        d = int(rng.integers(1, 4))  # few features: repeats on deep paths
        X = rng.normal(size=(240, d))
        if t % 2:
            X = np.round(X, 1)
        y = ((np.sin(2.0 * X[:, 0]) + 0.3 * X[:, -1]) > 0).astype(float)
        model = fit_histgbm(X, y, BoostParams(
            n_trees=int(rng.integers(1, 6)), learning_rate=float(rng.uniform(0.05, 1.0)),
            max_leaves=int(rng.integers(4, 24)), min_samples_leaf=int(rng.integers(2, 9)),
            max_bins=int(rng.integers(4, 64))))
        reused += any(len({int(f) for f in tr.feature if f >= 0}) < int(np.sum(tr.feature >= 0))
                      for tr in model.trees)
        rows = np.concatenate([X[:60], rng.normal(size=(60, d)) * 2.0, X[:30]])
        memo = {}
        for row in rng.permutation(rows):
            assert _same_attribution(tree_shap(model, row, memo), tree_shap(model, row))
            calls += 1
        patterns = sum(1 for k in memo if isinstance(k, tuple))
        assert patterns < len(rows) * len(model.trees)  # some patterns repeat
    assert reused >= 4  # models whose trees split on one feature more than once
    print(f"memoized TreeSHAP: {calls} calls equal to fresh calls bit for bit")


def test_one_shap_memo_serves_ensemble_models_that_share_trees():
    rng = np.random.default_rng(111)
    X = rng.normal(size=(48, 3))
    y = np.array([1] * 18 + [0] * 30)
    X[:, 0] += 1.2 * y
    # caps that no tree reaches: the candidates share their grown trees
    candidates = [BoostParams(n_trees=6, learning_rate=0.3, max_leaves=leaves,
                              min_samples_leaf=8) for leaves in (8, 16, 31)]
    config = PipelineConfig(smote=SmoteConfig(k_neighbors=3), ensemble=EnsembleConfig(
        m=3, inner_folds=3, grid=[c.to_dict() for c in candidates]))
    base_models, *_ = fit_stacking_ensemble(X, y, config, seed=2)
    trees = [t for m in base_models for t in m.trees]
    assert len({id(t) for t in trees}) < len(trees)
    memo = {}
    for row in np.concatenate([X, rng.normal(size=(20, 3))]):
        for model in base_models:
            assert _same_attribution(tree_shap(model, row, memo), tree_shap(model, row))


def test_exact_oracle_guards_wide_models():
    rng = np.random.default_rng(105)
    model, X = _fit_small_model(rng, 16, n=120)
    with pytest.raises(ValueError):
        exact_shapley_oracle(model, X[0])
    with pytest.raises(DataError):
        tree_shap(model, X[:2])


# --- PCA ---------------------------------------------------------------------------

def _jacobi_eigh(A, sweeps=60):
    """Cyclic Jacobi rotations on a symmetric matrix; independent of the
    LAPACK solver behind the package's ``np.linalg.eigh``."""
    A = A.copy()
    d = A.shape[0]
    V = np.eye(d)
    for _ in range(sweeps):
        off = 0.0
        for p in range(d - 1):
            for q in range(p + 1, d):
                off = max(off, abs(A[p, q]))
                if abs(A[p, q]) < 1e-14:
                    continue
                theta = 0.5 * math.atan2(2.0 * A[p, q], A[p, p] - A[q, q])
                c, s = math.cos(theta), math.sin(theta)
                R = np.eye(d)
                R[p, p] = R[q, q] = c
                R[p, q] = -s
                R[q, p] = s
                A = R.T @ A @ R
                V = V @ R
        if off < 1e-14:
            break
    lams = np.diag(A)
    order = np.argsort(-lams)
    return lams[order], V[:, order]


def test_pca_against_jacobi_oracle():
    rng = np.random.default_rng(106)
    compared = 0
    for trial in range(40):
        n = int(rng.integers(30, 80))
        d = int(rng.integers(3, 8))
        mix = rng.normal(size=(d, d))
        X = rng.normal(size=(n, d)) @ mix
        proj = pca_project(X)
        Z = (X - X.mean(axis=0)) / X.std(axis=0)
        C = Z.T @ Z / n
        lams, vecs = _jacobi_eigh(C)
        # skip spectra too degenerate for a fixed-tolerance comparison
        if lams[0] - lams[1] < 0.05 or lams[1] - lams[2] < 0.05:
            continue
        got = proj.explained * d
        assert abs(got[0] - lams[0]) < 1e-8
        assert abs(got[1] - lams[1]) < 1e-8
        for j in (0, 1):
            cosine = abs(float(proj.components[:, j] @ vecs[:, j]))
            assert cosine > 1.0 - 1e-8
        compared += 1
    assert compared >= 20


def test_pca_structure_and_sign_convention():
    rng = np.random.default_rng(107)
    X = rng.normal(size=(60, 5))
    X[:, 2] = 3.0 * X[:, 0] + rng.normal(size=60) * 0.01
    proj = pca_project(X)
    V = proj.components
    assert V.shape == (5, 2)
    assert np.allclose(V.T @ V, np.eye(2), atol=1e-8)
    for j in (0, 1):
        peak = np.argmax(np.abs(V[:, j]))
        assert V[peak, j] > 0
    Z = (X - X.mean(axis=0)) / X.std(axis=0)
    assert np.allclose(proj.coords, Z @ V, atol=1e-12)
    lam = np.array([float(v @ (Z.T @ Z / 60) @ v) for v in V.T])
    assert np.allclose(proj.explained, lam / 5.0, atol=1e-8)
    assert proj.explained[0] >= proj.explained[1] >= 0.0
    assert sum(proj.explained) <= 1.0 + 1e-12


def test_pca_drops_constant_columns_and_guards():
    rng = np.random.default_rng(108)
    X = rng.normal(size=(30, 4))
    X[:, 1] = 7.0
    proj = pca_project(X)
    assert proj.dropped_columns == [1]
    assert proj.kept_columns == [0, 2, 3]
    assert proj.components.shape == (3, 2)
    with pytest.raises(TooFewRows):
        pca_project(X[:1])
    with pytest.raises(TooFewColumns):
        pca_project(np.full((10, 3), 2.0))


# --- silhouette ------------------------------------------------------------------

def test_silhouette_hand_fixture():
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [4.0, 0.0], [4.0, 1.0]])
    labels = np.array([0, 0, 1, 1])
    b = (4.0 + math.sqrt(17.0)) / 2.0
    expected = (b - 1.0) / b
    assert math.isclose(silhouette_score(pts, labels), expected, rel_tol=1e-12)


def test_silhouette_against_naive_oracle():
    rng = np.random.default_rng(109)
    for trial in range(25):
        n = int(rng.integers(4, 30))
        k = int(rng.integers(2, 4))
        pts = rng.normal(size=(n, 3))
        labels = rng.integers(0, k, size=n)
        if np.unique(labels).size < 2:
            labels[0] = (labels[0] + 1) % k

        def dist(i, j):
            return math.sqrt(sum((pts[i, c] - pts[j, c]) ** 2
                                 for c in range(3)))

        scores = []
        for i in range(n):
            own = [j for j in range(n) if labels[j] == labels[i] and j != i]
            if not own:
                scores.append(0.0)
                continue
            a = sum(dist(i, j) for j in own) / len(own)
            b = math.inf
            for other in set(labels.tolist()) - {labels[i]}:
                members = [j for j in range(n) if labels[j] == other]
                b = min(b, sum(dist(i, j) for j in members) / len(members))
            m = max(a, b)
            scores.append(0.0 if m == 0.0 else (b - a) / m)
        assert math.isclose(silhouette_score(pts, labels),
                            sum(scores) / n, abs_tol=1e-12)


def _silhouette_loop(points, labels) -> float:
    """The per-point loop ``silhouette_score`` used before it summed distances
    per label for all points at once."""
    P = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    uniq = np.unique(labels)
    diff = P[:, None, :] - P[None, :, :]
    D = np.sqrt(np.sum(diff * diff, axis=2))
    scores = np.empty(P.shape[0])
    for i in range(P.shape[0]):
        own = labels == labels[i]
        n_own = int(np.sum(own))
        if n_own == 1:
            scores[i] = 0.0
            continue
        a = float(np.sum(D[i, own]) / (n_own - 1))
        b = min(float(np.mean(D[i, labels == other]))
                for other in uniq if other != labels[i])
        m = max(a, b)
        scores[i] = 0.0 if m == 0.0 else (b - a) / m
    return float(np.mean(scores))


def test_silhouette_matches_point_loop_on_large_string_labelled_set():
    rng = np.random.default_rng(112)
    pts = rng.normal(size=(1200, 2)) * [3.0, 0.5]
    labels = rng.choice(np.array(["case", "control", "other"]), size=1200)
    labels[[5, 600]] = ["solo a", "solo b"]  # singleton clusters score 0
    pts[7] = pts[8]
    labels[8] = labels[7]  # a zero distance inside a cluster
    # the same terms summed in the same order: equal, not merely close
    assert silhouette_score(pts, labels) == _silhouette_loop(pts, labels)


def test_silhouette_singletons_and_errors():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [9.0, 9.0]])
    labels = np.array([0, 0, 1])
    score = silhouette_score(pts, labels)
    # the singleton contributes exactly 0
    assert 0.0 < score < 1.0
    with pytest.raises(SingleCluster):
        silhouette_score(pts, np.zeros(3))
    with pytest.raises(TooFewRows):
        silhouette_score(pts[:2], labels[:2])
    with pytest.raises(DataError):
        silhouette_score(pts, labels[:2])
