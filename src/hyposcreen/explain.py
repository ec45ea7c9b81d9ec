"""Model explanation and embedding: TreeSHAP, exact Shapley, PCA, silhouette.

The SHAP implementation is the polynomial path-dependent algorithm over the
booster's binned trees, with branch probabilities taken from training covers.
``exact_shapley_oracle`` evaluates the same value function by full coalition
enumeration and exists to cross-check the fast path on small models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    SingleCluster,
    TooFewColumns,
    TooFewRows,
    TooManyFeatures,
)
from .model.binning import bin_matrix
from .model.histboost import BoostedModel, Tree, predict_raw

EXACT_LIMIT = 15
# power iteration stops when successive unit vectors agree up to sign
POWER_TOL = 1e-10
POWER_MAX_ITER = 50000


@dataclass
class ShapAttribution:
    base_value: float
    phi: np.ndarray
    raw_prediction: float  # base_value + phi.sum() equals this exactly


# --- path-dependent TreeSHAP -------------------------------------------------

def _extend(path, pz, po, pi):
    l = len(path)
    path.append([pi, pz, po, 1.0 if l == 0 else 0.0])
    for i in range(l - 1, -1, -1):
        path[i + 1][3] += po * path[i][3] * (i + 1) / (l + 1)
        path[i][3] = pz * path[i][3] * (l - i) / (l + 1)


def _unwind(path, i):
    l = len(path) - 1
    one = path[i][2]
    zero = path[i][1]
    n = path[l][3]
    for j in range(l - 1, -1, -1):
        if one != 0.0:
            t = path[j][3]
            path[j][3] = n * (l + 1) / ((j + 1) * one)
            n = t - path[j][3] * zero * (l - j) / (l + 1)
        else:
            path[j][3] = path[j][3] * (l + 1) / (zero * (l - j))
    for j in range(i, l):
        path[j][0] = path[j + 1][0]
        path[j][1] = path[j + 1][1]
        path[j][2] = path[j + 1][2]
    path.pop()


def _unwound_sum(path, i):
    l = len(path) - 1
    one = path[i][2]
    zero = path[i][1]
    n = path[l][3]
    total = 0.0
    for j in range(l - 1, -1, -1):
        if one != 0.0:
            t = n * (l + 1) / ((j + 1) * one)
            total += t
            n = path[j][3] - t * zero * (l - j) / (l + 1)
        else:
            total += path[j][3] * (l + 1) / (zero * (l - j))
    return total


def _shap_tree(tree: Tree, x_bin: np.ndarray, phi: np.ndarray) -> None:
    def recurse(node, path, pz, po, pi):
        path = [row[:] for row in path]
        _extend(path, pz, po, pi)
        f = int(tree.feature[node])
        if f < 0:
            value = float(tree.value[node])
            for i in range(1, len(path)):
                w = _unwound_sum(path, i)
                phi[path[i][0]] += w * (path[i][2] - path[i][1]) * value
            return
        if x_bin[f] <= tree.split_bin[node]:
            hot, cold = int(tree.left[node]), int(tree.right[node])
        else:
            hot, cold = int(tree.right[node]), int(tree.left[node])
        iz = io = 1.0
        k = None
        for j in range(1, len(path)):
            if path[j][0] == f:
                k = j
                break
        if k is not None:
            iz, io = path[k][1], path[k][2]
            _unwind(path, k)
        cover = float(tree.cover[node])
        recurse(hot, path, iz * float(tree.cover[hot]) / cover, io, f)
        recurse(cold, path, iz * float(tree.cover[cold]) / cover, 0.0, f)

    recurse(0, [], 1.0, 1.0, -1)


def _tree_expectation(tree: Tree) -> float:
    leaves = tree.feature < 0
    return float(np.sum(tree.value[leaves] * tree.cover[leaves])
                 / tree.cover[0])


def tree_shap(model: BoostedModel, row) -> ShapAttribution:
    """Per-feature attributions for one row; sums to the raw margin score."""
    row = np.asarray(row, dtype=float)
    if row.ndim != 1:
        raise DataError("tree_shap explains one row at a time")
    x_bin = bin_matrix(model.mapper, row[None, :]).astype(np.int64)[0]
    phi = np.zeros(model.n_features)
    base = model.base_score
    lr = model.params.learning_rate
    for tree in model.trees:
        tree_phi = np.zeros(model.n_features)
        _shap_tree(tree, x_bin, tree_phi)
        phi += lr * tree_phi
        base += lr * _tree_expectation(tree)
    raw = float(predict_raw(model, row[None, :])[0])
    return ShapAttribution(base_value=float(base), phi=phi, raw_prediction=raw)


# --- exact enumeration oracle ---------------------------------------------------

def _walk_conditional(tree: Tree, x_bin: np.ndarray, mask: int) -> float:
    """Cover-weighted expectation conditioning on the features in ``mask``."""
    def rec(node):
        f = int(tree.feature[node])
        if f < 0:
            return float(tree.value[node])
        left, right = int(tree.left[node]), int(tree.right[node])
        if (mask >> f) & 1:
            nxt = left if x_bin[f] <= tree.split_bin[node] else right
            return rec(nxt)
        cl, cr = float(tree.cover[left]), float(tree.cover[right])
        return (rec(left) * cl + rec(right) * cr) / (cl + cr)

    return rec(0)


def exact_shapley_oracle(model: BoostedModel, row) -> ShapAttribution:
    """Shapley values of the cover-weighted value function by full coalition
    enumeration.  Exponential in feature count; guarded at 15 features."""
    d = model.n_features
    if d > EXACT_LIMIT:
        raise TooManyFeatures(d, EXACT_LIMIT)
    row = np.asarray(row, dtype=float)
    x_bin = bin_matrix(model.mapper, row[None, :]).astype(np.int64)[0]
    lr = model.params.learning_rate

    v = np.empty(1 << d)
    for mask in range(1 << d):
        total = model.base_score
        for tree in model.trees:
            total += lr * _walk_conditional(tree, x_bin, mask)
        v[mask] = total

    fact = [math.factorial(i) for i in range(d + 1)]
    phi = np.zeros(d)
    for mask in range(1 << d):
        s = bin(mask).count("1")
        for i in range(d):
            if (mask >> i) & 1:
                continue
            weight = fact[s] * fact[d - s - 1] / fact[d]
            phi[i] += weight * (v[mask | (1 << i)] - v[mask])
    base = float(v[0])
    return ShapAttribution(base_value=base, phi=phi,
                           raw_prediction=float(base + phi.sum()))


def mean_abs_shap(model: BoostedModel, X) -> np.ndarray:
    """Global importance: mean |attribution| per feature over the given rows."""
    X = np.asarray(X, dtype=float)
    total = np.zeros(model.n_features)
    for i in range(X.shape[0]):
        total += np.abs(tree_shap(model, X[i]).phi)
    return total / max(1, X.shape[0])


# --- PCA ------------------------------------------------------------------------

@dataclass
class Projection2D:
    coords: np.ndarray          # (n, n_components)
    explained: np.ndarray       # fraction of total variance per component
    components: np.ndarray      # (kept_columns, n_components) loadings
    kept_columns: list          # indices into the original columns
    dropped_columns: list       # constant columns excluded before analysis


def _power_iteration(C: np.ndarray):
    rng = np.random.default_rng(0x5EED)  # fixed start keeps output deterministic
    v = rng.standard_normal(C.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(POWER_MAX_ITER):
        w = C @ v
        nrm = np.linalg.norm(w)
        if nrm < 1e-300:
            return v, 0.0
        w /= nrm
        if np.linalg.norm(w - v) < POWER_TOL or np.linalg.norm(w + v) < POWER_TOL:
            v = w
            break
        v = w
    lam = float(v @ C @ v)
    return v, lam


def pca_project(X, n_components: int = 2) -> Projection2D:
    """Project standardized columns onto leading eigenvectors of the
    correlation matrix (power iteration with deflation).

    The sign of each component is fixed so its largest-magnitude loading is
    positive.  Constant columns are dropped and reported, not an error.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise TooFewRows(0 if X.ndim != 2 else X.shape[0], 2)
    sd = X.std(axis=0)
    kept = [int(i) for i in np.where(sd > 0.0)[0]]
    dropped = [int(i) for i in np.where(sd == 0.0)[0]]
    if len(kept) < n_components:
        raise TooFewColumns(len(kept), n_components)
    Z = (X[:, kept] - X[:, kept].mean(axis=0)) / sd[kept]
    n = X.shape[0]
    C = Z.T @ Z / n
    total = float(len(kept))  # trace of the correlation matrix

    comps = []
    lams = []
    for _ in range(n_components):
        v, lam = _power_iteration(C)
        peak = int(np.argmax(np.abs(v)))
        if v[peak] < 0:
            v = -v
        comps.append(v)
        lams.append(max(lam, 0.0))
        C = C - lam * np.outer(v, v)
    V = np.column_stack(comps)
    return Projection2D(coords=Z @ V,
                        explained=np.array(lams) / total,
                        components=V,
                        kept_columns=kept,
                        dropped_columns=dropped)


# --- silhouette -------------------------------------------------------------------

def silhouette_score(points, labels) -> float:
    """Mean (b - a) / max(a, b) over points; singleton-cluster points score 0."""
    P = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    if P.ndim != 2 or P.shape[0] < 3:
        raise TooFewRows(0 if P.ndim != 2 else P.shape[0], 3)
    if P.shape[0] != labels.shape[0]:
        raise DataError("points and labels differ in length")
    uniq = np.unique(labels)
    if uniq.size < 2:
        raise SingleCluster()
    diff = P[:, None, :] - P[None, :, :]
    D = np.sqrt(np.sum(diff * diff, axis=2))
    scores = np.empty(P.shape[0])
    for i in range(P.shape[0]):
        own = labels == labels[i]
        n_own = int(np.sum(own))
        if n_own == 1:
            scores[i] = 0.0
            continue
        a = float(np.sum(D[i, own]) / (n_own - 1))  # excludes self (distance 0)
        b = min(float(np.mean(D[i, labels == other]))
                for other in uniq if other != labels[i])
        m = max(a, b)
        scores[i] = 0.0 if m == 0.0 else (b - a) / m
    return float(np.mean(scores))
