"""Model explanation and embedding: TreeSHAP, PCA, silhouette.

The SHAP implementation is the polynomial path-dependent algorithm over the
booster's binned trees, with branch probabilities taken from training covers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SingleCluster, TooFewColumns, TooFewRows
from .model.binning import bin_matrix
from .model.histboost import BoostedModel, Tree, predict_raw

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


def tree_shap(model: BoostedModel, row, memo: dict | None = None) -> ShapAttribution:
    """Per-feature attributions for one row; sums to the raw margin score.

    A tree's attributions read the row only through the side it takes at each
    internal node, so they are a function of that decision pattern.  ``memo``
    is a dict the caller owns and passes to every call whose trees may
    repeat, also across models that share ``Tree`` objects; a pattern seen
    before is then served with the same bits.  It holds each tree's
    internal-node index and expectation, and one vector of ``n_features``
    floats per (tree, distinct pattern), so at most one per tree and row.
    """
    row = np.asarray(row, dtype=float)
    if row.ndim != 1:
        raise DataError("tree_shap explains one row at a time")
    memo = {} if memo is None else memo
    x_bin = bin_matrix(model.mapper, row[None, :]).astype(np.int64)[0]
    phi = np.zeros(model.n_features)
    base = model.base_score
    lr = model.params.learning_rate
    for tree in model.trees:
        if tree not in memo:
            memo[tree] = (np.flatnonzero(tree.feature >= 0), _tree_expectation(tree))
        internal, expectation = memo[tree]
        key = (tree, (x_bin[tree.feature[internal]]
                      <= tree.split_bin[internal]).tobytes())
        tree_phi = memo.get(key)
        if tree_phi is None:
            tree_phi = memo[key] = np.zeros(model.n_features)
            _shap_tree(tree, x_bin, tree_phi)
        phi += lr * tree_phi
        base += lr * expectation
    raw = float(predict_raw(model, row[None, :])[0])
    return ShapAttribution(base_value=float(base), phi=phi, raw_prediction=raw)


def mean_abs_shap(model: BoostedModel, X) -> np.ndarray:
    """Global importance: mean |attribution| per feature over the given rows."""
    X = np.asarray(X, dtype=float)
    total = np.zeros(model.n_features)
    memo = {}
    for i in range(X.shape[0]):
        total += np.abs(tree_shap(model, X[i], memo).phi)
    return total / max(1, X.shape[0])


# --- PCA ------------------------------------------------------------------------

@dataclass
class Projection2D:
    coords: np.ndarray          # (n, 2)
    explained: np.ndarray       # fraction of total variance per component
    components: np.ndarray      # (kept_columns, 2) loadings
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


def pca_project(X) -> Projection2D:
    """Project standardized columns onto the two leading eigenvectors of the
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
    if len(kept) < 2:
        raise TooFewColumns(len(kept), 2)
    Z = (X[:, kept] - X[:, kept].mean(axis=0)) / sd[kept]
    n = X.shape[0]
    C = Z.T @ Z / n
    total = float(len(kept))  # trace of the correlation matrix

    comps = []
    lams = []
    for _ in range(2):
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
    """Mean (b - a) / max(a, b) over points; singleton-cluster points score 0.

    The points are ordered by label, stably, so each label's distances form
    one block of columns; each point's sum over a block then adds the same
    terms in the same order as a sum over that label's points would.
    """
    P = np.asarray(points, dtype=float)
    labels = np.asarray(labels)
    if P.ndim != 2 or P.shape[0] < 3:
        raise TooFewRows(0 if P.ndim != 2 else P.shape[0], 3)
    if P.shape[0] != labels.shape[0]:
        raise DataError("points and labels differ in length")
    uniq, group = np.unique(labels, return_inverse=True)
    if uniq.size < 2:
        raise SingleCluster()
    order = np.argsort(group, kind="stable")
    Q, group = P[order], group[order]
    n = Q.shape[0]
    D = np.zeros((n, n))
    diff = np.empty((n, n))
    for c in range(Q.shape[1]):
        np.subtract.outer(Q[:, c], Q[:, c], out=diff)
        D += np.multiply(diff, diff, out=diff)
    np.sqrt(D, out=D)
    sizes = np.bincount(group)
    ends = np.cumsum(sizes)
    sums = np.column_stack([D[:, e - k:e].sum(axis=1) for k, e in zip(sizes, ends)])
    rows = np.arange(n)
    own = sizes[group]
    means = sums / sizes
    means[rows, group] = np.inf
    b = means.min(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = sums[rows, group] / (own - 1)  # excludes self (distance 0)
        m = np.maximum(a, b)
        scores = np.empty(n)
        scores[order] = np.where((own == 1) | (m == 0.0), 0.0, (b - a) / m)
    return float(np.mean(scores))
