"""Model explanation and embedding: TreeSHAP, PCA, silhouette.

The SHAP implementation is the polynomial path-dependent algorithm over the
booster's binned trees, with branch probabilities taken from training covers.
It explains one boosted model: the ``explain`` command attributes the lead
base model of an ensemble (``base_models[0]``, the kept candidate with the
best inner-fold AUROC) alone, not the stacked score, and names that model's
``candidate_index`` and its share of the meta-layer's sum of |weights|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, SingleCluster, TooFewColumns, TooFewRows
from .model.binning import bin_matrix
from .model.histboost import BoostedModel, Tree, predict_raw

SILHOUETTE_CELLS = 1 << 16  # distances a silhouette block holds at once


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


def _attributions(model: BoostedModel, x_bin: np.ndarray, memo: dict) -> tuple:
    """The row's attributions and base value, read from its bin codes
    ``x_bin`` one tree at a time, served from ``memo`` per decision pattern
    (see ``tree_shap``)."""
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
    return phi, base


def tree_shap(model: BoostedModel, row, memo: dict | None = None,
              codes: np.ndarray | None = None) -> ShapAttribution:
    """Per-feature attributions for one row; sums to the raw margin score.

    A tree's attributions read the row only through the side it takes at each
    internal node, so they are a function of that decision pattern.  ``memo``
    is a dict the caller owns and passes to every call whose trees may
    repeat, also across models that share ``Tree`` objects; a pattern seen
    before is then served with the same bits.  It holds each tree's
    internal-node index and expectation, and one vector of ``n_features``
    floats per (tree, distinct pattern), so at most one per tree and row.
    ``codes`` are the row's bin codes, one row of ``model.bin(X)`` when the
    caller bins all the rows it explains at once; the pattern is read from
    them and ``predict_raw`` walks them.  Without them the row is binned
    here.
    """
    row = np.asarray(row, dtype=float)
    if row.ndim != 1:
        raise DataError("tree_shap explains one row at a time")
    memo = {} if memo is None else memo
    if codes is None:
        codes = bin_matrix(model.mapper, row[None, :])[0]
    phi, base = _attributions(model, codes.astype(np.int64), memo)
    raw = float(predict_raw(model, row[None, :], codes[None, :])[0])
    return ShapAttribution(base_value=float(base), phi=phi, raw_prediction=raw)


def mean_abs_shap(model: BoostedModel, X) -> np.ndarray:
    """Global importance: mean |attribution| per feature over the given rows,
    binned once for all of them; no tree is walked for the raw margins."""
    X = np.asarray(X, dtype=float)
    codes = bin_matrix(model.mapper, X).astype(np.int64)
    total = np.zeros(model.n_features)
    memo = {}
    for x_bin in codes:
        total += np.abs(_attributions(model, x_bin, memo)[0])
    return total / max(1, X.shape[0])


# --- PCA ------------------------------------------------------------------------

@dataclass
class Projection2D:
    coords: np.ndarray          # (n, 2)
    explained: np.ndarray       # fraction of total variance per component
    components: np.ndarray      # (kept_columns, 2) loadings
    kept_columns: list          # indices into the original columns
    dropped_columns: list       # constant columns excluded before analysis


def pca_project(X) -> Projection2D:
    """Project standardized columns onto the two leading eigenvectors of the
    correlation matrix, taken with their eigenvalues from numpy's symmetric
    eigensolver.

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
    lams, vecs = np.linalg.eigh(Z.T @ Z / X.shape[0])  # ascending
    lams, V = lams[:-3:-1], vecs[:, :-3:-1]  # the leading two, descending
    V = V * np.sign(V[np.argmax(np.abs(V), axis=0), [0, 1]])
    return Projection2D(coords=Z @ V,
                        # the trace of the correlation matrix is len(kept)
                        explained=np.maximum(lams, 0.0) / len(kept),
                        components=V,
                        kept_columns=kept,
                        dropped_columns=dropped)


# --- silhouette -------------------------------------------------------------------

def _distance_sums(Q: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each point's summed distance to the points of each label, shape
    (n, labels), for points ``Q`` ordered by label, ``sizes[j]`` of label
    ``j``; each label's distances then form one run of columns.

    The distances are computed for blocks of ``SILHOUETTE_CELLS // n`` rows
    (one at least), so memory grows as block x n, not n²: a block adds the
    squared differences feature by feature to zeros, takes their square
    root, and sums each label's run row by row, the operations a full n x n
    matrix would take, so every sum keeps its bits.
    """
    n = Q.shape[0]
    ends = sizes.cumsum()
    runs = list(zip((ends - sizes).tolist(), ends.tolist()))
    sums = np.empty((n, sizes.size))
    step = max(1, SILHOUETTE_CELLS // n)
    D = np.empty((min(step, n), n))
    diff = np.empty_like(D)
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        Db, db = D[:r1 - r0], diff[:r1 - r0]
        Db.fill(0.0)
        for c in range(Q.shape[1]):
            np.subtract.outer(Q[r0:r1, c], Q[:, c], out=db)
            Db += np.multiply(db, db, out=db)
        np.sqrt(Db, out=Db)
        for j, (s, e) in enumerate(runs):
            sums[r0:r1, j] = Db[:, s:e].sum(axis=1)
    return sums


def silhouette_score(points, labels) -> float:
    """Mean (b - a) / max(a, b) over points; singleton-cluster points score 0.

    The points are ordered by label, stably, so each label's distances form
    one run of columns; each point's sum over a run then adds the same
    terms in the same order as a sum over that label's points would.
    ``_distance_sums`` takes those sums in row blocks.
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
    sizes = np.bincount(group)
    sums = _distance_sums(Q, sizes)
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
