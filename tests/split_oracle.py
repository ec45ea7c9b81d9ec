"""Test oracles for the booster.

``best_split_oracle`` is the full-histogram split search, the reference for
the presorted row scan (``histboost._scan_node``): it scans every (feature,
bin) of one node's gradient, hessian and count histograms, as the booster did
before it scanned the node's rows.  ``scan_node_oracle`` is the row scan on
two float lanes, gradients and hessians apart, with the candidates' flat
positions mapped to prefix positions by arithmetic: the bit-for-bit reference
for the complex scan.  ``grow_tree_oracle`` and ``boost_oracle`` are the tree
growth and round loop as they were before the booster shared one sigmoid per
round and one gradient-hessian buffer across rounds, built every child's
sorted arrays and took the loss from ``log_loss`` (the mean binary
cross-entropy): the reference for ``histboost._grow_tree`` and
``histboost._boost``.  ``tree_outputs`` and
``predict_raw_oracle`` are the prediction as it was before every tree was
walked at once: one tree at a time, node by node, each node splitting the
rows that reach it; the reference for ``histboost.predict_raw``.  No oracle
calls the booster's own scan or walk."""

import heapq
import itertools

import numpy as np

from hyposcreen.model.binning import bin_matrix
from hyposcreen.model.histboost import L2_LEAF, Tree, build_histograms
from hyposcreen.util import sigmoid


def log_loss(y, p) -> float:
    """Mean binary cross-entropy; probabilities are clipped away from {0, 1}."""
    p = np.clip(np.asarray(p, dtype=float), 1e-15, 1.0 - 1e-15)
    y = np.asarray(y, dtype=float)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def bin_counts(mapper):
    """The bin count of each feature of a ``BinMapper``."""
    return np.array([len(t) + 1 for t in mapper.thresholds], dtype=np.int64)


def best_split_oracle(binned, idx, g, h, n_bins, min_leaf):
    """``(gain, feature, bin)`` of the best split of the node holding rows
    ``idx``, or None when no split has a positive gain.

    The histograms are accumulated from the node's rows directly, so a bin
    no row occupies sums to exactly 0.0.  Ties go to the first (feature, then
    bin) candidate whose gain is within a relative 1e-12 of the largest.
    """
    stride = int(n_bins.max())
    G, H, C = build_histograms(binned, idx, g, h, stride)
    bins_ok = np.arange(stride - 1)[None, :] < (n_bins[:, None] - 1)
    GL = np.cumsum(G, axis=1)[:, :-1]
    HL = np.cumsum(H, axis=1)[:, :-1]
    CL = np.cumsum(C, axis=1)[:, :-1]
    Gt = G.sum(axis=1, keepdims=True)
    Ht = H.sum(axis=1, keepdims=True)
    Ct = C.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = 0.5 * (GL * GL / (HL + L2_LEAF)
                      + (Gt - GL) ** 2 / (Ht - HL + L2_LEAF)
                      - Gt * Gt / (Ht + L2_LEAF))
    valid = bins_ok & (CL >= min_leaf) & (Ct - CL >= min_leaf)
    gain = np.where(valid & np.isfinite(gain), gain, -np.inf)
    top = gain.max() if gain.size else -np.inf
    if not top > 0.0:
        return None
    pos = int(np.argmax(gain >= top - 1e-12 * top))
    f, b = divmod(pos, gain.shape[1])
    return float(gain.flat[pos]), int(f), int(b)


def scan_node_oracle(gh, order, codes, gt, ht, min_leaf):
    """``(gain, feature, n_left)`` of the best split of a node with ``k >=
    2 * min_leaf`` rows, or None, as ``histboost._scan_node`` returns it;
    ``gh`` stacks the gradients and hessians as two float rows, shape
    (2, n)."""
    k = order.shape[1]
    lo, hi = min_leaf - 1, k - min_leaf
    edge = np.flatnonzero(codes[:, lo:hi] != codes[:, lo + 1:hi + 1])
    if not edge.size:
        return None
    f_of = edge // (hi - lo)
    at = edge + lo * (f_of + 1)
    GL, HL = np.cumsum(gh[:, order[:, :hi]], axis=2).reshape(2, -1)[:, at]
    gain = 0.5 * (GL * GL / (HL + L2_LEAF)
                  + (gt - GL) ** 2 / (ht - HL + L2_LEAF)
                  - gt * gt / (ht + L2_LEAF))
    top = gain.max()
    if not top > 0.0:
        return None
    first = int(np.argmax(gain >= top - 1e-12 * top))
    f = int(f_of[first])
    return float(gain[first]), f, int(at[first]) - f * hi + 1


def grow_tree_oracle(g, h, params, order, codes):
    """``(tree, stopped, out)`` as ``histboost._grow_tree`` returns them, from
    the gradients ``g`` and hessians ``h`` as two arrays."""
    d, n = order.shape
    min_leaf = params.min_samples_leaf
    gh = np.stack((g, h))

    feature, split_bin = [], []
    left, right, value, cover = [], [], [], []
    leaf_rows = {}
    heap = []
    tiebreak = itertools.count()

    def new_node(idx, order, codes) -> int:
        feature.append(-1)
        split_bin.append(-1)
        left.append(-1)
        right.append(-1)
        gt = float(g[idx].sum())
        ht = float(h[idx].sum())
        denom = ht + L2_LEAF
        value.append(0.0 if denom <= 0.0 else -gt / denom)
        cover.append(int(idx.size))
        node_id = len(feature) - 1
        leaf_rows[node_id] = idx
        if idx.size >= 2 * min_leaf:
            best = scan_node_oracle(gh, order, codes, gt, ht, min_leaf)
            if best is not None:
                gain, f, n_left = best
                heapq.heappush(heap, (-gain, next(tiebreak), node_id, idx,
                                      order, codes, f, n_left))
        return node_id

    new_node(np.arange(n), order, codes)
    n_leaves = 1
    while heap and n_leaves < params.max_leaves:
        _, _, node_id, idx, order, codes, f, n_left = heapq.heappop(heap)
        goes = np.zeros(n, dtype=bool)
        goes[order[f, :n_left]] = True
        to_left = goes[order]
        feature[node_id] = f
        split_bin[node_id] = int(codes[f, n_left - 1])
        value[node_id] = 0.0
        del leaf_rows[node_id]
        n_leaves += 1
        in_left = goes[idx]
        for side, rows, cells in ((left, idx[in_left], to_left),
                                  (right, idx[~in_left], ~to_left)):
            at = np.flatnonzero(cells)
            side[node_id] = new_node(rows, order.take(at).reshape(d, -1),
                                     codes.take(at).reshape(d, -1))

    tree = Tree(feature=np.array(feature, dtype=np.int64),
                split_bin=np.array(split_bin, dtype=np.int64),
                left=np.array(left, dtype=np.int64),
                right=np.array(right, dtype=np.int64),
                value=np.array(value, dtype=float),
                cover=np.array(cover, dtype=float))
    out = np.empty(n)
    for node_id, idx in leaf_rows.items():
        out[idx] = value[node_id]
    return tree, bool(heap), out


def boost_oracle(codes, y, params, base_score):
    """``(trees, capped)`` of the round loop of ``histboost._boost``, with
    fresh gradient and hessian arrays every round."""
    order = np.argsort(codes.T, axis=1, kind="stable")
    sorted_codes = np.take_along_axis(codes.T, order, axis=1)
    raw = np.full(codes.shape[0], base_score)
    trees = []
    capped = False
    for _ in range(params.n_trees):
        p = sigmoid(raw)
        g = p - y
        h = p * (1.0 - p)
        tree, stopped, out = grow_tree_oracle(g, h, params, order, sorted_codes)
        capped = capped or stopped
        trees.append(tree)
        raw = raw + params.learning_rate * out
    return trees, capped


def tree_outputs(tree, binned):
    """Each row's leaf value; only nodes that some row reaches are visited."""
    out = np.empty(binned.shape[0])
    stack = [(0, np.arange(binned.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if tree.feature[node] < 0:
            out[idx] = tree.value[node]
            continue
        go_left = binned[idx, tree.feature[node]] <= tree.split_bin[node]
        for child, rows in ((tree.left[node], idx[go_left]),
                            (tree.right[node], idx[~go_left])):
            if rows.size:
                stack.append((int(child), rows))
    return out


def predict_raw_oracle(model, X):
    """``histboost.predict_raw`` tree by tree: ``raw += lr * out`` per tree."""
    binned = bin_matrix(model.mapper, X).astype(np.int64)
    raw = np.full(binned.shape[0], model.base_score)
    for tree in model.trees:
        raw += model.params.learning_rate * tree_outputs(tree, binned)
    return raw
