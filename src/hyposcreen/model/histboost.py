"""Gradient-boosted trees on binned features, for binary classification.

Trees are grown best-first.  Each node's split is found by scanning the
node's own rows in per-feature sorted order (the exact greedy scan of Chen &
Guestrin, KDD 2016, section 3.1, run on bin codes): each feature's rows are
sorted by code once per fit, a node takes one prefix sum of its gradients and
hessians in that order, and a gain is evaluated wherever the code changes
between the ``min_samples_leaf`` bounds.  A child's row orders are its
parent's with the sibling's rows dropped, so no histogram is built and no
split lands on a bin that no row of the node occupies.  Of the candidates
whose gain is within a relative 1e-12 of the best, the split takes the lowest
feature index, then the lowest bin, so gains that are equal in exact
arithmetic but differ in rounding are ties, and fits are fully deterministic.

The scan's cost grows with the node's rows rather than with the bin count.
It replaced a scan of full ``d x max_bins`` histograms, and with it the bits
of training changed: gains are summed in another order and exact ties follow
the rule above, so trained models differ from those of the histogram scan in
their last bits and sometimes in a split.  At the pipeline's scale, a few
hundred rows, it is faster per tree; on 30 features with 255 bins it breaks
even at about 4,000 rows and is slower above (1.4x at 8,000 rows).

A caller that fits several candidates on one training set can pass
``fit_histgbm`` a memo dict, and a model grown earlier is then returned
instead of being grown again when it is provably the same model.  The
boosted trees depend only on the binned codes, the bin counts, ``y`` and the
parameters (the float matrix and ``max_bins`` fix the codes and counts), and
``max_leaves`` only truncates best-first growth: the heap
pops the same nodes in the same order under any cap, and the cap stops the
popping.  A model whose trees all ended with an empty heap, the widest with
``widest`` leaves, is therefore the same model under every cap
``>= widest``; one in which some tree stopped at its cap ``c`` (so
``widest == c``) is the same model only under cap ``c``.  Each tree's
gradients come from the trees before it, so the argument carries from tree
to tree.  The memo key is a digest of the float matrix, ``y`` and every
parameter but ``max_leaves``, so a memo shared too widely still returns no
model grown on other data, and a fit the memo serves bins nothing but its
thresholds.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from dataclasses import asdict, dataclass

import numpy as np

from ..errors import ArtifactError, DataError, DegenerateParams, EmptyMatrix, SingleClass
from ..util import log_loss, require_binary, sigmoid
from .binning import BinMapper, bin_matrix, fit_bins

SCHEMA_VERSION = 1
L2_LEAF = 1.0  # ridge penalty on leaf values


@dataclass
class BoostParams:
    n_trees: int = 200
    learning_rate: float = 0.1
    max_leaves: int = 31
    min_samples_leaf: int = 20
    max_bins: int = 255

    def validate(self) -> None:
        if self.n_trees < 1:
            raise DegenerateParams(f"n_trees must be >= 1, got {self.n_trees}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise DegenerateParams(
                f"learning_rate must be in (0, 1], got {self.learning_rate}")
        if self.max_leaves < 2:
            raise DegenerateParams(f"max_leaves must be >= 2, got {self.max_leaves}")
        if self.min_samples_leaf < 1:
            raise DegenerateParams("min_samples_leaf must be >= 1")
        if not 2 <= self.max_bins <= 255:
            raise DegenerateParams(f"max_bins must be in [2, 255], got {self.max_bins}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "BoostParams":
        # other keys are ignored, so artifacts that still carry the retired
        # max_depth, l2_leaf and feature_fraction settings load unchanged
        return cls(**{k: d[k] for k in cls().to_dict() if k in d})


@dataclass(eq=False)
class Tree:
    """Flat arrays; ``feature[i] == -1`` marks a leaf.  A sample goes left
    when its bin index is <= ``split_bin`` at the node."""

    feature: np.ndarray
    split_bin: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    cover: np.ndarray  # training rows that reached the node

    @property
    def n_nodes(self) -> int:
        return self.feature.shape[0]

    def to_dict(self) -> dict:
        return {
            "feature": [int(v) for v in self.feature],
            "split_bin": [int(v) for v in self.split_bin],
            "left": [int(v) for v in self.left],
            "right": [int(v) for v in self.right],
            "value": [float(v) for v in self.value],
            "cover": [int(v) for v in self.cover],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        return cls(feature=np.array(d["feature"], dtype=np.int64),
                   split_bin=np.array(d["split_bin"], dtype=np.int64),
                   left=np.array(d["left"], dtype=np.int64),
                   right=np.array(d["right"], dtype=np.int64),
                   value=np.array(d["value"], dtype=float),
                   cover=np.array(d["cover"], dtype=float))


@dataclass(eq=False)
class BoostedModel:
    params: BoostParams
    mapper: BinMapper
    base_score: float
    trees: list
    train_loss: list
    n_features: int

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "histgbm",
            "params": self.params.to_dict(),
            "bins": self.mapper.to_dict(),
            "base_score": float(self.base_score),
            "trees": [t.to_dict() for t in self.trees],
            "train_loss": [float(v) for v in self.train_loss],
            "n_features": int(self.n_features),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BoostedModel":
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ArtifactError(f"unsupported schema_version {d.get('schema_version')!r}")
        if d.get("kind") != "histgbm":
            raise ArtifactError(f"unexpected model kind {d.get('kind')!r}")
        return cls(params=BoostParams.from_dict(d["params"]),
                   mapper=BinMapper.from_dict(d["bins"]),
                   base_score=float(d["base_score"]),
                   trees=[Tree.from_dict(t) for t in d["trees"]],
                   train_loss=[float(v) for v in d["train_loss"]],
                   n_features=int(d["n_features"]))


def build_histograms(binned: np.ndarray, idx: np.ndarray, g: np.ndarray,
                     h: np.ndarray, stride: int):
    """Per-feature (gradient, hessian, count) histograms for one node.

    Single bincount pass over flattened (row, feature) bin codes.  Training
    no longer calls it: it is the reference that the split-search oracle
    tests replay the row scan against, and ``perfbench/trace_cli.py`` wraps
    it by name (its ``histboost.hist`` spans).
    """
    d = binned.shape[1]
    flat = (binned[idx] + np.arange(d, dtype=np.int64) * stride).ravel()
    length = d * stride
    C = np.bincount(flat, minlength=length).reshape(d, stride).astype(float)
    G = np.bincount(flat, weights=np.repeat(g[idx], d),
                    minlength=length).reshape(d, stride)
    H = np.bincount(flat, weights=np.repeat(h[idx], d),
                    minlength=length).reshape(d, stride)
    return G, H, C


@dataclass(frozen=True)
class _Grown:
    """The trees and losses of one fit, with what decides which leaf caps
    they serve: the cap they were grown with, the most leaves in any tree,
    and whether some tree stopped at the cap with splits left to make."""

    trees: tuple
    losses: tuple
    cap: int
    widest: int
    capped: bool

    def serves(self, cap: int) -> bool:
        return self.widest <= cap and (not self.capped or cap <= self.cap)


def _scan_node(gh, order, codes, gt: float, ht: float, min_leaf: int):
    """Best split of one node with ``k >= 2 * min_leaf`` rows, from its rows
    in per-feature sorted order.

    ``gh`` stacks every training row's gradient and hessian, ``order[f]``
    lists the node's rows sorted by their code on feature ``f`` and
    ``codes[f]`` holds those codes; ``gt`` and ``ht`` are the node's totals.
    Only positions where the code changes are candidates, so a split never
    lands on an unoccupied bin.  Returns ``(gain, feature, n_left)`` for the
    first (feature, then bin) candidate whose gain is within a relative
    1e-12 of the largest, or None when no candidate has a positive gain.
    """
    k = order.shape[1]
    lo, hi = min_leaf - 1, k - min_leaf  # band of the last left row's position
    # candidates in (feature, bin) order, as flat positions in the (d, hi)
    # prefix arrays (integer takes: numpy's boolean indexing is slower here)
    edge = np.flatnonzero(codes[:, lo:hi] != codes[:, lo + 1:hi + 1])
    if not edge.size:
        return None
    f_of = edge // (hi - lo)
    at = edge + lo * (f_of + 1)
    GL, HL = np.cumsum(gh.take(order[:, :hi], axis=1), axis=2).reshape(2, -1).take(
        at, axis=1)
    gain = 0.5 * (GL * GL / (HL + L2_LEAF)
                  + (gt - GL) ** 2 / (ht - HL + L2_LEAF)
                  - gt * gt / (ht + L2_LEAF))
    top = gain.max()
    if not top > 0.0:
        return None
    first = int(np.argmax(gain >= top - 1e-12 * top))
    f = int(f_of[first])
    return float(gain[first]), f, int(at[first]) - f * hi + 1


def _grow_tree(g, h, params: BoostParams, order: np.ndarray,
               codes: np.ndarray) -> tuple[Tree, bool, np.ndarray]:
    """One tree, whether ``max_leaves`` stopped it with splits left, and each
    training row's leaf value, from the row sets the growth partitioned.

    ``order`` is every feature's stable row order by bin code, shape (d, n),
    and ``codes`` the codes in that order."""
    d, n = order.shape
    min_leaf = params.min_samples_leaf
    gh = np.stack((g, h))

    feature, split_bin = [], []
    left, right, value, cover = [], [], [], []
    leaf_rows = {}  # node id -> training rows, for the current leaves
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
            best = _scan_node(gh, order, codes, gt, ht, min_leaf)
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


def _tree_outputs(tree: Tree, binned: np.ndarray) -> np.ndarray:
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


def _memo_key(X: np.ndarray, y: np.ndarray, params: BoostParams) -> str:
    """Digest of everything a fit depends on except ``max_leaves``."""
    rest = {k: v for k, v in params.to_dict().items() if k != "max_leaves"}
    digest = hashlib.sha256(repr((X.shape, sorted(rest.items()))).encode())
    for a in (X, y):
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def _boost(codes, y, params: BoostParams, base_score: float) -> _Grown:
    # the codes are the same for every tree, so each feature's row order is
    # sorted once per fit
    order = np.argsort(codes.T, axis=1, kind="stable")
    sorted_codes = np.take_along_axis(codes.T, order, axis=1)
    raw = np.full(codes.shape[0], base_score)
    trees, losses = [], []
    capped = False
    for _ in range(params.n_trees):
        p = sigmoid(raw)
        g = p - y
        h = p * (1.0 - p)
        tree, stopped, out = _grow_tree(g, h, params, order, sorted_codes)
        capped = capped or stopped
        trees.append(tree)
        raw = raw + params.learning_rate * out
        losses.append(log_loss(y, sigmoid(raw)))
    widest = max(int(np.sum(t.feature < 0)) for t in trees)
    return _Grown(trees=tuple(trees), losses=tuple(losses), cap=params.max_leaves,
                  widest=widest, capped=capped)


def fit_histgbm(X, y, params: BoostParams | None = None,
                memo: dict | None = None) -> BoostedModel:
    """Fit the boosted classifier; records training log-loss per round.

    ``memo`` is a dict the caller owns and passes to every fit whose model
    may be reused; it maps a digest of the data and parameters to the models
    grown under it (see the module docstring).  The returned model always
    carries this call's ``params`` and bin thresholds.  A label outside
    {0, 1} or a non-finite cell raises :class:`OutOfRange`.
    """
    params = params or BoostParams()
    params.validate()
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyMatrix()
    if X.shape[0] != y.shape[0]:
        raise DataError("row count of X and y differ")
    require_binary(y)
    if np.unique(y).size < 2:
        raise SingleClass()

    mapper = fit_bins(X, params.max_bins)
    p_mean = float(np.mean(y))
    base_score = float(np.log(p_mean / (1.0 - p_mean)))

    grown_here = ([] if memo is None
                  else memo.setdefault(_memo_key(X, y, params), []))
    grown = next((e for e in grown_here if e.serves(params.max_leaves)), None)
    if grown is None:
        grown = _boost(bin_matrix(mapper, X), y, params, base_score)
        grown_here.append(grown)
    return BoostedModel(params=params, mapper=mapper, base_score=base_score,
                        trees=list(grown.trees), train_loss=list(grown.losses),
                        n_features=X.shape[1])


def predict_raw(model: BoostedModel, X) -> np.ndarray:
    """base_score plus the learning-rate-scaled sum of tree outputs."""
    binned = bin_matrix(model.mapper, X).astype(np.int64)
    raw = np.full(binned.shape[0], model.base_score)
    for tree in model.trees:
        raw += model.params.learning_rate * _tree_outputs(tree, binned)
    return raw


def predict_proba(model: BoostedModel, X) -> np.ndarray:
    return sigmoid(predict_raw(model, X))
