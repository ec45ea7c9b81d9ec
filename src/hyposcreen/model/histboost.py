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

Each round keeps its gradients and hessians as one complex vector, ``g`` in
the real part and ``h`` in the imaginary part, so a node gathers both with
one ``take`` and sums both prefixes with one ``cumsum``.  A complex addition
is two independent float additions, one per lane, made in the same order as
a float prefix sum of that lane, so every prefix, gain and split is the one
two float scans give, bit for bit.  A node's totals are the exception: they
are a float ``.sum()`` of each lane, because a complex ``.sum()`` blocks its
pairwise summation differently and changes their bits.  A child with fewer
than ``2 * min_samples_leaf`` rows can never be split, so growth builds no
sorted row orders or codes for it.

The scan's cost grows with the node's rows rather than with the bin count.
It replaced a scan of full ``d x max_bins`` histograms, and with it the bits
of training changed: gains are summed in another order and exact ties follow
the rule above, so trained models differ from those of the histogram scan in
their last bits and sometimes in a split.  At the pipeline's scale, a few
hundred rows, it is faster per tree; on 30 features with 255 bins it breaks
even at about 4,000 rows and is slower above (1.4x at 8,000 rows).

A caller that fits several candidates on one training set can pass
``fit_histgbm`` a memo dict, and a model grown earlier is then returned
instead of being grown again when it is provably the same model.  A memo
serves only fits on the matrix it was made for, so the caller keeps one per
training matrix and drops it with that matrix: ``fit_stacking_ensemble``
makes one per inner fold and one for its final refit, and a finished
fold's memo, grown models and presorted codes are freed with the fold.  The
boosted trees depend only on the binned codes, the bin counts, ``y`` and the
parameters (the float matrix and ``max_bins`` fix the codes and counts), and
``max_leaves`` only truncates best-first growth: the heap
pops the same nodes in the same order under any cap, and the cap stops the
popping.  A model whose trees all ended with an empty heap, the widest with
``widest`` leaves, is therefore the same model under every cap
``>= widest``; one in which some tree stopped at its cap ``c`` (so
``widest == c``) is the same model only under cap ``c``.  Each tree's
gradients come from the trees before it, so the argument carries from tree
to tree.  The memo key holds the bytes of the float matrix and ``y`` and
every parameter but ``max_leaves``, so a memo shared too widely still
returns no model grown on other data, and a fit the memo serves bins
nothing but its thresholds.  A served model shares the grown model's packed
node table, and its thresholds are fit on the same matrix, so it predicts
every row exactly as the grown model does.  ``predict_columns`` is the one
place that shares predictions: it bins some rows once per distinct mapper
and walks them once per node table, for every model it is given.  The same
matrix keys one more memo entry per (matrix, ``max_bins``): the binned codes
in each feature's stable row order, which depend on nothing else, so the
fits grown on one matrix bin and sort it once between them.

``predict_raw`` walks all of a model's trees at once.  The trees are packed
into one node table with node ids that run on from tree to tree, in which a
leaf is its own child; every (tree, row) pair then takes the same number of
steps, the depth of the deepest tree, each a gather of the node's feature
and split bin, a compare, and a gather of the child.  The walk runs over
blocks of at most ``WALK_PAIRS`` pairs, so its arrays stay small at any row
count, and the tree outputs are added to the margins in tree order, so every
margin has the bits of a tree-by-tree walk.  A grown model's trees are
packed once, for every fit the memo serves from them.  A loaded model is
checked on load: its parameters are in their declared ranges, its
``base_score``, node values and bin thresholds are finite, each node's
cover is a finite count of at least 1, each feature's thresholds rise
strictly and are fewer than ``max_bins``, and its trees are packed and
checked first (children in range, every node reached exactly once from the
root, leaves without children).  A malformed artifact raises
:class:`ArtifactError` instead of reading out of range, walking a cycle or
scoring every row alike.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, fields

import numpy as np

from ..errors import ArtifactError, DataError, DegenerateParams, EmptyMatrix, SingleClass
from ..util import check_fields, require_binary, sigmoid
from .binning import BinMapper, bin_matrix, fit_bins

L2_LEAF = 1.0  # ridge penalty on leaf values
WALK_PAIRS = 1 << 16  # (tree, row) pairs a prediction walks at once


@dataclass
class BoostParams:
    n_trees: int = field(default=200, metadata={"range": "[1, inf)"})
    learning_rate: float = field(default=0.1, metadata={"range": "(0, 1]"})
    max_leaves: int = field(default=31, metadata={"range": "[2, inf)"})
    min_samples_leaf: int = field(default=20, metadata={"range": "[1, inf)"})
    max_bins: int = field(default=255, metadata={"range": "[2, 255]"})

    def validate(self) -> None:
        check_fields(self, "", DegenerateParams)

    def to_dict(self) -> dict:
        # the fields are scalars: asdict's deep copy would return them as is
        return {f.name: getattr(self, f.name) for f in fields(self)}

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
            "feature": self.feature.tolist(),
            "split_bin": self.split_bin.tolist(),
            "left": self.left.tolist(),
            "right": self.right.tolist(),
            "value": self.value.tolist(),
            "cover": self.cover.astype(np.int64).tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Tree":
        """The tree saved as ``d``.  Its index arrays must hold JSON integers:
        read as int64, a fraction would be truncated and 1e400 would overflow."""
        index = {}
        for name in ("feature", "split_bin", "left", "right"):
            # numpy gives a list a signed integer dtype only if it holds integers
            # that fit int64; an empty list is float, and _node_table rejects it
            values = np.array(d[name])
            if values.size and values.dtype.kind != "i":
                raise ArtifactError(f"a tree's {name} must hold integers only")
            index[name] = values.astype(np.int64, copy=False)
        return cls(**index, value=np.array(d["value"], dtype=float),
                   cover=np.array(d["cover"], dtype=float))


@dataclass(eq=False)
class BoostedModel:
    params: BoostParams
    mapper: BinMapper
    base_score: float
    trees: list
    _nodes: "_NodeTable | None" = field(default=None, init=False, repr=False)

    @property
    def n_features(self) -> int:
        return len(self.mapper.thresholds)

    def nodes(self) -> "_NodeTable":
        """The trees as one node table, packed on first use."""
        if self._nodes is None:
            self._nodes = _node_table(self.trees)
        return self._nodes

    def bin(self, X) -> np.ndarray:
        """``X``'s bin codes under this model's thresholds: what
        ``predict_raw`` and ``tree_shap`` take as ``codes``."""
        return bin_matrix(self.mapper, X)

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "bins": self.mapper.to_dict(),
            "base_score": float(self.base_score),
            "trees": [t.to_dict() for t in self.trees],
        }

    @classmethod
    def from_dict(cls, d: dict, width: int) -> "BoostedModel":
        """The model saved as ``d``, which must bin ``width`` features."""
        params = BoostParams.from_dict(d["params"])
        check_fields(params, "params.", ArtifactError)
        model = cls(params=params,
                    mapper=BinMapper.from_dict(d["bins"], params.max_bins),
                    base_score=float(d["base_score"]),
                    trees=[Tree.from_dict(t) for t in d["trees"]])
        if model.n_features != width:
            raise ArtifactError(f"bins.thresholds cover {model.n_features} features, "
                                f"not the {width} the artifact names")
        if not np.isfinite(model.base_score):
            raise ArtifactError(f"base_score is {model.base_score!r}, not finite")
        # checked on load: a malformed tree fails here, not on its first walk
        model._nodes = _node_table(model.trees, width)
        return model


@dataclass(frozen=True)
class _NodeTable:
    """A model's trees as one node table, node ids running on from tree to
    tree.  ``children[2 * i]`` and ``children[2 * i + 1]`` are node ``i``'s
    left and right child; a leaf is its own two children and reads feature
    0, so a walk that has reached a leaf stays there and every (tree, row)
    pair can take ``depth`` steps with no test for leaves."""

    roots: np.ndarray      # (trees,) each tree's root
    feature: np.ndarray    # (nodes,)
    split_bin: np.ndarray  # (nodes,)
    children: np.ndarray   # (2 * nodes,)
    value: np.ndarray      # (nodes,)
    depth: int             # edges on the longest root-to-leaf path


def _node_table(trees: list, width: int | None = None) -> _NodeTable:
    """Pack ``trees`` into one node table.

    Trees the booster grew are packed as they are.  Trees read from an
    artifact come with the ``width`` of the binned rows and are checked
    first: each tree's arrays agree in length, an internal node splits on
    one of the ``width`` features and has both children in range, a leaf has
    no children, and every node is reached exactly once from the root.  A
    tree that fails raises :class:`ArtifactError`, so no walk reads out of
    range or follows a cycle, and so does a non-finite node value or a
    cover below 1."""
    sizes = np.array([t.n_nodes for t in trees], dtype=np.int64)
    if width is not None:
        for i, t in enumerate(trees):
            n = (int(sizes[i]),)
            if not n[0] or any(a.shape != n for a in (t.feature, t.split_bin, t.left,
                                                      t.right, t.value, t.cover)):
                raise ArtifactError(f"tree {i}: node arrays are empty or differ in length")

    def cat(name):
        return np.concatenate([getattr(t, name) for t in trees]
                              + [np.empty(0, dtype=np.int64)])

    feature, left, right, value = cat("feature"), cat("left"), cat("right"), cat("value")
    roots = sizes.cumsum() - sizes
    owner = np.repeat(np.arange(sizes.size), sizes)
    start = roots[owner]
    internal = feature >= 0
    ids = np.arange(feature.size)

    def fail(where, what):
        i = int(where.nonzero()[0][0])
        raise ArtifactError(f"tree {owner[i]}: node {i - start[i]} {what}")

    if width is not None:
        in_range = ((left >= 0) & (left < sizes[owner])
                    & (right >= 0) & (right < sizes[owner]))
        if (internal & ~in_range).any():
            fail(internal & ~in_range, "has a child index out of range")
        if (~internal & ((left != -1) | (right != -1))).any():
            fail(~internal & ((left != -1) | (right != -1)), "is a leaf with children")
        if (feature >= width).any():
            fail(feature >= width, f"splits on a feature outside the model's {width}")
        cover = cat("cover")  # explain divides by it
        for bad, what in ((~np.isfinite(value), "has a value that is not finite"),
                          (~(np.isfinite(cover) & (cover >= 1)),
                           "has a cover that is not a finite count of at least 1")):
            if bad.any():
                fail(bad, what)
    left = np.where(internal, left + start, ids)
    right = np.where(internal, right + start, ids)
    if width is not None:
        # one parent for every node, a root's being its tree: then the walk
        # below visits no node twice, and it must still reach them all
        parents = np.bincount(np.concatenate((roots, left[internal], right[internal])),
                              minlength=feature.size)
        if (parents != 1).any():
            fail(parents != 1, "is not reached exactly once from the root")
    reached = np.zeros(feature.size, dtype=bool)
    reached[roots] = True
    depth, front = 0, roots
    while True:
        front = front[internal[front]]
        if not front.size:
            break
        front = np.concatenate((left[front], right[front]))
        reached[front] = True
        depth += 1
    if width is not None and not reached.all():
        fail(~reached, "is not reached from the root")
    return _NodeTable(roots=roots, feature=np.where(internal, feature, 0),
                      split_bin=cat("split_bin"),
                      children=np.stack((left, right), axis=1).ravel(),
                      value=value, depth=depth)


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
    """The trees of one fit, with what decides which leaf caps they serve:
    the cap they were grown with, the most leaves in any tree, and whether
    some tree stopped at the cap with splits left to make."""

    trees: tuple
    cap: int
    widest: int
    capped: bool
    nodes: _NodeTable  # the trees packed once for every model they serve

    def serves(self, cap: int) -> bool:
        return self.widest <= cap and (not self.capped or cap <= self.cap)


def _scan_node(gh, order, codes, gt: float, ht: float, min_leaf: int):
    """Best split of one node with ``k >= 2 * min_leaf`` rows, from its rows
    in per-feature sorted order.

    ``gh`` holds every training row's gradient in its real part and hessian
    in its imaginary part, ``order[f]`` lists the node's rows sorted by their
    code on feature ``f`` and ``codes[f]`` holds those codes; ``gt`` and
    ``ht`` are the node's totals, each a float ``.sum()`` of its lane (a
    complex ``.sum()`` pairs its additions differently and changes their
    bits).  One ``cumsum`` of the gathered complex rows gives both prefix
    sums: a complex addition is the two float additions of its lanes, in the
    same order, so each prefix is the one a float scan of that lane gives,
    bit for bit.  Only positions where the code changes are candidates, so a
    split never lands on an unoccupied bin.  Returns ``(gain, feature,
    n_left)`` for the first (feature, then bin) candidate whose gain is
    within a relative 1e-12 of the largest, or None when no candidate has a
    positive gain.
    """
    k = order.shape[1]
    lo, hi = min_leaf - 1, k - min_leaf  # band of the last left row's position
    # candidates in (feature, bin) order, as flat positions in the (d, hi)
    # prefix array: the positions before the band are cleared, so no index
    # arithmetic is needed (integer takes: numpy's boolean indexing is slower
    # here; array methods rather than their np.* wrappers, which cost per call)
    edge = codes[:, :hi] != codes[:, 1:hi + 1]
    edge[:, :lo] = False
    edge = edge.ravel().nonzero()[0]
    if not edge.size:
        return None
    GHL = gh.take(order[:, :hi]).cumsum(axis=1).take(edge)
    GL, HL = GHL.real, GHL.imag
    # 0.5 * (GL**2 / (HL + l2) + (gt - GL)**2 / (ht - HL + l2) - gt**2 / (ht + l2)),
    # operation by operation in that order, in place
    gain = GL * GL
    t = HL + L2_LEAF
    gain /= t
    r = gt - GL
    r *= r
    np.subtract(ht, HL, out=t)
    t += L2_LEAF
    r /= t
    gain += r
    gain -= gt * gt / (ht + L2_LEAF)
    gain *= 0.5
    top = np.maximum.reduce(gain)  # gain.max() without its Python wrapper
    if not top > 0.0:
        return None
    first = int((gain >= top - 1e-12 * top).argmax())
    f, at = divmod(int(edge[first]), hi)
    return float(gain[first]), f, at + 1


def _grow_tree(gh: np.ndarray, params: BoostParams, order: np.ndarray,
               codes: np.ndarray) -> tuple[Tree, bool, np.ndarray]:
    """One tree, whether ``max_leaves`` stopped it with splits left, and each
    training row's leaf value, from the row sets the growth partitioned.

    ``gh`` holds every training row's gradient in its real part and hessian
    in its imaginary part, shape (n,); ``order`` is every feature's stable
    row order by bin code, shape (d, n), and ``codes`` the codes in that
    order.  A child with fewer than ``2 * min_samples_leaf`` rows cannot be
    split, so its rows' orders and codes are never built."""
    d, n = order.shape
    min_leaf = params.min_samples_leaf

    feature, split_bin = [], []
    left, right, value, cover = [], [], [], []
    leaf_rows = {}  # node id -> training rows, for the current leaves
    heap = []
    tiebreak = itertools.count()

    def new_node(idx, order=None, codes=None) -> int:
        feature.append(-1)
        split_bin.append(-1)
        left.append(-1)
        right.append(-1)
        # a float sum per lane, not a complex sum (see the module docstring),
        # by the reduce that .sum() calls, without its Python wrapper
        node_gh = gh.take(idx)
        gt = float(np.add.reduce(node_gh.real))
        ht = float(np.add.reduce(node_gh.imag))
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
        feature[node_id] = f
        split_bin[node_id] = int(codes[f, n_left - 1])
        value[node_id] = 0.0
        del leaf_rows[node_id]
        n_leaves += 1
        in_left = goes[idx]
        to_left = None
        for side, rows, is_left in ((left, idx[in_left], True),
                                    (right, idx[~in_left], False)):
            if rows.size < 2 * min_leaf:  # never scanned: no sorted arrays
                side[node_id] = new_node(rows)
                continue
            if to_left is None:
                to_left = goes[order]
            at = (to_left if is_left else ~to_left).ravel().nonzero()[0]
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


def _memo_keys(X: np.ndarray, y: np.ndarray, params: BoostParams) -> tuple:
    """The memo keys of a fit's model and of its matrix's presorted codes:
    the codes are keyed on ``X`` and ``max_bins``, the model on ``X``, ``y``
    and every parameter but ``max_leaves``.  The keys hold the bytes of
    ``X`` (one copy for both) and ``y``, so only equal data match."""
    matrix = (X.shape, np.ascontiguousarray(X).tobytes())
    rest = tuple(sorted((f.name, getattr(params, f.name)) for f in fields(params)
                        if f.name != "max_leaves"))
    return (matrix, np.ascontiguousarray(y).tobytes(), rest), (matrix, params.max_bins)


def _presort(codes: np.ndarray) -> tuple:
    """Each feature's stable row order by bin code, shape (d, n), and the
    codes in that order: what every tree of every fit on ``codes`` grows
    from."""
    order = np.argsort(codes.T, axis=1, kind="stable")
    return order, np.take_along_axis(codes.T, order, axis=1)


def _boost(presorted: tuple, y, params: BoostParams, base_score: float) -> _Grown:
    """Grow ``params.n_trees`` trees from ``_presort``'s ``(order, codes)``
    of the binned training matrix."""
    order, sorted_codes = presorted
    n = order.shape[1]
    raw = np.full(n, base_score)
    gh = np.empty(n, dtype=complex)  # each round's gradients + 1j * hessians
    trees = []
    capped = False
    for _ in range(params.n_trees):
        p = sigmoid(raw)
        np.subtract(p, y, out=gh.real)
        np.multiply(p, 1.0 - p, out=gh.imag)
        tree, stopped, out = _grow_tree(gh, params, order, sorted_codes)
        capped = capped or stopped
        trees.append(tree)
        raw += params.learning_rate * out
    widest = max(np.count_nonzero(t.feature < 0) for t in trees)
    return _Grown(trees=tuple(trees), cap=params.max_leaves,
                  widest=widest, capped=capped, nodes=_node_table(trees))


def fit_histgbm(X, y, params: BoostParams | None = None,
                memo: dict | None = None) -> BoostedModel:
    """Fit the boosted classifier.

    ``memo`` is a dict the caller owns and passes to every fit whose model
    may be reused; it maps the data and parameters to the models grown
    under them, and the matrix and ``max_bins`` to the presorted codes they
    grew from (see the module docstring).  The returned model always carries
    this call's ``params`` and bin thresholds.  A label outside {0, 1} or a
    non-finite cell raises :class:`OutOfRange`.
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
    if y.min() == y.max():
        raise SingleClass()

    mapper = fit_bins(X, params.max_bins)
    p_mean = float(np.mean(y))
    base_score = float(np.log(p_mean / (1.0 - p_mean)))

    memo = {} if memo is None else memo
    model_key, codes_key = _memo_keys(X, y, params)
    grown_here = memo.setdefault(model_key, [])
    grown = next((e for e in grown_here if e.serves(params.max_leaves)), None)
    if grown is None:
        if codes_key not in memo:
            memo[codes_key] = _presort(bin_matrix(mapper, X))
        grown = _boost(memo[codes_key], y, params, base_score)
        grown_here.append(grown)
    model = BoostedModel(params=params, mapper=mapper, base_score=base_score,
                         trees=list(grown.trees))
    model._nodes = grown.nodes
    return model


def predict_raw(model: BoostedModel, X, codes: np.ndarray | None = None) -> np.ndarray:
    """base_score plus the learning-rate-scaled sum of tree outputs.

    ``codes`` are ``model.bin(X)`` when the caller has them already, say
    from one binning shared by models with equal thresholds; ``X`` is then
    not read.

    Every tree is walked at once over blocks of at most ``WALK_PAIRS``
    (tree, row) pairs: ``depth`` rounds of gathering each pair's node
    feature and split bin, comparing the row's code, and gathering the child
    (see ``_NodeTable``).  The outputs are then added to ``base_score`` in
    tree order by ``np.add.accumulate``, which adds row after row, so every
    margin has the bits of a loop of ``raw += lr * out`` over the trees.
    """
    if codes is None:
        codes = model.bin(X)
    n, d = codes.shape
    nodes = model.nodes()
    flat = codes.ravel()
    raw = np.empty(n)
    step = max(1, WALK_PAIRS // max(1, nodes.roots.size))
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        row_at = np.arange(r0 * d, r1 * d, d)  # each row's first code in flat
        node = np.repeat(nodes.roots[:, None], r1 - r0, axis=1)  # (trees, rows)
        for _ in range(nodes.depth):
            code = flat.take(nodes.feature.take(node) + row_at)
            go_right = code > nodes.split_bin.take(node)
            node *= 2
            node += go_right
            node = nodes.children.take(node)
        terms = np.empty((node.shape[0] + 1, r1 - r0))
        terms[0] = model.base_score
        np.multiply(model.params.learning_rate, nodes.value.take(node), out=terms[1:])
        raw[r0:r1] = np.add.accumulate(terms, axis=0)[-1]
    return raw


def predict_proba(model: BoostedModel, X, codes: np.ndarray | None = None) -> np.ndarray:
    return sigmoid(predict_raw(model, X, codes))


def predict_columns(models, X) -> np.ndarray:
    """Each model's probabilities on the rows ``X``, one column per model,
    each with the bits of ``predict_proba(model, X)``.

    The rows are binned once per distinct mapper (equal ``max_bins`` and
    thresholds) and walked once per distinct (node table, codes,
    ``base_score``, learning rate).  The fits a memo served from one grown
    model share its node table, so they share one walk; a loaded artifact
    has a node table per model and walks each.
    """
    codes, walked, columns = {}, {}, []
    for model in models:
        bins = model.mapper.key()
        if bins not in codes:
            codes[bins] = model.bin(X)
        # the models hold their node tables, so no id is reused in the loop
        walk = (id(model.nodes()), bins, model.base_score, model.params.learning_rate)
        if walk not in walked:
            walked[walk] = predict_proba(model, X, codes[bins])
        columns.append(walked[walk])
    return np.column_stack(columns)
