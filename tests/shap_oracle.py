"""Exact Shapley values by full coalition enumeration: the test oracle for
TreeSHAP.  It evaluates the same cover-weighted value function as
``hyposcreen.explain.tree_shap``, exponentially in the feature count."""

import math

import numpy as np

from hyposcreen.explain import ShapAttribution
from hyposcreen.model.binning import bin_matrix

EXACT_LIMIT = 15


def _walk_conditional(tree, x_bin, mask: int) -> float:
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


def exact_shapley_oracle(model, row) -> ShapAttribution:
    """Shapley values of the cover-weighted value function; raises
    ValueError above ``EXACT_LIMIT`` features."""
    d = model.n_features
    if d > EXACT_LIMIT:
        raise ValueError(f"exact enumeration over {d} features exceeds limit "
                         f"{EXACT_LIMIT}")
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
