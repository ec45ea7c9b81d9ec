"""The full-histogram split search: the test oracle for the booster's
presorted row scan (``histboost._scan_node``).  It scans every (feature, bin)
of one node's gradient, hessian and count histograms, as the booster did
before it scanned the node's rows."""

import numpy as np

from hyposcreen.model.histboost import L2_LEAF, build_histograms


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
