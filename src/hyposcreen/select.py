"""Feature selection: coefficient ranking and boosted stepwise search.

The two boosted searches score candidate subsets by pooled out-of-fold AUROC
on a fixed inner fold plan, so every comparison is paired.  Elimination drops
the least important feature (mean |SHAP|) while performance holds;
addition walks a one-shot global importance ranking best-first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .evaluate import auroc
from .explain import mean_abs_shap
from .model.histboost import BoostParams, fit_histgbm, predict_proba
from .model.logistic import fit_logistic
from .preprocess import stratified_kfold
from .util import child_seed

# light booster for subset scoring; selection cost is dominated by refits
SELECTION_PARAMS = BoostParams(n_trees=40, learning_rate=0.2, max_leaves=7,
                               min_samples_leaf=5)
SHAP_ROW_CAP = 128
# the AUROC slack of a subset step: a drop may lose this much, an addition
# must gain more
IMPROVEMENT_EPS = 1e-4


@dataclass
class FeatureRanking:
    method: str
    selected: list
    scores: dict = field(default_factory=dict)
    trace: list = field(default_factory=list)


def rank_features_lr(X, y, feature_names, n_target: int) -> FeatureRanking:
    """Rank by |logistic coefficient| on the scaled matrix, descending, and
    keep the first ``n_target``; ties break by feature name."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != len(feature_names):
        raise DataError("matrix width and feature_names disagree")
    model = fit_logistic(X, y)
    mags = np.abs(model.weights)
    order = sorted(range(len(feature_names)),
                   key=lambda i: (-mags[i], feature_names[i]))
    return FeatureRanking(
        method="lr_coef",
        selected=[feature_names[i] for i in order[:n_target]],
        scores={feature_names[i]: float(mags[i]) for i in order},
        trace=[{"converged": model.converged}],
    )


def _subset_auroc(X, y, cols, params, plan) -> float:
    """Pooled out-of-fold AUROC of a booster restricted to ``cols``."""
    oof = np.empty(y.shape[0])
    sub = X[:, cols]
    for fold in range(plan.k):
        tr, ev = plan.fold_indices(fold)
        model = fit_histgbm(sub[tr], y[tr], params)
        oof[ev] = predict_proba(model, sub[ev])
    return auroc(oof, y)


def _importance(X, y, cols, params, seed) -> np.ndarray:
    """Mean |SHAP| per column of the subset, from a full-data fit; ``seed``
    picks the rows explained when there are more than ``SHAP_ROW_CAP``."""
    sub = X[:, cols]
    model = fit_histgbm(sub, y, params)
    rows = sub
    if rows.shape[0] > SHAP_ROW_CAP:
        idx = np.random.default_rng(child_seed(seed, "rows")).choice(
            rows.shape[0], size=SHAP_ROW_CAP, replace=False)
        rows = rows[np.sort(idx)]
    return mean_abs_shap(model, rows)


def boost_rfe(X, y, feature_names, n_target: int, inner_folds: int, seed: int,
              params: BoostParams = SELECTION_PARAMS) -> FeatureRanking:
    """Recursive elimination: repeatedly drop the least important feature as
    long as out-of-fold AUROC does not fall by more than ``IMPROVEMENT_EPS``;
    stop at ``n_target`` features or at the first rejected drop."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if n_target < 1:
        raise DataError("n_target must be >= 1")
    plan = stratified_kfold(y, inner_folds, seed=child_seed(seed, "folds"))
    current = list(range(len(feature_names)))
    trace = []
    score = _subset_auroc(X, y, current, params, plan)
    step = 0
    while len(current) > n_target:
        imps = _importance(X, y, current, params,
                           child_seed(seed, "shap", step))
        drop_pos = min(range(len(current)),
                       key=lambda j: (imps[j], feature_names[current[j]]))
        candidate = current[:drop_pos] + current[drop_pos + 1:]
        cand_score = _subset_auroc(X, y, candidate, params, plan)
        accepted = cand_score >= score - IMPROVEMENT_EPS
        trace.append({"step": step, "action": "drop",
                      "feature": feature_names[current[drop_pos]],
                      "auroc_before": score, "auroc_after": cand_score,
                      "accepted": accepted})
        if not accepted:
            break
        current = candidate
        score = cand_score
        step += 1
    final_imps = _importance(X, y, current, params,
                             child_seed(seed, "shap-final"))
    return FeatureRanking(
        method="boost_rfe",
        selected=[feature_names[i] for i in current],
        scores={feature_names[c]: float(final_imps[j])
                for j, c in enumerate(current)},
        trace=trace,
    )


def boost_rfa(X, y, feature_names, n_target: int, inner_folds: int, seed: int,
              params: BoostParams = SELECTION_PARAMS) -> FeatureRanking:
    """Recursive addition: start from the most important feature of a single
    global ranking and add candidates best-first while each addition improves
    out-of-fold AUROC by more than ``IMPROVEMENT_EPS``."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if n_target < 1:
        raise DataError("n_target must be >= 1")
    plan = stratified_kfold(y, inner_folds, seed=child_seed(seed, "folds"))
    all_cols = list(range(len(feature_names)))
    imps = _importance(X, y, all_cols, params,
                       child_seed(seed, "shap-global"))
    ranking = sorted(all_cols, key=lambda i: (-imps[i], feature_names[i]))

    current = [ranking[0]]
    score = _subset_auroc(X, y, current, params, plan)
    trace = [{"step": 0, "action": "seed", "feature": feature_names[ranking[0]],
              "auroc_after": score, "accepted": True}]
    for step, cand in enumerate(ranking[1:], start=1):
        if len(current) >= n_target:
            break
        candidate = current + [cand]
        cand_score = _subset_auroc(X, y, candidate, params, plan)
        accepted = cand_score > score + IMPROVEMENT_EPS
        trace.append({"step": step, "action": "add",
                      "feature": feature_names[cand],
                      "auroc_before": score, "auroc_after": cand_score,
                      "accepted": accepted})
        if accepted:
            current = candidate
            score = cand_score
    return FeatureRanking(
        method="boost_rfa",
        selected=[feature_names[i] for i in current],
        scores={feature_names[i]: float(imps[i]) for i in ranking},
        trace=trace,
    )


def select_features(X, y, feature_names, selection, inner_folds: int,
                    seed: int) -> FeatureRanking:
    """Run the ``SelectionConfig`` ``selection``: dispatch on its ``method``
    (``none`` keeps every feature) with its ``n_target``; the boosted
    searches score subsets on ``inner_folds`` folds."""
    method = selection.method
    if method == "none":
        return FeatureRanking(method="none", selected=list(feature_names))
    if method == "lr_coef":
        return rank_features_lr(X, y, feature_names, selection.n_target)
    if method == "boost_rfe":
        search = boost_rfe
    elif method == "boost_rfa":
        search = boost_rfa
    else:
        raise DataError(f"unknown selection method {method!r}")
    return search(X, y, feature_names, selection.n_target, inner_folds, seed)
