"""Training and the cross-validation driver: candidate boosters scored
out-of-fold, top-m kept, logistic meta-layer fit on their out-of-fold
probabilities; ``run_cross_validation`` repeats that on every outer fold.

The meta-layer never sees a base prediction made by a model that trained on
that row: candidates are scored on inner-fold held-out rows, and oversampling
is refit inside each inner fold so synthetic rows cannot carry held-out
information either.  The kept candidates are refit on the full training set
for the deployable artifact.

Feature selection is not refit inside the inner folds: ``train_pipeline``
runs ``select_features`` once on every training row before the stacking
splits them, so the labels of each inner fold's held-out rows helped choose
the features its base models train and predict on, and through them the
meta-layer's inputs.  The outer cross-validation estimate is unaffected,
since selection never sees an outer evaluation row.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .artifact import TrainedEnsemble, ensemble_predict
from .dataset import LabeledDataset
from .errors import MTooLarge
from .evaluate import METRIC_KEYS, auroc, classification_metrics, confusion_counts, roc_curve
from .model.histboost import fit_histgbm, predict_proba
from .model.logistic import fit_logistic
from .preprocess import FoldPlan, apply_scaler, balance_training_set, fit_scaler, stratified_kfold
from .select import select_features
from .util import child_seed


def select_top_models(scored, m: int) -> list:
    """Indices of the m best (by score, descending); ties keep the earlier
    candidate."""
    order = sorted(range(len(scored)), key=lambda i: (-scored[i], i))
    return order[:m]


def fit_stacking_ensemble(X, y, candidates, m: int, inner_folds: int = 3,
                          smote_enabled: bool = True, smote_k: int = 5,
                          seed: int = 0):
    """Score candidates out-of-fold, keep the top m, fit the meta-layer.

    Every fit shares one ``fit_histgbm`` memo, so candidates that differ only
    in a ``max_leaves`` cap their trees never reach are grown once per inner
    fold; such candidates also share one prediction of the fold's held-out
    rows, made once from the grown model's trees.

    Returns ``(base_models, base_info, meta, provenance)`` where the base
    models are full-data refits of the kept candidates.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    n = y.shape[0]
    if m > len(candidates):
        raise MTooLarge(m, len(candidates))
    plan = stratified_kfold(y, inner_folds, seed=child_seed(seed, "stack-folds"))

    def training_set(Xt, yt, *key):
        if not smote_enabled:
            return Xt, yt, 0
        return balance_training_set(Xt, yt, k_neighbors=smote_k,
                                    seed=child_seed(seed, *key))

    # per-fold training sets, oversampled independently of the held-out rows
    fold_train = []
    inner_synthetic = []
    for fold in range(plan.k):
        tr, _ = plan.fold_indices(fold)
        Xa, ya, n_syn = training_set(X[tr], y[tr], "stack-smote", fold)
        fold_train.append((Xa, ya))
        inner_synthetic.append(int(n_syn))

    # candidates that differ only in a max_leaves cap their trees never reach
    # share one grown model (see fit_histgbm); a served model carries the
    # grown model's Tree objects, which hash by identity, and thresholds fit
    # on the same fold matrix, so (fold, first tree) names its predictions
    memo = {}
    held_out = {}
    oof = np.empty((n, len(candidates)))
    scores = []
    for ci, params in enumerate(candidates):
        for fold in range(plan.k):
            _, ev = plan.fold_indices(fold)
            Xa, ya = fold_train[fold]
            model = fit_histgbm(Xa, ya, params, memo=memo)
            key = (fold, model.trees[0])
            if key not in held_out:
                held_out[key] = predict_proba(model, X[ev])
            oof[ev, ci] = held_out[key]
        scores.append(auroc(oof[:, ci], y))

    kept = select_top_models(scores, m)
    meta = fit_logistic(oof[:, kept], y)

    Xf, yf, n_syn_final = training_set(X, y, "final-smote")
    base_models = [fit_histgbm(Xf, yf, candidates[ci], memo=memo) for ci in kept]
    base_info = [{"candidate_index": int(ci),
                  "params": candidates[ci].to_dict(),
                  "oof_auroc": float(scores[ci])} for ci in kept]
    provenance = {
        "candidate_aurocs": [float(s) for s in scores],
        "kept": [int(ci) for ci in kept],
        "inner_folds": inner_folds,
        "inner_fold_assignments": [int(a) for a in plan.assignments],
        "inner_synthetic_counts": inner_synthetic,
        "final_synthetic_count": int(n_syn_final),
        "seed": int(seed),
    }
    return base_models, base_info, meta, provenance


def train_pipeline(ds: LabeledDataset, config, seed: int = 0) -> TrainedEnsemble:
    """Scale, select, oversample, and fit the stacked ensemble on ``ds``
    under a ``PipelineConfig``.

    The declared order is scale -> select -> oversample; the scaler stored in
    the artifact is restricted to the selected features, and its provenance
    records the training rows and the synthetic rows of the final refit.
    """
    names = ds.feature_names
    scaler_full = fit_scaler(config.scaler, ds.X, names)
    Xs = apply_scaler(scaler_full, ds.X)
    ranking = select_features(
        Xs, ds.y, names,
        method=config.selection.method,
        n_target=config.selection.n_target,
        inner_folds=config.selection.inner_folds,
        improvement_eps=config.selection.improvement_eps,
        seed=child_seed(seed, "select"),
    )
    selected = ranking.selected
    sel_idx = [names.index(nm) for nm in selected]
    Xsel = Xs[:, sel_idx]

    base_models, base_info, meta, prov = fit_stacking_ensemble(
        Xsel, ds.y, config.candidates(), m=config.ensemble.m,
        inner_folds=config.ensemble.inner_folds,
        smote_enabled=config.smote.enabled, smote_k=config.smote.k_neighbors,
        seed=child_seed(seed, "stack"),
    )
    prov["selection"] = ranking.to_dict()
    prov["scaler_kind"] = config.scaler
    prov["smote"] = {"enabled": config.smote.enabled,
                     "k_neighbors": config.smote.k_neighbors}
    prov["train_rows"] = int(ds.n_rows)
    prov["pipeline_seed"] = int(seed)
    return TrainedEnsemble(
        scaler=scaler_full.restrict(selected),
        feature_names=list(selected),
        base_models=base_models,
        base_info=base_info,
        meta=meta,
        threshold=config.threshold,
        provenance=prov,
    )


# --- cross-validation -------------------------------------------------------------

def row_identity(participant_id: str, row: np.ndarray) -> str:
    digest = hashlib.sha256(np.ascontiguousarray(row, dtype=float)
                            .tobytes()).hexdigest()[:12]
    return f"{participant_id}|{digest}"


@dataclass
class CVResult:
    fold_plan: FoldPlan
    fold_metrics: list
    pooled: dict
    per_fold_mean: dict
    oof_scores: np.ndarray
    roc_points: list
    audit: list

    def report_dict(self) -> dict:
        return {
            "pooled": dict(self.pooled),
            "per_fold_mean": dict(self.per_fold_mean),
            "fold_metrics": [dict(m) for m in self.fold_metrics],
            "folds": self.fold_plan.to_dict(),
        }


def _metrics_with_auroc(scores, labels, threshold) -> dict:
    out = classification_metrics(confusion_counts(scores, labels, threshold))
    out["auroc"] = auroc(scores, labels)
    return out


def run_cross_validation(ds: LabeledDataset, config, k: int | None = None,
                         seed: int = 0) -> CVResult:
    """Stratified k-fold evaluation of the full training pipeline.

    Every fold refits scaler, selection, oversampling, and ensemble on its
    training split only.  The audit log records each fold's evaluation and
    training row identities, which shows that the two splits are disjoint.
    It is not evidence of what the components consumed: ``scaler_fit_ids``
    restates ``train_ids``, and ``synthetic_ids`` are labels generated from
    the fold's synthetic-row count, not rows traced back to their parents.
    """
    k = config.cv_folds if k is None else k
    plan = stratified_kfold(ds.y, k, seed=child_seed(seed, "folds"))
    n = ds.n_rows
    identities = [row_identity(ds.participant_ids[i], ds.X[i]) for i in range(n)]
    oof = np.empty(n)
    fold_metrics = []
    audit = []
    for fold in range(k):
        tr, ev = plan.fold_indices(fold)
        pipeline = train_pipeline(ds.subset(tr), config,
                                  seed=child_seed(seed, "fold", fold))
        scores = ensemble_predict(pipeline, ds.X[ev], ds.feature_names)
        oof[ev] = scores
        fold_metrics.append(_metrics_with_auroc(scores, ds.y[ev],
                                                config.threshold))
        train_ids = [identities[i] for i in tr]
        n_synthetic = pipeline.provenance["final_synthetic_count"]
        audit.append({
            "fold": fold,
            "eval_ids": [identities[i] for i in ev],
            "train_ids": train_ids,
            "scaler_fit_ids": train_ids,
            "synthetic_ids": [f"synthetic|fold{fold}|{i}"
                              for i in range(n_synthetic)],
            "n_synthetic": n_synthetic,
        })

    pooled = _metrics_with_auroc(oof, ds.y, config.threshold)
    per_fold_mean = {}
    for key in METRIC_KEYS:
        vals = [m[key] for m in fold_metrics if m[key] is not None]
        per_fold_mean[key] = float(np.mean(vals)) if vals else None
    return CVResult(fold_plan=plan, fold_metrics=fold_metrics, pooled=pooled,
                    per_fold_mean=per_fold_mean, oof_scores=oof,
                    roc_points=roc_curve(oof, ds.y), audit=audit)


def verify_no_leakage(audit: list) -> bool:
    """True when no evaluation split shares a row with scaler-fit or
    synthetic sets.  It compares only the recorded ids, which restate
    ``train_ids`` and generated labels, so on a pipeline run it cannot fail."""
    for rec in audit:
        ev = set(rec["eval_ids"])
        if ev & set(rec["scaler_fit_ids"]):
            return False
        if ev & set(rec["synthetic_ids"]):
            return False
    return True
