"""Stacked ensemble: candidate boosters scored out-of-fold, top-m kept,
logistic meta-layer fit on their out-of-fold probabilities.

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

import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import LabeledDataset
from .errors import ArtifactError, MissingFeature, MTooLarge
from .evaluate import auroc
from .model.histboost import BoostedModel, fit_histgbm, predict_proba
from .model.logistic import LogisticModel, fit_logistic, predict_proba_logistic
from .preprocess import FittedScaler, apply_scaler, balance_training_set, fit_scaler, stratified_kfold
from .select import select_features
from .util import child_seed

SCHEMA_VERSION = 1


@dataclass(eq=False)
class TrainedEnsemble:
    scaler: FittedScaler          # restricted to the selected features
    feature_names: list           # selected features, training-table order
    base_models: list
    base_info: list               # candidate index, params, oof auroc per kept model
    meta: LogisticModel
    threshold: float
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "stacking_ensemble",
            "scaler": self.scaler.to_dict(),
            "feature_names": list(self.feature_names),
            "base_models": [m.to_dict() for m in self.base_models],
            "base_info": list(self.base_info),
            "meta": self.meta.to_dict(),
            "m": len(self.base_models),
            "threshold": float(self.threshold),
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainedEnsemble":
        if d.get("schema_version") != SCHEMA_VERSION:
            raise ArtifactError(
                f"unsupported schema_version {d.get('schema_version')!r}")
        if d.get("kind") != "stacking_ensemble":
            raise ArtifactError(f"unexpected artifact kind {d.get('kind')!r}")
        return cls(
            scaler=FittedScaler.from_dict(d["scaler"]),
            feature_names=list(d["feature_names"]),
            base_models=[BoostedModel.from_dict(m) for m in d["base_models"]],
            base_info=list(d["base_info"]),
            meta=LogisticModel.from_dict(d["meta"]),
            threshold=float(d["threshold"]),
            provenance=dict(d.get("provenance", {})),
        )


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


def input_columns(ensemble: TrainedEnsemble, feature_names) -> list:
    """Positions of the ensemble's features in ``feature_names``."""
    feature_names = list(feature_names)
    for nm in ensemble.feature_names:
        if nm not in feature_names:
            raise MissingFeature(nm)
    return [feature_names.index(nm) for nm in ensemble.feature_names]


def ensemble_predict(ensemble: TrainedEnsemble, X, feature_names) -> np.ndarray:
    """Pick the ensemble's features by name from ``X``, whose columns
    ``feature_names`` names, scale, run the base models, and blend with the
    meta-layer."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    X = X[:, input_columns(ensemble, feature_names)]
    Xs = apply_scaler(ensemble.scaler, X)
    base = np.column_stack([predict_proba(m, Xs) for m in ensemble.base_models])
    return predict_proba_logistic(ensemble.meta, base)


def save_ensemble(ensemble: TrainedEnsemble, path) -> None:
    with open(path, "w") as fh:
        json.dump(ensemble.to_dict(), fh, sort_keys=True)


def load_ensemble(path) -> TrainedEnsemble:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(str(exc)) from exc
    return TrainedEnsemble.from_dict(doc)
