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

``train_pipeline`` and ``fit_stacking_ensemble`` take the whole
``PipelineConfig`` and read their settings from it; ``select_features``
takes its ``selection`` section and ``ensemble.inner_folds``.  Every default
lives in ``config.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

import numpy as np

from .artifact import TrainedEnsemble, ensemble_predict
from .dataset import LabeledDataset, select_expressions
from .errors import ClassTooSmall, MTooLarge, TooFewMinority
from .evaluate import METRIC_KEYS, auroc, classification_metrics, confusion_counts, roc_curve
from .model.histboost import fit_histgbm, predict_columns
from .model.logistic import fit_logistic
from .preprocess import (FoldPlan, apply_scaler, balance_training_set, fit_scaler,
                         stratified_kfold, train_counts)
from .select import select_features
from .util import child_seed


def select_top_models(scored, m: int) -> list:
    """Indices of the m best (by score, descending); ties keep the earlier
    candidate."""
    order = sorted(range(len(scored)), key=lambda i: (-scored[i], i))
    return order[:m]


def fit_stacking_ensemble(X, y, config, seed: int):
    """Score the candidates of a ``PipelineConfig`` out-of-fold, keep the top
    ``ensemble.m``, fit the meta-layer.

    The candidates are ``config.candidates()``, scored on
    ``ensemble.inner_folds`` inner folds; each training set is oversampled
    as ``config.smote`` says.  There is one ``fit_histgbm`` memo per
    training matrix, shared by every fit on it, so candidates that differ
    only in a ``max_leaves`` cap their trees never reach are grown once per
    inner fold, and ``predict_columns`` scores a fold's held-out rows for
    every candidate at once.  An inner fold's oversampled matrix, memo and
    models are dropped with the fold, once its held-out columns are taken,
    so the later folds and the final refit, which has a memo of its own,
    run without them.

    Returns ``(base_models, meta, provenance)`` where the base models are
    full-data refits of the candidates ``provenance["kept"]`` names, in that
    order.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    n = y.shape[0]
    candidates = config.candidates()
    m, smote = config.ensemble.m, config.smote
    if m > len(candidates):
        raise MTooLarge(m, len(candidates))
    plan = stratified_kfold(y, config.ensemble.inner_folds,
                            seed=child_seed(seed, "stack-folds"))

    def training_set(Xt, yt, *key):
        if not smote.enabled:
            return Xt, yt, 0
        return balance_training_set(Xt, yt, smote.k_neighbors, child_seed(seed, *key))

    def fit_all(Xt, yt, grid):
        memo = {}  # one per training matrix, since no other matrix's key matches
        return [fit_histgbm(Xt, yt, params, memo=memo) for params in grid]

    def held_out(fold):
        # the fold's training set is oversampled independently of its held-out
        # rows, and every candidate is fit on it in grid order; the matrix,
        # memo and models die when the fold's columns are returned
        tr, ev = plan.fold_indices(fold)
        Xa, ya, n_syn = training_set(X[tr], y[tr], "stack-smote", fold)
        return ev, predict_columns(fit_all(Xa, ya, candidates), X[ev]), int(n_syn)

    inner_synthetic = []
    oof = np.empty((n, len(candidates)))
    for fold in range(plan.k):
        ev, columns, n_syn = held_out(fold)
        oof[ev] = columns
        inner_synthetic.append(n_syn)
    scores = [auroc(column, y) for column in oof.T]

    kept = select_top_models(scores, m)
    meta = fit_logistic(oof[:, kept], y)

    Xf, yf, n_syn_final = training_set(X, y, "final-smote")
    base_models = fit_all(Xf, yf, [candidates[ci] for ci in kept])
    provenance = {
        "candidate_aurocs": [float(s) for s in scores],
        "kept": [int(ci) for ci in kept],
        "inner_fold_assignments": [int(a) for a in plan.assignments],
        "inner_synthetic_counts": inner_synthetic,
        "final_synthetic_count": int(n_syn_final),
        "seed": int(seed),
    }
    return base_models, meta, provenance


def require_classes(labels, counts, setting: str, k: int, split: str) -> None:
    """Raise :class:`ClassTooSmall` naming ``setting`` when a class of ``labels``
    has fewer ``counts`` than ``k`` folds need; ``split`` names the rows."""
    short = np.flatnonzero(counts < k)
    if short.size:
        i = short[0]
        raise ClassTooSmall(labels[i].item(), int(counts[i]), k, setting, split)


def require_fold_plans(y, config, k) -> None:
    """Fail before anything trains when an inner fold plan cannot be made or
    oversampled on ``y`` (``k`` None) or on the training split of any of
    ``k`` outer folds over ``y`` (``k`` an integer).  A class must have as
    many rows as ``ensemble.inner_folds`` (:class:`ClassTooSmall`), the folds
    of the stacking and of a boosted selection search; with SMOTE on, no
    inner training split may hold unequal class counts with a single row in
    the smaller class (:class:`TooFewMinority`).  Each split's class counts
    come from :func:`train_counts`, so no plan is dealt."""
    labels, counts = np.unique(y, return_counts=True)
    inner = config.ensemble.inner_folds
    for fold, c in enumerate([counts] if k is None else train_counts(counts, k)):
        split = "" if k is None else f" in the training split of outer fold {fold}"
        require_classes(labels, c, "ensemble.inner_folds", inner, split)
        if config.smote.enabled:
            for j, train in enumerate(train_counts(c, inner)):
                if train.min() == 1 and train.max() > 1:
                    raise TooFewMinority(1, f" in the training split of inner fold {j} "
                                            f"of ensemble.inner_folds={inner}{split}, "
                                            f"which smote.enabled oversamples")


def train_pipeline(ds: LabeledDataset, config, seed: int = 0) -> TrainedEnsemble:
    """Scale, select, oversample, and fit the stacked ensemble on the
    ``config.expressions`` columns of ``ds`` (:func:`select_expressions`)
    under a ``PipelineConfig``.

    The declared order is scale -> select -> oversample; the scaler stored in
    the artifact is restricted to the selected features, and its provenance
    records each training row's inner fold and the synthetic rows of every
    fit.  It states no fact that another key of the artifact states: the
    selected features are ``feature_names``, the training rows and inner
    folds are the lengths of ``inner_fold_assignments`` and
    ``inner_synthetic_counts``.
    """
    ds = select_expressions(ds, config.expressions)
    require_fold_plans(ds.y, config, None)
    names = ds.feature_names
    scaler_full = fit_scaler(config.scaler, ds.X, names)
    Xs = apply_scaler(scaler_full, ds.X)
    ranking = select_features(Xs, ds.y, names, config.selection,
                              config.ensemble.inner_folds, child_seed(seed, "select"))
    selected = ranking.selected
    columns = [names.index(nm) for nm in selected]
    Xsel = Xs[:, columns]

    base_models, meta, prov = fit_stacking_ensemble(
        Xsel, ds.y, config, child_seed(seed, "stack"))
    prov["selection"] = {"method": ranking.method, "scores": ranking.scores,
                         "trace": ranking.trace}
    prov["smote"] = asdict(config.smote)
    prov["pipeline_seed"] = int(seed)
    return TrainedEnsemble(
        scaler=scaler_full.restrict(columns),
        feature_names=list(selected),
        base_models=base_models,
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
    unconverged: int  # trainings whose meta-layer fit did not converge

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


def run_cross_validation(ds: LabeledDataset, config, k: int,
                         seed: int = 0) -> CVResult:
    """Stratified k-fold evaluation of the full training pipeline.

    Every fold refits scaler, selection, oversampling, and ensemble on its
    training split only.  The audit log records each fold's evaluation and
    training row identities, which shows that the two splits are disjoint,
    and the synthetic-row count of its final refit.  It is not evidence of
    what the components consumed.
    """
    plan = stratified_kfold(ds.y, k, seed=child_seed(seed, "folds"))
    require_fold_plans(ds.y, config, k)
    n = ds.n_rows
    identities = [row_identity(ds.participant_ids[i], ds.X[i]) for i in range(n)]

    def evaluate_fold(fold):
        # the fold's pipeline dies when its scores, audit record and
        # convergence flag are returned, before the next fold trains
        tr, ev = plan.fold_indices(fold)
        pipeline = train_pipeline(ds.subset(tr), config,
                                  seed=child_seed(seed, "fold", fold))
        record = {
            "fold": fold,
            "eval_ids": [identities[i] for i in ev],
            "train_ids": [identities[i] for i in tr],
            "n_synthetic": pipeline.provenance["final_synthetic_count"],
        }
        scores = ensemble_predict(pipeline, ds.X[ev], ds.feature_names)
        return ev, scores, record, pipeline.meta.converged

    oof = np.empty(n)
    fold_metrics = []
    audit = []
    unconverged = 0
    for fold in range(k):
        ev, scores, record, converged = evaluate_fold(fold)
        unconverged += not converged
        oof[ev] = scores
        fold_metrics.append(_metrics_with_auroc(scores, ds.y[ev],
                                                config.threshold))
        audit.append(record)

    pooled = _metrics_with_auroc(oof, ds.y, config.threshold)
    per_fold_mean = {}
    for key in METRIC_KEYS:
        vals = [m[key] for m in fold_metrics if m[key] is not None]
        per_fold_mean[key] = float(np.mean(vals)) if vals else None
    return CVResult(fold_plan=plan, fold_metrics=fold_metrics, pooled=pooled,
                    per_fold_mean=per_fold_mean, oof_scores=oof,
                    roc_points=roc_curve(oof, ds.y), audit=audit,
                    unconverged=unconverged)
