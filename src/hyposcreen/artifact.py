"""The saved ensemble: its JSON form, and scoring without training code."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ArtifactError, MissingFeature
from .model.histboost import BoostedModel, predict_proba
from .model.logistic import LogisticModel, predict_proba_logistic
from .preprocess import FittedScaler, apply_scaler

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


def input_columns(ensemble: TrainedEnsemble, feature_names) -> list:
    """Positions of the ensemble's features in ``feature_names``."""
    feature_names = list(feature_names)
    for nm in ensemble.feature_names:
        if nm not in feature_names:
            raise MissingFeature(nm)
    return [feature_names.index(nm) for nm in ensemble.feature_names]


def base_probabilities(ensemble: TrainedEnsemble, Xs) -> np.ndarray:
    """Each base model's probabilities on the scaled rows ``Xs``, one column
    per model, each with the bits of ``predict_proba(model, Xs)``.

    The rows are binned once per distinct mapper (equal ``max_bins`` and
    thresholds) and walked once per distinct (node table, codes,
    ``base_score``, learning rate).  The refits a training's memo served
    from one grown model share its node table, so they share one walk; a
    loaded artifact has a node table per model and walks each.
    """
    codes, walked, columns = {}, {}, []
    for model in ensemble.base_models:
        bins = model.mapper.key()
        if bins not in codes:
            codes[bins] = model.bin(Xs)
        # the models hold their node tables, so no id is reused in the loop
        walk = (id(model.nodes()), bins, model.base_score, model.params.learning_rate)
        if walk not in walked:
            walked[walk] = predict_proba(model, Xs, codes[bins])
        columns.append(walked[walk])
    return np.column_stack(columns)


def ensemble_predict(ensemble: TrainedEnsemble, X, feature_names) -> np.ndarray:
    """Pick the ensemble's features by name from ``X``, whose columns
    ``feature_names`` names, scale, run the base models, and blend with the
    meta-layer."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    X = X[:, input_columns(ensemble, feature_names)]
    Xs = apply_scaler(ensemble.scaler, X)
    return predict_proba_logistic(ensemble.meta, base_probabilities(ensemble, Xs))


def save_ensemble(ensemble: TrainedEnsemble, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(ensemble.to_dict(), sort_keys=True))


def load_ensemble(path) -> TrainedEnsemble:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(str(exc)) from exc
    return TrainedEnsemble.from_dict(doc)
