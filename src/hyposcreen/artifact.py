"""The saved ensemble: its JSON form, and scoring without training code."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ArtifactError, MissingFeature
from .model.histboost import BoostedModel, predict_columns
from .model.logistic import LogisticModel, predict_proba_logistic
from .preprocess import SCALER_KINDS, FittedScaler, apply_scaler
from .util import open_output

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
        ensemble = cls(
            scaler=FittedScaler.from_dict(d["scaler"]),
            feature_names=list(d["feature_names"]),
            base_models=[BoostedModel.from_dict(m) for m in d["base_models"]],
            base_info=list(d["base_info"]),
            meta=LogisticModel.from_dict(d["meta"]),
            threshold=float(d["threshold"]),
            provenance=dict(d.get("provenance", {})),
        )
        # unchecked, a short scaler broadcasts over the rows and scores them,
        # an unknown kind scales as "standard" does, and explain reads the
        # lead model's candidate_index from base_info
        width, m = len(ensemble.feature_names), len(ensemble.base_models)
        if ensemble.scaler.kind not in SCALER_KINDS:
            raise ArtifactError(f"unknown scaler kind {ensemble.scaler.kind!r}")
        for name in ("lo", "hi"):
            shape = getattr(ensemble.scaler, name).shape
            if shape != (width,):
                raise ArtifactError(f"scaler.{name} has shape {shape}, not one "
                                    f"value for each of the {width} features")
        if not m:
            raise ArtifactError("no base models")
        if ensemble.meta.weights.shape != (m,):
            raise ArtifactError(f"meta.weights has shape {ensemble.meta.weights.shape}, "
                                f"not one weight for each of the {m} base models")
        if len(ensemble.base_info) != m or not all(
                isinstance(info, dict) and type(info.get("candidate_index")) is int
                for info in ensemble.base_info):
            raise ArtifactError(f"base_info must hold an object with an integer "
                                f"candidate_index for each of the {m} base models")
        return ensemble


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
    return predict_proba_logistic(ensemble.meta,
                                  predict_columns(ensemble.base_models, Xs))


def save_ensemble(ensemble: TrainedEnsemble, path) -> None:
    with open_output(path) as fh:
        fh.write(json.dumps(ensemble.to_dict(), sort_keys=True))


def load_ensemble(path) -> TrainedEnsemble:
    """The ensemble saved at ``path``.  A file that cannot be read, or a
    document that does not parse as an ensemble, raises
    :class:`ArtifactError`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return TrainedEnsemble.from_dict(json.load(fh))
    except (OSError, ValueError, TypeError, KeyError, AttributeError, IndexError,
            RecursionError) as exc:
        raise ArtifactError(f"{type(exc).__name__}: {exc}") from exc
