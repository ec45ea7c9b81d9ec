"""The saved ensemble: its JSON form, and scoring without training code.

The artifact states each fact once.  Schema 3 holds ``schema_version``,
``kind``, the ``scaler`` (``kind``, ``lo``, ``hi``: one value of each per
feature), the selected ``feature_names``, the ``base_models`` (each
``params``, ``bins``, ``base_score`` and ``trees``), the ``meta`` layer,
the ``threshold`` and the ``provenance``, whose ``kept`` names the
candidate each base model was refit from.  Versions 1 and 2 hold every one
of these keys and some that restate them; the loader reads only the keys
all three versions hold, so it loads any of them through one path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ArtifactError, MissingFeature
from .model.histboost import BoostedModel, predict_columns
from .model.logistic import LogisticModel, predict_proba_logistic
from .preprocess import SCALER_KINDS, FittedScaler, apply_scaler
from .util import open_output

SCHEMA_VERSION = 3


def _require_no_bool(value, name: str) -> None:
    """JSON true and false load as bools, which ``float`` and numpy read as
    1.0 and 0.0: a number, or a list of numbers, must hold neither."""
    if bool in map(type, value if isinstance(value, list) else [value]):
        raise ArtifactError(f"{name} holds true or false, not a number")


def _require_finite(values: np.ndarray, name: str) -> None:
    if not np.isfinite(values).all():
        raise ArtifactError(f"{name} holds {float(values[~np.isfinite(values)][0])}, "
                            f"not a finite number")


@dataclass(eq=False)
class TrainedEnsemble:
    scaler: FittedScaler          # restricted to the selected features
    feature_names: list           # selected features, training-table order
    base_models: list
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
            "meta": self.meta.to_dict(),
            "threshold": float(self.threshold),
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainedEnsemble":
        """The ensemble saved as ``d``, schema 1, 2 or 3.  Every number it
        scores with is checked: unchecked, a NaN or overflowing parameter
        scores every row alike with exit 0."""
        version = d.get("schema_version")
        if type(version) is not int or version not in (1, 2, SCHEMA_VERSION):
            raise ArtifactError(f"unsupported schema_version {version!r}")
        if d.get("kind") != "stacking_ensemble":
            raise ArtifactError(f"unexpected artifact kind {d.get('kind')!r}")
        numbers = {"scaler.lo": d["scaler"]["lo"], "scaler.hi": d["scaler"]["hi"],
                   "meta.weights": d["meta"]["weights"], "meta.intercept": d["meta"]["intercept"]}
        numbers.update((f"base_models[{i}].base_score", m["base_score"])
                       for i, m in enumerate(d["base_models"]))
        for name, value in numbers.items():
            _require_no_bool(value, name)
        scaler, feature_names = FittedScaler.from_dict(d["scaler"]), list(d["feature_names"])
        width = len(feature_names)
        ensemble = cls(
            scaler=scaler,
            feature_names=feature_names,
            base_models=[BoostedModel.from_dict(m, width) for m in d["base_models"]],
            meta=LogisticModel.from_dict(d["meta"]),
            threshold=d["threshold"],
            provenance=dict(d.get("provenance", {})),
        )
        # unchecked, a short scaler broadcasts over the rows and scores them,
        # an unknown kind scales as "standard" does, and explain names the
        # lead model's candidate from provenance.kept
        m = len(ensemble.base_models)
        if ensemble.scaler.kind not in SCALER_KINDS:
            raise ArtifactError(f"unknown scaler kind {ensemble.scaler.kind!r}")
        for name in ("lo", "hi"):
            values = getattr(ensemble.scaler, name)
            if values.shape != (width,):
                raise ArtifactError(f"scaler.{name} has shape {values.shape}, not one "
                                    f"value for each of the {width} features")
            _require_finite(values, f"scaler.{name}")
        if not m:
            raise ArtifactError("no base models")
        if ensemble.meta.weights.shape != (m,):
            raise ArtifactError(f"meta.weights has shape {ensemble.meta.weights.shape}, "
                                f"not one weight for each of the {m} base models")
        _require_finite(ensemble.meta.weights, "meta.weights")
        _require_finite(np.array([ensemble.meta.intercept]), "meta.intercept")
        # JSON true is a Python int: read as 1.0, it would label every row 0
        if type(ensemble.threshold) not in (int, float):
            raise ArtifactError(f"threshold must be a number, got {ensemble.threshold!r}")
        ensemble.threshold = float(ensemble.threshold)
        if not 0.0 <= ensemble.threshold <= 1.0:  # also false for nan
            raise ArtifactError(f"threshold must be in [0, 1], got {ensemble.threshold!r}")
        kept = ensemble.provenance.get("kept")
        if not (isinstance(kept, list) and len(kept) == m
                and all(type(ci) is int for ci in kept)):
            raise ArtifactError(f"provenance.kept must hold an integer candidate "
                                f"index for each of the {m} base models")
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
            OverflowError, RecursionError) as exc:
        raise ArtifactError(f"{type(exc).__name__}: {exc}") from exc
