"""Pipeline configuration: JSON round-trip with validated defaults."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path

from .errors import DataError
from .ingest import EXPRESSIONS
from .model.histboost import BoostParams
from .preprocess import SCALER_KINDS
from .util import read_json

SELECTION_METHODS = ("none", "lr_coef", "boost_rfe", "boost_rfa")

# 3 learning rates x 3 leaf budgets x 2 leaf minima = 18 candidates,
# matching the default ensemble width.
DEFAULT_GRID = [
    {"learning_rate": lr, "max_leaves": ml, "min_samples_leaf": msl}
    for lr in (0.05, 0.1, 0.2)
    for ml in (7, 15, 31)
    for msl in (10, 20)
]

# the JSON type a value must have, by the type of the field's default;
# bool comes first because it is a subclass of int
_JSON_TYPES = ((bool, "a boolean"), (int, "an integer"), (float, "a number"),
               (str, "a string"), (list, "a list"))


def _typed(key: str, value, default):
    """``value`` if it has the JSON type of ``default``; else a DataError
    naming ``key``.  A number field also takes an integer, and rejects the
    NaN and infinite values that Python's ``json`` reads."""
    kind, name = next(t for t in _JSON_TYPES if isinstance(default, t[0]))
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise DataError(f"{key} must be {name}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise DataError(f"{key} must be a finite number, got {value!r}")
    return value


def _assign(target, doc, where: str) -> None:
    """Set the fields of dataclass ``target`` from the JSON object ``doc``."""
    unknown = set(doc) - set(target.__dataclass_fields__)
    if unknown:
        raise DataError(f"unknown {where} keys {sorted(unknown)}")
    for key, value in doc.items():
        default = getattr(target, key)
        name = key if where == "config" else f"{where}.{key}"
        if is_dataclass(default):
            if not isinstance(value, dict):
                raise DataError(f"{name} must be an object, got {value!r}")
            _assign(default, value, name)
        else:
            setattr(target, key, _typed(name, value, default))


@dataclass
class SelectionConfig:
    method: str = "lr_coef"
    n_target: int = 30
    inner_folds: int = 3
    improvement_eps: float = 1e-4


@dataclass
class SmoteConfig:
    enabled: bool = True
    k_neighbors: int = 5


@dataclass
class EnsembleConfig:
    m: int = 18
    inner_folds: int = 3
    grid: list = field(default_factory=lambda: [dict(g) for g in DEFAULT_GRID])


@dataclass
class PipelineConfig:
    expressions: list = field(default_factory=lambda: list(EXPRESSIONS))
    scaler: str = "minmax"
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    smote: SmoteConfig = field(default_factory=SmoteConfig)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    cv_folds: int = 10
    bootstrap_seeds: int = 40
    threshold: float = 0.5
    seed: int = 0

    def validate(self) -> None:
        if self.scaler not in SCALER_KINDS:
            raise DataError(f"scaler must be one of {SCALER_KINDS}")
        if self.selection.method not in SELECTION_METHODS:
            raise DataError(f"selection.method must be one of {SELECTION_METHODS}")
        unknown = [e for e in self.expressions if e not in EXPRESSIONS]
        if unknown:
            raise DataError(f"unknown expressions {unknown}")
        if not self.expressions:
            raise DataError("expressions must not be empty")
        if self.cv_folds < 2:
            raise DataError("cv_folds must be >= 2")
        if self.bootstrap_seeds < 1:
            raise DataError("bootstrap_seeds must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise DataError("threshold must be in [0, 1]")
        if self.selection.n_target < 1:
            raise DataError("selection.n_target must be >= 1")
        for key, folds in (("selection.inner_folds", self.selection.inner_folds),
                           ("ensemble.inner_folds", self.ensemble.inner_folds)):
            if folds < 2:
                raise DataError(f"{key} must be >= 2, got {folds}")
        if not self.selection.improvement_eps >= 0.0:
            raise DataError("selection.improvement_eps must be >= 0")
        if self.smote.k_neighbors < 1:
            raise DataError("smote.k_neighbors must be >= 1")
        if self.ensemble.m < 1:
            raise DataError("ensemble.m must be >= 1")
        if self.ensemble.m > len(self.ensemble.grid):
            raise DataError(
                f"ensemble.m={self.ensemble.m} exceeds the candidate grid "
                f"({len(self.ensemble.grid)} entries)")
        for entry in self.ensemble.grid:
            self.candidate_params(entry).validate()

    @staticmethod
    def candidate_params(entry: dict) -> BoostParams:
        if not isinstance(entry, dict):
            raise DataError(f"ensemble.grid entries must be objects, got {entry!r}")
        base = BoostParams().to_dict()
        unknown = set(entry) - set(base)
        if unknown:
            raise DataError(f"unknown booster parameters {sorted(unknown)}")
        for key, value in entry.items():
            base[key] = _typed(f"booster parameter {key}", value, base[key])
        return BoostParams.from_dict(base)

    def candidates(self) -> list:
        return [self.candidate_params(e) for e in self.ensemble.grid]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        if not isinstance(doc, dict):
            raise DataError("config must be a JSON object")
        cfg = cls()
        _assign(cfg, doc, "config")
        cfg.validate()
        return cfg


def load_config(path=None) -> PipelineConfig:
    """Read a config JSON file; with no path, full defaults."""
    if path is None:
        return PipelineConfig()
    return PipelineConfig.from_dict(read_json(path, "config"))


def save_config(cfg: PipelineConfig, path) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
