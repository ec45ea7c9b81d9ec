"""Pipeline configuration: JSON round-trip with validated defaults."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import DataError
from .ingest import EXPRESSIONS
from .model.histboost import BoostParams
from .preprocess import SCALER_KINDS

SELECTION_METHODS = ("none", "lr_coef", "boost_rfe", "boost_rfa")

# 3 learning rates x 3 leaf budgets x 2 leaf minima = 18 candidates,
# matching the default ensemble width.
DEFAULT_GRID = [
    {"learning_rate": lr, "max_leaves": ml, "min_samples_leaf": msl}
    for lr in (0.05, 0.1, 0.2)
    for ml in (7, 15, 31)
    for msl in (10, 20)
]


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
        base = BoostParams().to_dict()
        unknown = set(entry) - set(base)
        if unknown:
            raise DataError(f"unknown booster parameters {sorted(unknown)}")
        base.update(entry)
        return BoostParams.from_dict(base)

    def candidates(self) -> list:
        return [self.candidate_params(e) for e in self.ensemble.grid]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        if not isinstance(doc, dict):
            raise DataError("config must be a JSON object")
        known = set(cls().to_dict())
        unknown = set(doc) - known
        if unknown:
            raise DataError(f"unknown config keys {sorted(unknown)}")
        cfg = cls()
        for section, klass in (("selection", SelectionConfig),
                               ("smote", SmoteConfig),
                               ("ensemble", EnsembleConfig)):
            if section in doc:
                sub = doc[section]
                base = getattr(cfg, section)
                fields = set(base.__dataclass_fields__)
                bad = set(sub) - fields
                if bad:
                    raise DataError(f"unknown {section} keys {sorted(bad)}")
                for k, v in sub.items():
                    setattr(base, k, v)
        for key in known - {"selection", "smote", "ensemble"}:
            if key in doc:
                setattr(cfg, key, doc[key])
        cfg.validate()
        return cfg


def load_config(path=None) -> PipelineConfig:
    """Read a config JSON file; with no path, full defaults."""
    if path is None:
        return PipelineConfig()
    try:
        doc = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise DataError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"config is not valid JSON: {exc}") from exc
    return PipelineConfig.from_dict(doc)


def save_config(cfg: PipelineConfig, path) -> None:
    Path(path).write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")
