"""Pipeline configuration: JSON round-trip with validated defaults; each
setting declares its allowed values beside its default (util.check_setting)."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, is_dataclass

from .errors import DataError
from .ingest import EXPRESSIONS
from .model.histboost import BoostParams
from .preprocess import SCALER_KINDS
from .util import check_fields, read_json

SELECTION_METHODS = ("none", "lr_coef", "boost_rfe", "boost_rfa")

# 3 learning rates x 3 leaf budgets x 2 leaf minima = 18 candidates, all of
# which the ensemble stacks.
DEFAULT_GRID = [
    {"learning_rate": lr, "max_leaves": ml, "min_samples_leaf": msl}
    for lr in (0.05, 0.1, 0.2)
    for ml in (7, 15, 31)
    for msl in (10, 20)
]


def _assign(target, doc, unknown: str) -> None:
    """Set the fields of dataclass ``target`` from the JSON object ``doc``,
    unchecked; ``unknown`` starts the error for a key ``target`` lacks."""
    extra = set(doc) - set(target.__dataclass_fields__)
    if extra:
        raise DataError(f"{unknown} {sorted(extra)}")
    for key, value in doc.items():
        section = getattr(target, key)
        if is_dataclass(section) and isinstance(value, dict):
            _assign(section, value, f"unknown {key} keys")
        else:
            setattr(target, key, value)


@dataclass
class SelectionConfig:
    method: str = field(default="lr_coef", metadata={"one_of": SELECTION_METHODS})
    n_target: int = field(default=30, metadata={"range": "[1, inf)"})


@dataclass
class SmoteConfig:
    enabled: bool = True
    k_neighbors: int = field(default=5, metadata={"range": "[1, inf)"})


@dataclass
class EnsembleConfig:
    inner_folds: int = field(default=3, metadata={"range": "[2, inf)"})
    # each entry is checked as a BoostParams, by candidate_params
    grid: list = field(default_factory=lambda: [dict(g) for g in DEFAULT_GRID])


@dataclass
class PipelineConfig:
    expressions: list = field(default_factory=lambda: list(EXPRESSIONS),
                              metadata={"distinct_of": EXPRESSIONS})
    scaler: str = field(default="minmax", metadata={"one_of": SCALER_KINDS})
    selection: SelectionConfig = field(default_factory=SelectionConfig)
    smote: SmoteConfig = field(default_factory=SmoteConfig)
    ensemble: EnsembleConfig = field(default_factory=EnsembleConfig)
    threshold: float = field(default=0.5, metadata={"range": "[0, 1]"})

    def validate(self) -> None:
        check_fields(self, "", DataError)
        if not self.ensemble.grid:
            raise DataError("ensemble.grid must hold one or more entries")
        self.candidates()  # checks every grid entry

    @staticmethod
    def candidate_params(entry: dict, where: str = "ensemble.grid entry") -> BoostParams:
        """The booster defaults overridden by the grid entry ``entry``;
        ``where`` names the entry in errors."""
        if not isinstance(entry, dict):
            raise DataError(f"{where}: ensemble.grid entries must be objects, "
                            f"got {entry!r}")
        params = BoostParams()
        _assign(params, entry, f"{where}: unknown booster parameters")
        check_fields(params, f"{where}: booster parameter ", DataError)
        return params

    def candidates(self) -> list:
        return [self.candidate_params(entry, f"ensemble.grid[{i}]")
                for i, entry in enumerate(self.ensemble.grid)]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "PipelineConfig":
        if not isinstance(doc, dict):
            raise DataError("config must be a JSON object")
        cfg = cls()
        _assign(cfg, doc, "unknown config keys")
        cfg.validate()
        return cfg


def load_config(path=None) -> PipelineConfig:
    """Read a config JSON file; with no path, full defaults."""
    if path is None:
        return PipelineConfig()
    return PipelineConfig.from_dict(read_json(path, "config"))

