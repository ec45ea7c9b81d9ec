import json
import re
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import pytest

from hyposcreen.config import (
    DEFAULT_GRID,
    PipelineConfig,
    SELECTION_METHODS,
    load_config,
)
from hyposcreen.errors import DataError, DegenerateParams
from hyposcreen.model.histboost import BoostParams


def save_config(cfg: PipelineConfig, path) -> None:
    path.write_text(json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n")


def test_defaults_are_valid_and_grid_width_matches_m():
    cfg = PipelineConfig()
    cfg.validate()
    assert len(DEFAULT_GRID) == 18
    assert cfg.ensemble.m == 18
    assert cfg.scaler == "minmax"
    assert cfg.selection.method == "lr_coef"
    assert cfg.selection.n_target == 30
    assert set(SELECTION_METHODS) == {"none", "lr_coef", "boost_rfe",
                                      "boost_rfa"}
    lrs = {g["learning_rate"] for g in DEFAULT_GRID}
    leaves = {g["max_leaves"] for g in DEFAULT_GRID}
    minima = {g["min_samples_leaf"] for g in DEFAULT_GRID}
    assert lrs == {0.05, 0.1, 0.2}
    assert leaves == {7, 15, 31}
    assert minima == {10, 20}


def test_round_trip_preserves_everything():
    cfg = PipelineConfig()
    cfg.expressions = ["smile", "disgust"]
    cfg.threshold = 0.4
    cfg.selection.method = "boost_rfa"
    cfg.smote.k_neighbors = 3
    cfg.ensemble.m = 2
    cfg.ensemble.grid = DEFAULT_GRID[:2]
    back = PipelineConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()
    back.validate()


def test_unknown_keys_rejected_at_top_level_and_in_sections():
    with pytest.raises(DataError):
        PipelineConfig.from_dict({"scalar": "minmax"})
    with pytest.raises(DataError):
        PipelineConfig.from_dict({"selection": {"methods": "none"}})
    with pytest.raises(DataError):
        PipelineConfig.from_dict({"ensemble": {"grids": []}})
    with pytest.raises(DataError):
        PipelineConfig.from_dict([1, 2])


def test_validation_catches_bad_values():
    cfg = PipelineConfig()
    cfg.scaler = "robust"
    with pytest.raises(DataError):
        cfg.validate()

    cfg = PipelineConfig()
    cfg.ensemble.m = 19
    with pytest.raises(DataError):
        cfg.validate()

    cfg = PipelineConfig()
    cfg.ensemble.grid = [{"n_estimators": 100}]
    cfg.ensemble.m = 1
    with pytest.raises(DataError):
        cfg.validate()

    cfg = PipelineConfig()
    cfg.ensemble.grid = [{"learning_rate": -0.1}]
    cfg.ensemble.m = 1
    with pytest.raises(DataError):
        cfg.validate()

    cfg = PipelineConfig()
    cfg.expressions = ["frown"]
    with pytest.raises(DataError):
        cfg.validate()

    cfg = PipelineConfig()
    cfg.threshold = 1.2
    with pytest.raises(DataError):
        cfg.validate()

    cfg = PipelineConfig()
    cfg.ensemble.inner_folds = 1
    with pytest.raises(DataError):
        cfg.validate()


def test_candidate_params_fill_defaults():
    params = PipelineConfig.candidate_params({"learning_rate": 0.05})
    assert params.learning_rate == 0.05
    assert params.n_trees == 200
    assert params.max_bins == 255
    cfg = PipelineConfig()
    assert len(cfg.candidates()) == 18


def test_load_save_files(tmp_path):
    cfg = PipelineConfig()
    cfg.ensemble.m = 4
    path = tmp_path / "config.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded.to_dict() == cfg.to_dict()
    (tmp_path / "broken.json").write_text("{not json")
    with pytest.raises(DataError):
        load_config(tmp_path / "broken.json")
    with pytest.raises(DataError):
        load_config(tmp_path / "missing.json")


def _declared_settings() -> dict:
    """Each setting a config can hold, by its README key, as its dataclass
    field: the fields of ``PipelineConfig`` and of its sections, and the
    booster parameters of a grid entry."""
    out = {}

    def walk(cls, prefix):
        for spec in fields(cls):
            default = spec.default_factory() if spec.default is MISSING else spec.default
            if is_dataclass(default):
                walk(type(default), f"{prefix}{spec.name}.")
            else:
                out[prefix + spec.name] = (spec, default)

    walk(PipelineConfig, "")
    walk(BoostParams, "ensemble.grid[i].")
    return out


def _readme_settings_rows() -> list:
    """The rows of README's settings table, as lists of four cells."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| key | JSON type | default | allowed values |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split(" | ")])
    return rows


def test_readme_settings_table_matches_the_declared_settings():
    declared = _declared_settings()
    rows = _readme_settings_rows()
    assert sorted(row[0].strip("`") for row in rows) == sorted(declared)
    for key, json_type, default_text, allowed_text in rows:
        spec, default = declared[key.strip("`")]
        kind = type(default)
        assert json_type.split(" of ")[0] == {
            bool: "boolean", int: "integer", float: "number", str: "string",
            list: "list"}[kind], key
        if key == "`ensemble.grid`":
            assert default == DEFAULT_GRID
            assert default_text == f"the {len(DEFAULT_GRID)} entries of `DEFAULT_GRID`"
            assert len(fields(BoostParams)) == 5
            assert allowed_text == "each entry sets some of the five keys below"
            continue
        value = json.loads(default_text.strip("`"))
        assert type(value) is kind and value == default, key
        meta = spec.metadata
        if kind is bool:
            assert allowed_text == "`true`, `false`", key
        elif kind in (int, float):
            interval = meta.get("range", "(-inf, inf)")
            assert allowed_text == interval or allowed_text.startswith(interval + ", "), key
        elif "one_of" in meta:
            listed = tuple(json.loads(v) for v in re.findall(r"`([^`]*)`", allowed_text))
            assert listed == meta["one_of"], key
        else:
            assert tuple(default) == meta["distinct_of"], key
            assert allowed_text == "one or more of those, each once", key


# keys README names only to say they are no settings any more
RETIRED_KEYS = {"selection.inner_folds", "selection.improvement_eps"}


def test_readme_names_no_section_key_that_is_not_a_setting():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = re.sub(r"```.*?```", "", text, flags=re.S)  # a fence is no code span
    named = {span for span in re.findall(r"`([^`]+)`", text)
             if re.fullmatch(r"(selection|smote|ensemble)\.[\w.\[\]]+", span)}
    declared = set(_declared_settings())
    assert sorted(named - declared - RETIRED_KEYS) == []
    assert RETIRED_KEYS <= named and not RETIRED_KEYS & declared


@pytest.mark.parametrize("doc, named", [
    ({"ensemble": {"inner_folds": "3"}}, "ensemble.inner_folds must be an integer"),
    ({"ensemble": {"inner_folds": 3.0}}, "ensemble.inner_folds must be an integer"),
    ({"ensemble": {"inner_folds": True}}, "ensemble.inner_folds must be an integer"),
    ({"threshold": "0.5"}, "threshold must be a number"),
    ({"threshold": False}, "threshold must be a number"),
    ({"scaler": 5}, "scaler must be a string"),
    ({"expressions": "smile"}, "expressions must be a list"),
    ({"selection": 5}, "selection must be an object"),
    ({"smote": [True]}, "smote must be an object"),
    ({"selection": {"n_target": "30"}}, "selection.n_target must be an integer"),
    ({"threshold": None}, "threshold must be a number"),
    ({"smote": {"enabled": 1}}, "smote.enabled must be a boolean"),
    ({"ensemble": {"grid": 5}}, "ensemble.grid must be a list"),
    ({"ensemble": {"m": 1, "grid": [5]}}, "ensemble.grid entries must be objects"),
    ({"ensemble": {"m": 1, "grid": [{"n_trees": "5"}]}},
     "booster parameter n_trees must be an integer"),
    ({"ensemble": {"m": 1, "grid": [{"learning_rate": True}]}},
     "booster parameter learning_rate must be a number"),
])
def test_values_of_the_wrong_json_type_are_rejected_by_key(doc, named):
    with pytest.raises(DataError, match=named):
        PipelineConfig.from_dict(doc)


def test_number_fields_accept_integers():
    cfg = PipelineConfig.from_dict({
        "threshold": 1, "ensemble": {"m": 1, "grid": [{"learning_rate": 1}]}})
    assert cfg.threshold == 1
    assert cfg.candidates()[0].learning_rate == 1


@pytest.mark.parametrize("doc", [
    {"threshold": 0, "expressions": ["surprise"],
     "selection": {"n_target": 1},
     "smote": {"k_neighbors": 1},
     "ensemble": {"m": 1, "inner_folds": 2, "grid": [
         {"n_trees": 1, "learning_rate": 5e-324, "max_leaves": 2,
          "min_samples_leaf": 1, "max_bins": 2}]}},
    {"threshold": 1, "expressions": ["surprise", "smile", "disgust"],
     "selection": {"n_target": 10**6},
     "ensemble": {"m": 2, "grid": [{"learning_rate": 1, "max_bins": 255},
                                   {"n_trees": 10**6, "max_leaves": 10**6,
                                    "min_samples_leaf": 10**6}]}},
], ids=["lowest", "highest"])
def test_settings_at_their_allowed_bounds_load(doc):
    cfg = PipelineConfig.from_dict(doc)
    assert PipelineConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()
    for entry, params in zip(doc["ensemble"]["grid"], cfg.candidates()):
        assert {k: getattr(params, k) for k in entry} == entry


def test_a_booster_out_of_range_is_a_data_error_through_the_config_only():
    with pytest.raises(DataError) as err:
        PipelineConfig.from_dict({"ensemble": {"m": 1, "grid": [
            {}, {"max_bins": 300}]}})
    assert type(err.value) is DataError
    assert str(err.value) == ("ensemble.grid[1]: booster parameter max_bins "
                              "must be in [2, 255], got 300")
    with pytest.raises(DegenerateParams, match="max_bins must be in"):
        BoostParams(max_bins=300).validate()
