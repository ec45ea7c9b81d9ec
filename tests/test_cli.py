import argparse
import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from conftest import write_predictions

import hyposcreen.cli as cli
from hyposcreen.cli import _config_id, main
from hyposcreen.dataset import META_COLUMNS, read_feature_table, write_feature_table
from hyposcreen.errors import DataError
from hyposcreen.artifact import ensemble_predict, load_ensemble, save_ensemble
from hyposcreen import dataset as dataset_module
from hyposcreen import ensemble as ensemble_module
from hyposcreen.ensemble import train_pipeline
from hyposcreen.config import (EnsembleConfig, PipelineConfig, SelectionConfig, SmoteConfig,
                               load_config)
from hyposcreen.featurize import feature_names as canonical_feature_names
from hyposcreen.featurize import featurize_recording, load_index_map, used_points
from hyposcreen.ingest import load_recording, parse_manifest
from hyposcreen.model import logistic
from hyposcreen.model.histboost import BoostParams
from hyposcreen.synth import generate_synthetic_dataset

FAST_CONFIG = {
    "scaler": "minmax",
    "selection": {"method": "none"},
    "smote": {"enabled": True, "k_neighbors": 3},
    "ensemble": {"m": 1, "inner_folds": 2, "grid": [
        {"n_trees": 10, "learning_rate": 0.2, "max_leaves": 4,
         "min_samples_leaf": 4},
    ]},
}
# the fold and seed counts that cv and sweep run FAST_CONFIG with
FAST_COUNTS = ["--folds", "3", "--seeds", "2"]


@pytest.fixture
def fast_config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FAST_CONFIG))
    return str(path)


@pytest.fixture
def sim_table(tmp_path):
    path = tmp_path / "table.csv"
    rc = main(["simulate", "--n", "25", "--delta", "1.5", "--dims", "4",
               "--seed", "3", "--out", str(path)])
    assert rc == 0
    return str(path)


def test_featurize_produces_full_feature_table(manifest_corpus, tmp_path,
                                               capsys):
    out = tmp_path / "features.csv"
    rc = main(["featurize", "--manifest", str(manifest_corpus),
               "--out", str(out)])
    assert rc == 0
    assert "featurized 4 participants x 126 features" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[:7] == list(META_COLUMNS)
    assert len(header) == 7 + 126
    assert len(rows) == 5
    ds = read_feature_table(out)
    assert ds.participant_ids == ["p01", "p02", "p03", "p04"]
    assert ds.y.tolist() == [1, 0, 1, 0]


def test_featurize_expression_subset(manifest_corpus, tmp_path):
    out = tmp_path / "smile.csv"
    rc = main(["featurize", "--manifest", str(manifest_corpus),
               "--out", str(out), "--expressions", "smile"])
    assert rc == 0
    ds = read_feature_table(out)
    assert len(ds.feature_names) == 42
    assert all(c.startswith("smile_") for c in ds.feature_names)


def test_simulate_output_is_readable(sim_table):
    ds = read_feature_table(sim_table)
    assert ds.n_rows == 50
    assert len(ds.feature_names) == 4
    assert set(ds.demographics["cohort"]) == {"synthetic"}


_PLANT_ONLY_WITH_COLUMN = ("--subgroup-value and --signal-scale plant an effect only "
                           "with --subgroup-column")


@pytest.mark.parametrize("flags, error, message", [
    (["--subgroup-value", "female"], "UsageError", _PLANT_ONLY_WITH_COLUMN),
    (["--signal-scale", "0.2", "--subgroup-value", "female"], "UsageError",
     _PLANT_ONLY_WITH_COLUMN),
    (["--signal-scale", "0"], "UsageError", _PLANT_ONLY_WITH_COLUMN),
    (["--subgroup-column", "sex"], "UsageError", "--subgroup-column needs --subgroup-value"),
    (["--subgroup-column", "sex", "--subgroup-value", "Female", "--signal-scale", "0",
      "--seed", "1"], "DataError",
     "no case has sex 'Female', so there is no signal to damp; the cases hold "
     "['female', 'male']"),
    # seed 0 deals all 10 cases to men
    (["--subgroup-column", "sex", "--subgroup-value", "female", "--signal-scale", "0"],
     "DataError", "no case has sex 'female', so there is no signal to damp; the "
                  "cases hold ['male']"),
], ids=["value-alone", "value-and-scale", "scale-alone", "column-alone", "absent-value",
        "value-of-controls-only"])
def test_simulate_rejects_subgroup_flags_that_would_plant_nothing(
        tmp_path, capsys, flags, error, message):
    out = tmp_path / "table.csv"
    assert main(["simulate", "--n", "10", "--out", str(out)] + flags) == \
        (2 if error == "UsageError" else 3)
    assert _last_error(capsys) == {"error": error, "message": message}
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-2"], "seed must be a non-negative integer, got -2"),
    (["--delta", "nan"], "delta must be a finite number, got nan"),
    (["--delta", "inf"], "delta must be a finite number, got inf"),
    (["--delta=-inf"], "delta must be a finite number, got -inf"),
    (["--subgroup-column", "sex", "--subgroup-value", "male", "--signal-scale", "nan"],
     "signal_scale must be a finite number, got nan"),
], ids=["negative-seed", "nan-delta", "inf-delta", "minus-inf-delta", "nan-scale"])
def test_simulate_names_a_negative_seed_or_a_non_finite_effect(tmp_path, capsys, flags,
                                                               message):
    out = tmp_path / "table.csv"
    assert main(["simulate", "--n", "10", "--out", str(out)] + flags) == 3
    assert _last_error(capsys) == {"error": "DataError", "message": message}
    assert not out.exists()


def test_simulate_plants_a_subgroup_effect_with_the_full_flag_set(tmp_path):
    plain, planted = tmp_path / "plain.csv", tmp_path / "planted.csv"
    assert main(["simulate", "--n", "10", "--seed", "1", "--out", str(plain)]) == 0
    assert main(["simulate", "--n", "10", "--seed", "1", "--out", str(planted),
                 "--subgroup-column", "sex", "--subgroup-value", "female",
                 "--signal-scale", "0"]) == 0
    assert plain.read_bytes() != planted.read_bytes()


def test_train_then_predict_matches_in_process_pipeline(sim_table, tmp_path,
                                                        fast_config_path):
    model_path = tmp_path / "model.json"
    rc = main(["train", "--features", sim_table, "--config", fast_config_path,
               "--out", str(model_path), "--seed", "5"])
    assert rc == 0

    preds_path = tmp_path / "preds.csv"
    rc = main(["predict", "--model", str(model_path), "--features", sim_table,
               "--out", str(preds_path)])
    assert rc == 0

    ds = read_feature_table(sim_table)
    cfg = load_config(fast_config_path)
    ensemble = train_pipeline(ds, cfg, seed=5)
    expected = ensemble_predict(ensemble, ds.X, ds.feature_names)

    with open(preds_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 50
    got = np.array([float(r["score"]) for r in rows])
    assert np.array_equal(got, expected)
    for r, score in zip(rows, got):
        assert int(r["predicted_label"]) == int(score >= 0.5)
        assert r["label"] in {"0", "1"}

    # saved artifact scores identically after a reload
    loaded = load_ensemble(model_path)
    assert np.array_equal(ensemble_predict(loaded, ds.X, ds.feature_names),
                          expected)


@pytest.mark.parametrize("child, value, message", [
    ("right", lambda n: n + 5, "has a child index out of range"),
    ("left", lambda n: 0, "is not reached exactly once from the root"),
], ids=["child-out-of-range", "root-is-its-own-left-child"])
def test_predict_rejects_an_artifact_with_a_malformed_tree(
        sim_table, tmp_path, fast_config_path, capsys, child, value, message):
    # unchecked, the first reads past its tree (an IndexError, exit 4) and the
    # second walks from the root back to the root forever
    model_path = tmp_path / "model.json"
    assert main(["train", "--features", sim_table, "--config", fast_config_path,
                 "--out", str(model_path), "--seed", "5"]) == 0
    doc = json.loads(model_path.read_text())
    trees = doc["base_models"][0]["trees"]
    t = next(i for i, tree in enumerate(trees) if tree["feature"][0] >= 0)
    trees[t][child][0] = value(len(trees[t]["feature"]))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "preds.csv"
    rc = main(["predict", "--model", str(bad), "--features", sim_table,
               "--out", str(out)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "ArtifactError"
    assert f"tree {t}: node 0 {message}" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "explain"])
@pytest.mark.parametrize("n_features", [2, 9])
def test_scoring_commands_reject_an_artifact_whose_width_disagrees(
        sim_table, tmp_path, fast_config_path, capsys, command, n_features):
    # a base model's width is the number of its bin thresholds lists, and
    # it must be the artifact's feature count: unchecked, 2 makes explain
    # read past its attribution vector and 9 fails on the first binning
    model_path = tmp_path / "model.json"
    assert main(["train", "--features", sim_table, "--config", fast_config_path,
                 "--out", str(model_path), "--seed", "5"]) == 0
    doc = json.loads(model_path.read_text())
    thresholds = doc["base_models"][0]["bins"]["thresholds"]
    assert len(thresholds) == len(doc["feature_names"]) == 4
    doc["base_models"][0]["bins"]["thresholds"] = (thresholds * 3)[:n_features]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "out.csv"
    assert main([command, "--model", str(bad), "--features", sim_table,
                 "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "ArtifactError"
    assert err["message"] == (f"cannot load model artifact: bins.thresholds cover "
                              f"{n_features} features, not the 4 the artifact names")
    assert not out.exists()


@pytest.mark.parametrize("command", ["predict", "explain"])
@pytest.mark.parametrize("damage, message", [
    (lambda d: {**d, "meta": {**d["meta"], "intercept": float("nan")}},
     "meta.intercept holds nan, not a finite number"),
    (lambda d: {**d, "threshold": 7.0}, "threshold must be in [0, 1], got 7.0"),
    (lambda d: {**d, "base_models": [{**d["base_models"][0], "params": {
        **d["base_models"][0]["params"], "learning_rate": float("nan")}}]},
     "params.learning_rate must be in (0, 1], got nan"),
    (lambda d: {**d, "threshold": True}, "threshold must be a number, got True"),
], ids=["nan-intercept", "threshold-7", "nan-learning-rate", "bool-threshold"])
def test_scoring_commands_reject_an_artifact_with_a_number_out_of_range(
        sim_table, tmp_path, fast_config_path, capsys, command, damage, message):
    # unchecked, each scored every row alike (nan, or label 0) with exit 0
    model_path = tmp_path / "model.json"
    assert main(["train", "--features", sim_table, "--config", fast_config_path,
                 "--out", str(model_path), "--seed", "5"]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(damage(json.loads(model_path.read_text()))))
    capsys.readouterr()
    out = tmp_path / "out.csv"
    assert main([command, "--model", str(bad), "--features", sim_table,
                 "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ArtifactError",
                   "message": f"cannot load model artifact: {message}"}
    assert not out.exists()


@pytest.mark.parametrize("command, out", [("predict", "preds.csv"), ("explain", "shap.csv")])
@pytest.mark.parametrize("version", [1, 2], ids=["v1", "v2"])
def test_an_older_artifact_scores_byte_identically(tmp_path, monkeypatch, capsys,
                                                   version, command, out):
    # model.json, its table and the outputs beside them were written by the
    # last release that wrote schema ``version`` (cfg.json is its training
    # config); the keys a later schema dropped are never read.  The v2
    # artifact leads with candidate 1, so explain's candidate line shows
    # which key it is read from
    fixture = Path(__file__).parent / "data" / f"artifact_v{version}"
    assert json.loads((fixture / "model.json").read_text())["schema_version"] == version
    monkeypatch.chdir(tmp_path)
    assert main([command, "--model", str(fixture / "model.json"),
                 "--features", str(fixture / "features.csv"), "--out", out]) == 0
    assert (tmp_path / out).read_bytes() == (fixture / out).read_bytes()
    assert capsys.readouterr().out == (fixture / f"{command}.out").read_text()


@pytest.mark.parametrize("command, flag", [("train", "--out"), ("cv", "--roc-out"),
                                           ("sweep", "--out")])
@pytest.mark.parametrize("bad", ["missing/out", "."])
def test_an_unwritable_output_fails_before_any_training(
        sim_table, tmp_path, fast_config_path, monkeypatch, capsys, command, flag, bad):
    # unchecked, cv trained every fold and wrote cv.json before --roc-out failed
    calls = []
    for module in (cli, ensemble_module):
        real = getattr(module, "train_pipeline")
        monkeypatch.setattr(module, "train_pipeline",
                            lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k))
    grid = tmp_path / "grid.json"
    grid.write_text("[{}]")
    monkeypatch.chdir(tmp_path)
    argv = {
        "train": ["--features", sim_table, "--config", fast_config_path],
        "cv": ["--features", sim_table, "--config", fast_config_path, *FAST_COUNTS,
               "--out", "cv.json"],
        "sweep": ["--features", sim_table, "--config", fast_config_path,
                  "--grid", str(grid), *FAST_COUNTS],
    }[command]
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert main([command, *argv, flag, bad]) == 3
    reason = "No such file or directory" if bad != "." else "Is a directory"
    assert json.loads(capsys.readouterr().err) == {
        "error": "DataError", "message": f"cannot write {bad}: {reason}"}
    assert calls == []
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("command, argv, message", [
    ("cv", ["--out", "./x.json", "--roc-out", "x.json"],
     "--out and --roc-out both name x.json; each output needs a file of its own"),
    ("cv", ["--out", "same.json", "--audit-log", "same.json"],
     "--out and --audit-log both name same.json; each output needs a file of its own"),
    ("sweep", ["--grid", "no_such_grid.json", "--preset", "expressions", "--out", "b.csv"],
     "argument --preset: not allowed with argument --grid"),
], ids=["out-and-roc-out", "out-and-audit-log", "grid-and-preset"])
def test_conflicting_flags_are_a_usage_error_before_any_training(
        sim_table, tmp_path, fast_config_path, monkeypatch, capsys, command, argv, message):
    # unchecked, cv trained every fold and its later writer replaced cv.json,
    # and sweep ran the preset without reading the grid, each with exit 0
    calls = []
    for module in (cli, ensemble_module):
        real = getattr(module, "train_pipeline")
        monkeypatch.setattr(module, "train_pipeline",
                            lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k))
    monkeypatch.chdir(tmp_path)
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert main([command, "--features", sim_table, "--config", fast_config_path,
                 "--folds", "3", "--seeds", "1", *argv]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "UsageError", "message": message}
    assert calls == []
    assert sorted(os.listdir(tmp_path)) == before


_INPUT_FLAGS = {
    "featurize": ["--manifest", "--index-map"],
    "train": ["--features", "--config"],
    "cv": ["--features", "--config"],
    "predict": ["--model", "--features"],
    "bias": ["--preds", "--features"],
    "explain": ["--model", "--features"],
    "project": ["--features"],
    "sweep": ["--features", "--config", "--grid"],
}


@pytest.mark.parametrize("command, flag, output", [
    (command, flag, "--out") for command, flags in _INPUT_FLAGS.items() for flag in flags
] + [("cv", "--features", "--roc-svg"), ("cv", "--config", "--audit-log")])
def test_an_output_that_names_an_input_is_a_usage_error_before_any_work(
        manifest_corpus, tmp_path, monkeypatch, capsys, command, flag, output):
    # unchecked, ``predict --features t.csv --out t.csv`` replaced the table by
    # its predictions with exit 0
    data = Path(__file__).parent / "data" / "artifact_v2"
    inputs = {"--features": "features.csv", "--model": "model.json",
              "--config": "cfg.json", "--preds": "preds.csv", "--grid": "grid.json",
              "--manifest": manifest_corpus.name, "--index-map": "index_map.json"}
    for name in ("features.csv", "model.json", "cfg.json", "preds.csv"):
        (tmp_path / name).write_bytes((data / name).read_bytes())
    (tmp_path / "grid.json").write_text("[{}]")
    _write_index_map(tmp_path / "index_map.json")
    calls = []
    for module in (cli, ensemble_module):
        real = getattr(module, "train_pipeline")
        monkeypatch.setattr(module, "train_pipeline",
                            lambda *a, _real=real, **k: calls.append(1) or _real(*a, **k))
    monkeypatch.chdir(tmp_path)
    argv = [command] + [x for f in _INPUT_FLAGS[command] for x in (f, f"./{inputs[f]}")]
    argv += {"bias": ["--group", "sex"], "cv": FAST_COUNTS,
             "sweep": FAST_COUNTS}.get(command, [])
    if output != "--out":
        argv += ["--out", "out.json"]
    target = str(tmp_path / inputs[flag])
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    capsys.readouterr()
    assert main(argv + [output, target]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "UsageError",
        "message": f"{output} names {target}, the {flag} input; "
                   f"an output must not overwrite an input"}
    assert calls == []
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


@pytest.mark.parametrize("field, name", [("au_path", "p01_smile_au.csv"),
                                         ("landmark_path", "p02_surprise_lm.csv")])
def test_featurize_out_that_names_a_manifest_recording_is_a_usage_error(
        manifest_corpus, monkeypatch, capsys, field, name):
    # unchecked, the feature table replaced the recording with exit 0, and the
    # next featurize of the manifest exited 3 on the missing 'frame' column
    entries = json.loads(manifest_corpus.read_text())["entries"]
    entry = next(i for i, e in enumerate(entries) if e[field] == name)
    recording = manifest_corpus.parent / name
    before = recording.read_bytes()
    calls = []
    real = dataset_module.build_feature_table
    monkeypatch.setattr(dataset_module, "build_feature_table",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    out = f"{manifest_corpus.parent}/./{name}"  # equal to the entry's path by realpath only
    capsys.readouterr()
    assert main(["featurize", "--manifest", str(manifest_corpus), "--out", out]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "UsageError",
        "message": f"--out names {out}, the {field} of manifest entry {entry}; "
                   f"an output must not overwrite an input"}
    assert calls == []
    assert recording.read_bytes() == before


def test_readme_names_every_flag_and_no_other():
    parser = cli.build_parser()
    options = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options.update(o for a in sub._actions for o in a.option_strings
                               if o.startswith("--"))
    options.discard("--help")
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    named = set(re.findall(r"(?<![\w-])--[a-z](?:[a-z-]*[a-z])?", readme))
    assert sorted(options - named) == []  # a flag the README never names
    # the one flag the README names that is not the cli's is pip's
    assert sorted(named - options) == ["--no-build-isolation"]


def test_the_cli_runs_under_cprofile(tmp_path):
    # the handlers find their lazily imported names although cProfile runs
    # the module as __main__ under a namespace of its own
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1])] + sys.path)}
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-o", str(tmp_path / "profile.out"),
         "-m", "hyposcreen.cli", "simulate", "--n", "5", "--dims", "2",
         "--out", str(tmp_path / "table.csv")],
        capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert read_feature_table(tmp_path / "table.csv").n_rows == 10


def _train_two_models(table, tmp_path) -> Path:
    """The artifact of a 2-model training on ``table``."""
    doc = json.loads(json.dumps(FAST_CONFIG))
    doc["ensemble"]["m"] = 2
    doc["ensemble"]["grid"].append({**doc["ensemble"]["grid"][0], "learning_rate": 0.1})
    model = tmp_path / "model.json"
    assert main(["train", "--features", table, "--config",
                 _write_config(tmp_path, doc, "two_models.json"), "--out", str(model)]) == 0
    return model


@pytest.mark.parametrize("command", ["predict", "explain"])
def test_scoring_commands_reject_an_artifact_with_a_malformed_kept(
        sim_table, tmp_path, capsys, command):
    # unchecked, predict scored with exit 0 and explain named the lead
    # candidate from whatever provenance.kept held: "candidate True", or an
    # IndexError or KeyError (exit 4)
    doc = json.loads(_train_two_models(sim_table, tmp_path).read_text())
    kept = doc["provenance"]["kept"]
    out = tmp_path / "out.csv"
    for name, bad_kept in [("empty", []), ("short", kept[:1]), ("bool", [True, False]),
                           ("float", [float(ci) for ci in kept]), ("missing", None)]:
        prov = {**doc["provenance"], "kept": bad_kept}
        if bad_kept is None:
            del prov["kept"]
        bad = tmp_path / f"{name}.json"
        bad.write_text(json.dumps({**doc, "provenance": prov}))
        capsys.readouterr()
        assert main([command, "--model", str(bad), "--features", sim_table,
                     "--out", str(out)]) == 3, name
        assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [{
            "error": "ArtifactError",
            "message": "cannot load model artifact: provenance.kept must hold an integer "
                       "candidate index for each of the 2 base models"}], name
        assert not out.exists()


def test_train_warns_on_stderr_when_the_meta_layer_does_not_converge(
        sim_table, tmp_path, fast_config_path, capsys, monkeypatch):
    def train(name):
        path = tmp_path / name
        assert main(["train", "--features", sim_table, "--config", fast_config_path,
                     "--out", str(path), "--seed", "5"]) == 0
        return path, capsys.readouterr()

    _, quiet = train("converged.json")
    assert quiet.err == ""
    monkeypatch.setattr(logistic, "MAX_ITER", 1)
    path, loud = train("unconverged.json")
    assert loud.err.startswith("warning: the meta-layer's logistic fit did not converge")
    assert loud.err.count("\n") == 1
    assert loud.out == quiet.out.replace("converged.json", "unconverged.json")
    # the warning leaves the artifact as the library writes it
    ensemble = train_pipeline(read_feature_table(sim_table),
                              load_config(fast_config_path), seed=5)
    assert not ensemble.meta.converged
    save_ensemble(ensemble, tmp_path / "library.json")
    assert path.read_bytes() == (tmp_path / "library.json").read_bytes()


@pytest.mark.parametrize("command", ["cv", "sweep"])
def test_cv_and_sweep_warn_once_per_run_when_the_meta_layer_does_not_converge(
        sim_table, tmp_path, fast_config_path, capsys, monkeypatch, command):
    grid = tmp_path / "grid.json"
    grid.write_text('[{}, {"threshold": 0.4}]')
    extra = ["--grid", str(grid)] if command == "sweep" else []

    def run(name):
        out = tmp_path / name
        assert main([command, "--features", sim_table, "--config", fast_config_path,
                     "--out", str(out)] + FAST_COUNTS + extra) == 0
        return out, capsys.readouterr()

    _, quiet = run("converged")
    assert quiet.err == ""
    monkeypatch.setattr(logistic, "MAX_ITER", 1)
    out, loud = run("unconverged")
    lines = loud.err.splitlines()
    assert len(lines) == (2 if command == "sweep" else 1)
    for i, line in enumerate(lines):
        where = f"sweep entry {i} (" if command == "sweep" else "the"
        assert line.startswith(f"warning: {where}")
        assert "the meta-layer's logistic fit did not converge in " in line
        assert " of 6 trainings over 2 seeds" in line
    # the count reaches stderr only, never a report
    assert "converge" not in out.read_text()


def _ten_controls_and(cases, sim_table, tmp_path) -> str:
    ds = read_feature_table(sim_table)
    rows = np.concatenate([np.flatnonzero(ds.y == 0)[:10],
                           np.flatnonzero(ds.y == 1)[:cases]])
    path = tmp_path / f"ten_and_{cases}.csv"
    write_feature_table(ds.subset(rows), path)
    return str(path)


def _never_called(*args, **kwargs):
    raise AssertionError("a fold plan too large for a class was not caught first")


def test_train_names_the_inner_fold_setting_a_class_is_too_small_for(
        sim_table, tmp_path, capsys, monkeypatch):
    table = _ten_controls_and(2, sim_table, tmp_path)
    doc = json.loads(json.dumps(FAST_CONFIG))
    doc["ensemble"]["inner_folds"] = 3
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    monkeypatch.setattr(ensemble_module, "fit_scaler", _never_called)
    out = tmp_path / "model.json"
    assert main(["train", "--features", table, "--config", str(config),
                 "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "ClassTooSmall"
    assert err["message"] == "class 1 has 2 rows, fewer than ensemble.inner_folds=3 folds"
    assert not out.exists()


def test_cv_names_the_outer_fold_whose_training_split_is_too_small(
        sim_table, tmp_path, fast_config_path, capsys, monkeypatch):
    table = _ten_controls_and(2, sim_table, tmp_path)
    monkeypatch.setattr(ensemble_module, "train_pipeline", _never_called)
    out = tmp_path / "cv.json"
    assert main(["cv", "--features", table, "--config", fast_config_path,
                 "--folds", "2", "--seeds", "1", "--out", str(out)]) == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "ClassTooSmall"
    assert err["message"] == ("class 1 has 1 rows in the training split of outer "
                              "fold 0, fewer than ensemble.inner_folds=2 folds")
    assert not out.exists()


def _last_error(capsys) -> dict:
    return json.loads(capsys.readouterr().err.splitlines()[-1])


@pytest.mark.parametrize("command", ["cv", "sweep"])
def test_cv_and_sweep_name_the_fold_count_a_class_is_too_small_for(
        sim_table, tmp_path, fast_config_path, capsys, monkeypatch, command):
    # every sweep entry shares the table's rows and --folds, so the count is
    # checked once, before the first entry trains; without the flag it is 10
    table = _ten_controls_and(3, sim_table, tmp_path)
    grid = tmp_path / "grid.json"
    grid.write_text('[{"scaler": "standard"}, {}]')
    extra = ["--grid", str(grid)] if command == "sweep" else []
    monkeypatch.setattr(ensemble_module, "train_pipeline", _never_called)
    out = tmp_path / "out"
    for flags, folds in ((["--folds", "4"], 4), ([], 10)):
        assert main([command, "--features", table, "--config", fast_config_path,
                     "--seeds", "1", "--out", str(out)] + extra + flags) == 3
        err = _last_error(capsys)
        assert err == {"error": "ClassTooSmall",
                       "message": f"class 1 has 3 rows, fewer than --folds={folds} folds"}
        assert not out.exists()


@pytest.mark.parametrize("key", ["cv_folds", "bootstrap_seeds", "seed"])
def test_fold_count_seed_count_and_seed_are_flags_not_config_keys(
        sim_table, tmp_path, fast_config_path, capsys, key):
    # a name of its own: ``config.json`` is the valid base that sweep reads
    config = _write_config(tmp_path, {**FAST_CONFIG, key: 3}, "bad_config.json")
    grid = _write_config(tmp_path, [{}, {key: 3}], "grid.json")
    out = tmp_path / "out"
    for argv, where in ((["train", "--config", config], ""),
                        (["cv", "--config", config] + FAST_COUNTS, ""),
                        (["sweep", "--config", fast_config_path, "--grid", grid]
                         + FAST_COUNTS, "sweep entry 1: ")):
        assert main(argv + ["--features", sim_table, "--out", str(out)]) == 3
        assert _last_error(capsys) == {
            "error": "DataError", "message": f"{where}unknown config keys ['{key}']"}
        assert not out.exists()


@pytest.mark.parametrize("key, value", [("inner_folds", 3), ("improvement_eps", 0.001)])
def test_retired_selection_keys_exit_3_before_anything_trains(
        sim_table, tmp_path, fast_config_path, capsys, monkeypatch, key, value):
    # boost_rfe and boost_rfa score subsets on ensemble.inner_folds folds and
    # stop on select.IMPROVEMENT_EPS; neither is a setting
    selection = {"method": "boost_rfe", "n_target": 2, key: value}
    config = _write_config(tmp_path, {**FAST_CONFIG, "selection": selection},
                           "bad_config.json")
    grid = _write_config(tmp_path, [{"selection": selection}], "grid.json")
    monkeypatch.setattr(ensemble_module, "fit_scaler", _never_called)
    out = tmp_path / "out"
    for argv, where in ((["train", "--config", config], ""),
                        (["sweep", "--config", fast_config_path, "--grid", grid]
                         + FAST_COUNTS, "sweep entry 0: ")):
        assert main(argv + ["--features", sim_table, "--out", str(out)]) == 3
        assert _last_error(capsys) == {
            "error": "DataError", "message": f"{where}unknown selection keys ['{key}']"}
        assert not out.exists()


def test_train_and_cv_reject_an_inner_training_split_smote_cannot_oversample(
        sim_table, tmp_path, fast_config_path, capsys, monkeypatch):
    # ensemble.inner_folds 2 deals 3 cases as 2 + 1, so inner fold 0 trains
    # on 5 controls and 1 case, which SMOTE cannot interpolate from
    monkeypatch.setattr(ensemble_module, "fit_scaler", _never_called)
    out = tmp_path / "model.json"
    assert main(["train", "--features", _ten_controls_and(3, sim_table, tmp_path),
                 "--config", fast_config_path, "--out", str(out)]) == 3
    err = _last_error(capsys)
    assert err["error"] == "TooFewMinority"
    assert err["message"] == (
        "minority class has 1 rows in the training split of inner fold 0 of "
        "ensemble.inner_folds=2, which smote.enabled oversamples; at least 2 "
        "are required for interpolation")
    assert not out.exists()
    # 6 cases in 2 outer folds leave 3 in each training split: the same deal
    monkeypatch.setattr(ensemble_module, "train_pipeline", _never_called)
    assert main(["cv", "--features", _ten_controls_and(6, sim_table, tmp_path),
                 "--config", fast_config_path, "--folds", "2", "--seeds", "1",
                 "--out", str(out)]) == 3
    err = _last_error(capsys)
    assert err["error"] == "TooFewMinority"
    assert ("of ensemble.inner_folds=2 in the training split of outer fold 0, "
            "which smote.enabled oversamples") in err["message"]
    assert not out.exists()


def test_cv_outputs_are_deterministic_across_worker_counts(
        sim_table, tmp_path, fast_config_path, monkeypatch, capsys):
    def run(tag, threads):
        monkeypatch.setenv("HYPOSCREEN_THREADS", threads)
        args = ["cv", "--features", sim_table, "--config", fast_config_path,
                "--seed", "2", *FAST_COUNTS,
                "--out", str(tmp_path / f"cv_{tag}.json"),
                "--roc-out", str(tmp_path / f"roc_{tag}.csv"),
                "--roc-svg", str(tmp_path / f"roc_{tag}.svg"),
                "--audit-log", str(tmp_path / f"audit_{tag}.jsonl")]
        assert main(args) == 0
        return {ext: (tmp_path / f"{ext}_{tag}.{suffix}").read_bytes()
                for ext, suffix in (("cv", "json"), ("roc", "csv"),
                                    ("roc", "svg"), ("audit", "jsonl"))}

    first = run("a", "1")
    second = run("b", "1")
    wide = run("c", "4")
    assert first == second == wide
    assert "pooled AUROC" in capsys.readouterr().out

    report = json.loads((tmp_path / "cv_a.json").read_text())
    assert report["folds"] == 3 and report["seeds"] == 2
    assert report["n_rows"] == 50 and report["n_features"] == 4
    assert "auroc" in report["bootstrap"]["metrics"]
    assert report["primary"]["pooled"]["auroc"] > 0.5
    audit_lines = (tmp_path / "audit_a.jsonl").read_text().splitlines()
    # 2 seeds x 3 folds
    assert len(audit_lines) == 6
    rec = json.loads(audit_lines[0])
    assert rec["seed_index"] == 0 and rec["fold"] == 0
    assert set(rec) == {"seed_index", "fold", "eval_ids", "train_ids", "n_synthetic"}


def test_explain_and_project_commands(sim_table, tmp_path, fast_config_path,
                                      capsys):
    model_path = tmp_path / "model.json"
    assert main(["train", "--features", sim_table, "--config",
                 fast_config_path, "--out", str(model_path),
                 "--seed", "1"]) == 0

    shap_path = tmp_path / "shap.csv"
    assert main(["explain", "--model", str(model_path), "--features",
                 sim_table, "--out", str(shap_path), "--max-rows", "6"]) == 0
    with open(shap_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 * 4
    assert set(rows[0]) == {"row_id", "feature", "shap_value", "feature_value"}

    proj_path = tmp_path / "proj.csv"
    assert main(["project", "--features", sim_table, "--out",
                 str(proj_path)]) == 0
    out = capsys.readouterr().out
    assert "silhouette all:" in out and "explained variance:" in out
    with open(proj_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 50
    assert set(rows[0]) == {"row_id", "pc1", "pc2", "label"}


def test_bias_command_categorical_and_binned(sim_table, tmp_path,
                                             fast_config_path):
    model_path = tmp_path / "model.json"
    preds_path = tmp_path / "preds.csv"
    assert main(["train", "--features", sim_table, "--config",
                 fast_config_path, "--out", str(model_path),
                 "--seed", "1"]) == 0
    assert main(["predict", "--model", str(model_path), "--features",
                 sim_table, "--out", str(preds_path)]) == 0

    sex_path = tmp_path / "bias_sex.json"
    assert main(["bias", "--preds", str(preds_path), "--features", sim_table,
                 "--group", "sex", "--out", str(sex_path)]) == 0
    report = json.loads(sex_path.read_text())
    assert report["group_kind"] == "categorical"
    assert set(report["groups"]) <= {"female", "male"}

    age_path = tmp_path / "bias_age.json"
    assert main(["bias", "--preds", str(preds_path), "--features", sim_table,
                 "--group", "age", "--bins", "35,60,86",
                 "--out", str(age_path)]) == 0
    report = json.loads(age_path.read_text())
    assert report["group_kind"] == "binned"
    assert set(report["groups"]) == {"[35, 60)", "[60, 86]"}



def _bias_inputs(sim_table, tmp_path):
    ids = read_feature_table(sim_table).participant_ids
    preds = tmp_path / "preds.csv"
    write_predictions(preds, ids)
    return ["bias", "--preds", str(preds), "--features", sim_table]


@pytest.mark.parametrize("group", ["ethnicity", "sex", "cohort"])
def test_bias_rejects_bins_on_a_categorical_column(sim_table, tmp_path, capsys,
                                                   group):
    out = tmp_path / "bias.json"
    rc = main(_bias_inputs(sim_table, tmp_path)
              + ["--group", group, "--bins", "1,2", "--out", str(out)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "UsageError"
    assert repr(group) in err["message"]
    assert "age" in err["message"] and "disease_duration" in err["message"]
    assert not out.exists()


def test_bias_rejects_nan_bin_edges_and_keeps_infinite_outer_edges(
        sim_table, tmp_path, capsys):
    args = _bias_inputs(sim_table, tmp_path) + ["--group", "age"]
    out = tmp_path / "bias.json"
    for bins in ("35,nan,86", "nan,86", "35,NaN", "-nan,35,86"):
        assert main(args + [f"--bins={bins}", "--out", str(out)]) == 2, bins
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "UsageError" and repr(bins) in err["message"]
        assert not out.exists()
    # argparse reads a separate "-inf,60,inf" as an option, so a list that
    # starts with "-" needs the = form
    assert main(args + ["--bins", "-inf,60,inf", "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err == {"error": "UsageError",
                   "message": "argument --bins: expected one argument"}
    assert not out.exists()
    assert main(args + ["--bins=-inf,60,inf", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report["groups"]) == {"[-inf, 60)", "[60, inf]"}


@pytest.mark.parametrize("bins", ["35,,55,86", "35,55,86,", ",35,86", "35, ,86"])
def test_bias_rejects_an_empty_bin_edge(sim_table, tmp_path, capsys, bins):
    out = tmp_path / "bias.json"
    assert main(_bias_inputs(sim_table, tmp_path)
                + ["--group", "age", f"--bins={bins}", "--out", str(out)]) == 2
    assert _last_error(capsys) == {
        "error": "UsageError", "message": f"numeric list {bins!r} holds an empty item"}
    assert not out.exists()


@pytest.mark.parametrize("bins", ["50,0", "50", "35,35,86", "inf,inf"])
def test_bias_rejects_bin_edges_that_do_not_increase(sim_table, tmp_path, capsys, bins):
    out = tmp_path / "bias.json"
    assert main(_bias_inputs(sim_table, tmp_path)
                + ["--group", "age", "--bins", bins, "--out", str(out)]) == 2
    assert _last_error(capsys) == {
        "error": "UsageError",
        "message": f"--bins must hold at least 2 strictly increasing edges, got {bins!r}"}
    assert not out.exists()


def test_sweep_grid_produces_sorted_leaderboard(sim_table, tmp_path,
                                                fast_config_path, monkeypatch,
                                                capsys):
    grid_path = tmp_path / "grid.json"
    grid_path.write_text(json.dumps([
        {"scaler": "minmax"},
        {"scaler": "standard"},
    ]))
    boards = []
    for threads in ("1", "4"):
        monkeypatch.setenv("HYPOSCREEN_THREADS", threads)
        board_path = tmp_path / f"board{threads}.csv"
        assert main(["sweep", "--features", sim_table, "--config",
                     fast_config_path, "--grid", str(grid_path), "--folds", "3",
                     "--seeds", "2", "--seed", "4", "--out",
                     str(board_path)]) == 0
        assert "best:" in capsys.readouterr().out
        boards.append(board_path.read_bytes())
    assert boards[0] == boards[1]
    with open(board_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {r["scaler"] for r in rows} == {"minmax", "standard"}
    aurocs = [float(r["auroc_mean"]) for r in rows]
    assert aurocs == sorted(aurocs, reverse=True)
    assert all(len(r["config_id"]) == 10 for r in rows)


def test_sweep_rows_and_best_line_name_each_entry_by_its_override(
        sim_table, tmp_path, fast_config_path, capsys):
    grid = _write_config(tmp_path, [{"selection": {"n_target": n, "method": "lr_coef"}}
                                    for n in (1, 2)] + [{}], "grid.json")
    out = tmp_path / "board.csv"
    assert main(["sweep", "--features", sim_table, "--config", fast_config_path,
                 "--grid", grid, "--out", str(out)] + FAST_COUNTS) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(r["override"] for r in rows) == [
        '{"selection":{"method":"lr_coef","n_target":1}}',
        '{"selection":{"method":"lr_coef","n_target":2}}', "{}"]
    best = rows[0]
    assert capsys.readouterr().out == (
        f"best: {best['override']} (config_id {best['config_id']}, "
        f"auroc {float(best['auroc_mean']):.4f}) -> {out}\n")


def test_sweep_preset_rows_name_their_expression_subset(tmp_path, fast_config_path):
    ds = generate_synthetic_dataset(n_per_class=6, delta=1.0, dims=126, seed=2)
    ds.feature_names = canonical_feature_names()
    table = tmp_path / "canonical.csv"
    write_feature_table(ds, table)
    out = tmp_path / "board.csv"
    assert main(["sweep", "--features", str(table), "--config", fast_config_path,
                 "--preset", "expressions", "--folds", "2", "--seeds", "1",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 7
    for row in rows:
        subset = row["expressions"].split("+")
        assert row["override"] == json.dumps({"expressions": subset}, separators=(",", ":"))


def test_sweep_checks_every_entry_s_inner_folds_before_the_first_trains(
        tmp_path, fast_config_path, capsys, monkeypatch):
    # 2 outer folds of 12 + 12 rows train on 6 of each class, too few for
    # entry 1's 7 inner folds; entry 0 would train first if unchecked
    table = tmp_path / "table.csv"
    assert main(["simulate", "--n", "12", "--dims", "4", "--out", str(table)]) == 0
    grid = _write_config(tmp_path, [{"scaler": "standard"},
                                    {"ensemble": {"inner_folds": 7}}], "grid.json")
    monkeypatch.setattr(ensemble_module, "train_pipeline", _never_called)
    out = tmp_path / "board.csv"
    assert main(["sweep", "--features", str(table), "--config", fast_config_path,
                 "--grid", grid, "--folds", "2", "--seeds", "2", "--out", str(out)]) == 3
    assert _last_error(capsys) == {
        "error": "ClassTooSmall",
        "message": "sweep entry 1: class 0 has 6 rows in the training split of outer "
                   "fold 0, fewer than ensemble.inner_folds=7 folds"}
    assert not out.exists()


@pytest.mark.parametrize("override, message", [
    ({"scaler": "robust"},
     "scaler must be one of ('minmax', 'standard', 'none'), got 'robust'"),
    ({"cv_folds": 3}, "unknown config keys ['cv_folds']"),
])
def test_sweep_names_the_entry_whose_config_is_invalid(
        sim_table, tmp_path, fast_config_path, capsys, override, message):
    grid = _write_config(tmp_path, [{}, override], "grid.json")
    out = tmp_path / "board.csv"
    assert main(["sweep", "--features", sim_table, "--config", fast_config_path,
                 "--grid", grid, "--out", str(out)] + FAST_COUNTS) == 3
    assert _last_error(capsys) == {"error": "DataError",
                                   "message": f"sweep entry 1: {message}"}
    assert not out.exists()


def _set_cell(path, row, col, value):
    """Overwrite one cell of a csv; ``row`` counts data rows from 0."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row + 1][rows[0].index(col)] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_featurize_rejects_non_finite_landmark(manifest_corpus, tmp_path, capsys):
    _set_cell(manifest_corpus.parent / "p02_smile_lm.csv", 2, "p468_x", "nan")
    rc = main(["featurize", "--manifest", str(manifest_corpus),
               "--out", str(tmp_path / "features.csv")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "OutOfRange"
    assert "row 2" in err["message"] and "'p468_x'" in err["message"]
    assert not (tmp_path / "features.csv").exists()


def test_featurize_reads_only_the_requested_expressions(manifest_corpus, tmp_path,
                                                       capsys):
    def featurize(out, *extra):
        return main(["featurize", "--manifest", str(manifest_corpus),
                     "--out", str(out), *extra])

    assert featurize(tmp_path / "before.csv", "--expressions", "smile") == 0
    _set_cell(manifest_corpus.parent / "p02_surprise_lm.csv", 1, "p468_x", "oops")
    assert featurize(tmp_path / "after.csv", "--expressions", "smile") == 0
    assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()
    capsys.readouterr()
    assert featurize(tmp_path / "all.csv") == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "NonNumericCell" and "'p468_x'" in err["message"]


def _write_index_map(path, shift=0, **attributes):
    """The packaged index map with every point moved ``shift`` places down
    the mesh, then ``attributes`` replaced."""
    def move(ids):
        return [(i - shift) % 478 for i in ids]

    doc = load_index_map()
    doc["iris"] = {side: move(ids) for side, ids in doc["iris"].items()}
    doc["attributes"] = {name: [move(a), move(b)]
                         for name, (a, b) in doc["attributes"].items()}
    doc["attributes"].update(attributes)
    path.write_text(json.dumps(doc))
    return doc


def test_featurize_rejects_an_index_map_point_out_of_range(manifest_corpus, tmp_path,
                                                           capsys):
    index_map = tmp_path / "map.json"
    _write_index_map(index_map, mouth_open=[[478], [14]])
    # the map is checked before any recording is read
    _set_cell(manifest_corpus.parent / "p01_smile_lm.csv", 0, "p014_x", "oops")
    rc = main(["featurize", "--manifest", str(manifest_corpus), "--out",
               str(tmp_path / "features.csv"), "--index-map", str(index_map)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "IndexOutOfRange" and "478" in err["message"]
    assert not (tmp_path / "features.csv").exists()


def _packaged_map_with(**changes) -> str:
    """The packaged index map's JSON text with top-level keys replaced."""
    return json.dumps({**load_index_map(), **changes})


_ATTRIBUTES = load_index_map()["attributes"]


@pytest.mark.parametrize("text, message", [
    (None, "index map file not found"),
    ("{nope", "index map is not valid JSON"),
    (_packaged_map_with(iris=5), "'iris'"),
    (_packaged_map_with(attributes={**_ATTRIBUTES, "mouth_open": [[13]]}),
     "'mouth_open'"),
    (_packaged_map_with(attributes={**_ATTRIBUTES, "jaw_open": [["152"], [1]]}),
     "'jaw_open'"),
], ids=["missing", "not_json", "iris_not_an_object", "attribute_not_a_pair",
        "attribute_not_indices"])
def test_featurize_rejects_an_index_map_of_the_wrong_shape(manifest_corpus, tmp_path,
                                                           capsys, text, message):
    index_map = tmp_path / "map.json"
    if text is not None:
        index_map.write_text(text)
    rc = main(["featurize", "--manifest", str(manifest_corpus), "--out",
               str(tmp_path / "features.csv"), "--index-map", str(index_map)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "DataError" and message in err["message"]
    assert not (tmp_path / "features.csv").exists()


def test_featurize_reads_the_columns_of_a_custom_index_map(manifest_corpus, tmp_path,
                                                           capsys):
    index_map = tmp_path / "map.json"
    doc = _write_index_map(index_map, shift=100)
    assert 368 in used_points(doc) and 368 not in used_points(load_index_map())
    out = tmp_path / "features.csv"
    rc = main(["featurize", "--manifest", str(manifest_corpus), "--out", str(out),
               "--index-map", str(index_map)])
    assert rc == 0
    # the same values as featurizing full reads of every recording
    manifest = parse_manifest(manifest_corpus)
    want = [featurize_recording({e: load_recording(entry, manifest.base_dir)
                                 for e, entry in entries.items()}, doc).values
            for entries in manifest.by_participant().values()]
    got = read_feature_table(out)
    assert np.array_equal(got.X, [[v[n] for n in got.feature_names] for v in want])
    # a bad cell in a column of the custom map's points fails, and only there
    _set_cell(manifest_corpus.parent / "p03_disgust_lm.csv", 2, "p368_y", "oops")
    assert main(["featurize", "--manifest", str(manifest_corpus),
                 "--out", str(tmp_path / "default.csv")]) == 0
    capsys.readouterr()
    rc = main(["featurize", "--manifest", str(manifest_corpus), "--out",
               str(tmp_path / "custom.csv"), "--index-map", str(index_map)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "NonNumericCell"
    assert "row 2" in err["message"] and "'p368_y'" in err["message"]


def _repeat_column(path, col, value=None):
    """Append a second column named ``col``: a copy, or ``value`` in every row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    j = rows[0].index(col)
    for r, row in enumerate(rows):
        row.append(row[j] if r == 0 or value is None else value)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.mark.parametrize("kind, col", [("au", "AU06_r"), ("landmark", "p468_x")])
def test_featurize_rejects_header_naming_a_column_twice(manifest_corpus, tmp_path,
                                                        capsys, kind, col):
    suffix = {"au": "au", "landmark": "lm"}[kind]
    _repeat_column(manifest_corpus.parent / f"p02_smile_{suffix}.csv", col)
    rc = main(["featurize", "--manifest", str(manifest_corpus),
               "--out", str(tmp_path / "features.csv")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "DuplicateEntry"
    assert "header column" in err["message"] and repr(col) in err["message"]
    assert not (tmp_path / "features.csv").exists()


def test_project_rejects_feature_table_naming_a_column_twice(tmp_path, capsys):
    # the second label column used to win without a word
    table = tmp_path / "table.csv"
    table.write_text("participant_id,label,f0,f0,label\n"
                     "a,1,1.0,2.0,0\nb,0,3.0,4.0,1\nc,1,5.0,6.0,0\n")
    rc = main(["project", "--features", str(table), "--out", str(tmp_path / "c.csv")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "DuplicateEntry"
    assert "header column" in err["message"] and "'f0'" in err["message"]
    assert not (tmp_path / "c.csv").exists()


def test_bias_rejects_predictions_naming_a_column_twice(sim_table, tmp_path, capsys):
    ids = read_feature_table(sim_table).participant_ids[:4]
    preds = tmp_path / "preds.csv"
    write_predictions(preds, ids)
    _repeat_column(preds, "score", "0.9")
    rc = main(["bias", "--preds", str(preds), "--features", sim_table,
               "--group", "sex", "--out", str(tmp_path / "bias.json")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "DuplicateEntry"
    assert "header column" in err["message"] and "'score'" in err["message"]
    assert not (tmp_path / "bias.json").exists()


def test_train_and_predict_reject_non_finite_feature(sim_table, tmp_path,
                                                     fast_config_path, capsys):
    model = tmp_path / "model.json"
    assert main(["train", "--features", sim_table, "--config",
                 fast_config_path, "--out", str(model), "--seed", "1"]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_bytes(open(sim_table, "rb").read())
    feature = read_feature_table(bad).feature_names[1]
    _set_cell(bad, 4, feature, "inf")
    capsys.readouterr()
    for argv in (["train", "--features", str(bad), "--config", fast_config_path,
                  "--out", str(tmp_path / "m2.json"), "--seed", "1"],
                 ["predict", "--model", str(model), "--features", str(bad),
                  "--out", str(tmp_path / "p.csv")]):
        assert main(argv) == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "OutOfRange"
        assert "row 4" in err["message"] and repr(feature) in err["message"]


# ``predict`` and ``explain`` convert only the feature columns the artifact
# uses and ``bias`` none; every other command converts them all.  A table
# whose last column is a feature the artifact does not use shows both sides.

@pytest.fixture
def scoring_setup(sim_table, tmp_path):
    """An artifact that uses two of the table's four features, and a copy of
    the table whose last column is one of the two it does not use."""
    config = tmp_path / "select2.json"
    config.write_text(json.dumps({**FAST_CONFIG,
                                  "selection": {"method": "lr_coef", "n_target": 2}}))
    model = tmp_path / "model.json"
    assert main(["train", "--features", sim_table, "--config", str(config),
                 "--out", str(model), "--seed", "1"]) == 0
    used = load_ensemble(model).feature_names
    with open(sim_table, newline="") as fh:
        rows = list(csv.reader(fh))
    unused = [c for c in rows[0] if c.startswith("f") and c not in used]
    assert len(used) == 2 and len(unused) == 2
    order = [j for j, c in enumerate(rows[0]) if c != unused[1]]
    order.append(rows[0].index(unused[1]))
    table = tmp_path / "scoring.csv"
    with open(table, "w", newline="") as fh:
        csv.writer(fh).writerows([row[j] for j in order] for row in rows)
    ids = read_feature_table(table).participant_ids
    preds = tmp_path / "preds.csv"
    write_predictions(preds, ids)
    return {"model": str(model), "config": str(config), "table": table,
            "preds": str(preds), "used": used, "unused": unused}


def _scoring_outputs(setup, table, out_dir, capsys):
    """Exit codes, output bytes and last stderr line of predict, explain and
    bias on ``table``."""
    out_dir.mkdir()
    runs = {
        "preds.csv": ["predict", "--model", setup["model"], "--out"],
        "shap.csv": ["explain", "--model", setup["model"], "--max-rows", "5", "--out"],
        "bias.json": ["bias", "--preds", setup["preds"], "--group", "sex", "--out"],
    }
    got = {}
    for name, argv in runs.items():
        out = out_dir / name
        code = main(argv + [str(out), "--features", str(table)])
        err = capsys.readouterr().err.splitlines()
        got[name] = (code, out.read_bytes() if out.exists() else None,
                     err[-1] if err else None)
    return got


def _raised(read):
    try:
        read()
    except DataError as exc:
        return type(exc).__name__, str(exc)
    return None


def test_scoring_commands_skip_cells_of_unused_feature_columns(scoring_setup,
                                                               tmp_path, capsys):
    setup = scoring_setup
    clean = _scoring_outputs(setup, setup["table"], tmp_path / "clean", capsys)
    assert all(code == 0 and err is None for code, _, err in clean.values())
    for k, name in enumerate(setup["unused"]):
        bad = tmp_path / f"unused{k}.csv"
        bad.write_bytes(setup["table"].read_bytes())
        _set_cell(bad, 3, name, "oops")
        assert _scoring_outputs(setup, bad, tmp_path / f"unused{k}", capsys) == clean


def test_scoring_commands_reject_bad_cells_of_used_feature_columns(scoring_setup,
                                                                   tmp_path, capsys):
    setup = scoring_setup
    bad = tmp_path / "used.csv"
    bad.write_bytes(setup["table"].read_bytes())
    _set_cell(bad, 3, setup["used"][1], "oops")
    want = _raised(lambda: read_feature_table(bad))
    assert want == ("NonNumericCell",
                    f"non-numeric cell at row 3, column {setup['used'][1]!r}")
    got = _scoring_outputs(setup, bad, tmp_path / "used", capsys)
    for name in ("preds.csv", "shap.csv"):
        code, out, err = got[name]
        assert code == 3 and out is None
        assert json.loads(err) == {"error": want[0], "message": want[1]}
    assert got["bias.json"][0] == 0  # bias converts no feature column


def test_scoring_commands_reject_a_row_short_of_an_unused_column(scoring_setup,
                                                                 tmp_path, capsys):
    # the row reaches every column the commands read; only the width rule
    # stops it, with the message a full read gives
    setup = scoring_setup
    lines = setup["table"].read_text().splitlines()
    lines[4] = lines[4].rsplit(",", 1)[0]
    bad = tmp_path / "short.csv"
    bad.write_text("\n".join(lines) + "\n")
    want = _raised(lambda: read_feature_table(bad))
    assert want == ("MissingCell",
                    f"row 3 ends before column {setup['unused'][1]!r}")
    for code, out, err in _scoring_outputs(setup, bad, tmp_path / "short",
                                           capsys).values():
        assert code == 3 and out is None
        assert json.loads(err) == {"error": want[0], "message": want[1]}


def test_feature_table_and_predictions_reject_a_wide_row(scoring_setup, tmp_path,
                                                         capsys):
    setup = scoring_setup
    lines = setup["table"].read_text().splitlines()
    width = lines[0].count(",") + 1
    lines[4] += ",0.5"
    bad = tmp_path / "wide.csv"
    bad.write_text("\n".join(lines) + "\n")
    message = f"row 3 has {width + 1} cells, more than the header's {width}"
    got = _scoring_outputs(setup, bad, tmp_path / "wide", capsys)
    rc = main(["project", "--features", str(bad), "--out", str(tmp_path / "c.csv")])
    got["coords.csv"] = (rc, None, capsys.readouterr().err.splitlines()[-1])
    preds = Path(setup["preds"]).read_text().splitlines()
    preds[4] += ",0.5"
    wide_preds = tmp_path / "wide_preds.csv"
    wide_preds.write_text("\n".join(preds) + "\n")
    rc = main(["bias", "--preds", str(wide_preds), "--features", str(setup["table"]),
               "--group", "sex", "--out", str(tmp_path / "bias.json")])
    err = capsys.readouterr().err.splitlines()[-1]
    assert rc == 3 and not (tmp_path / "bias.json").exists()
    assert json.loads(err) == {"error": "WideRow",
                               "message": "row 3 has 4 cells, more than the header's 3"}
    for code, out, err in got.values():
        assert code == 3 and out is None
        assert json.loads(err) == {"error": "WideRow", "message": message}


@pytest.mark.parametrize("command", ["project", "train", "cv"])
def test_table_commands_reject_a_bad_cell_in_any_feature_column(
        scoring_setup, tmp_path, capsys, command):
    setup = scoring_setup
    out = str(tmp_path / "out")
    argv = {"project": ["project", "--out", out],
            "train": ["train", "--config", setup["config"], "--out", out],
            "cv": ["cv", "--config", setup["config"], "--out", out]}[command]
    for name in setup["used"] + setup["unused"]:
        bad = tmp_path / f"{name}.csv"
        bad.write_bytes(setup["table"].read_bytes())
        _set_cell(bad, 3, name, "oops")
        assert main(argv + ["--features", str(bad)]) == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {"error": "NonNumericCell",
                       "message": f"non-numeric cell at row 3, column {name!r}"}
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad_row, error, column", [
    pytest.param("p03,high,0", "NonNumericCell", "score",
                 id="p03,high-NonNumericCell-score"),
    ("p03", "MissingCell", "score"),
    pytest.param("p03,nan,0", "OutOfRange", "score", id="p03,nan-OutOfRange-score"),
    ("p03,0.3", "MissingCell", "predicted_label"),
    ("p03,0.3,0.5", "OutOfRange", "predicted_label"),
])
def test_bias_rejects_bad_prediction_rows(sim_table, tmp_path, capsys, bad_row,
                                          error, column):
    ids = read_feature_table(sim_table).participant_ids[:6]
    rows = [f"{pid},0.{i},{int(i >= 5)}" for i, pid in enumerate(ids)]
    rows[3] = bad_row.replace("p03", ids[3])
    preds = tmp_path / "preds.csv"
    preds.write_text("participant_id,score,predicted_label\n" + "\n".join(rows) + "\n")
    rc = main(["bias", "--preds", str(preds), "--features", sim_table,
               "--group", "sex", "--out", str(tmp_path / "bias.json")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == error
    assert "row 3" in err["message"] and repr(column) in err["message"]
    assert not (tmp_path / "bias.json").exists()


def test_bias_rejects_participant_listed_twice(sim_table, tmp_path, capsys):
    ids = read_feature_table(sim_table).participant_ids[:4]
    rows = [f"{pid},0.{i},0" for i, pid in enumerate(ids)] + [f"{ids[2]},0.9,1"]
    preds = tmp_path / "preds.csv"
    preds.write_text("participant_id,score,predicted_label\n" + "\n".join(rows) + "\n")
    rc = main(["bias", "--preds", str(preds), "--features", sim_table,
               "--group", "sex", "--out", str(tmp_path / "bias.json")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "DuplicateEntry"
    assert "predictions" in err["message"] and repr(ids[2]) in err["message"]
    assert not (tmp_path / "bias.json").exists()


def test_bias_rejects_a_threshold_and_a_seed(sim_table, tmp_path, capsys):
    # the decisions are the predictions file's, made at the artifact's threshold
    preds = tmp_path / "preds.csv"
    write_predictions(preds, read_feature_table(sim_table).participant_ids[:6])
    out = tmp_path / "bias.json"
    args = ["bias", "--preds", str(preds), "--features", sim_table,
            "--group", "sex", "--out", str(out)]
    for flags in (["--threshold", "0.5"], ["--seed", "3"]):
        assert main(args + flags) == 2, flags
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err == {"error": "UsageError",
                       "message": f"unrecognized arguments: {' '.join(flags)}"}
        assert not out.exists()
    assert main(args) == 0


def test_explain_rejects_max_rows_below_one(sim_table, tmp_path,
                                            fast_config_path, capsys):
    model = tmp_path / "model.json"
    assert main(["train", "--features", sim_table, "--config",
                 fast_config_path, "--out", str(model), "--seed", "1"]) == 0
    out = tmp_path / "shap.csv"
    for max_rows in ("0", "-1"):
        rc = main(["explain", "--model", str(model), "--features", sim_table,
                   "--out", str(out), "--max-rows", max_rows])
        assert rc == 2, max_rows
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "UsageError" and "--max-rows" in err["message"]
        assert not out.exists()


@pytest.mark.parametrize("command", ["cv", "sweep"])
def test_cv_and_sweep_reject_too_few_folds_or_seeds(sim_table, tmp_path,
                                                     fast_config_path, capsys,
                                                     command):
    grid = tmp_path / "grid.json"
    grid.write_text("[{}]")
    out = tmp_path / "out"
    extra = ["--grid", str(grid)] if command == "sweep" else []
    for flags, named in ((["--folds", "0", "--seeds", "0"], "--folds"),
                         (["--folds", "1"], "--folds"),
                         (["--seeds", "0"], "--seeds"),
                         (["--folds", "3", "--seeds", "-1"], "--seeds")):
        rc = main([command, "--features", sim_table, "--config",
                   fast_config_path, "--out", str(out)] + extra + flags)
        assert rc == 2, flags
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "UsageError"
        assert named in err["message"], (flags, err["message"])
        assert not out.exists()


def test_exit_codes(sim_table, tmp_path, fast_config_path, capsys):
    # argparse rejection: missing required --out
    assert main(["simulate", "--n", "5"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.splitlines()[-1])["error"] == "UsageError"

    # continuous grouping column without bin edges
    model_path = tmp_path / "model.json"
    preds_path = tmp_path / "preds.csv"
    assert main(["train", "--features", sim_table, "--config",
                 fast_config_path, "--out", str(model_path),
                 "--seed", "1"]) == 0
    assert main(["predict", "--model", str(model_path), "--features",
                 sim_table, "--out", str(preds_path)]) == 0
    rc = main(["bias", "--preds", str(preds_path), "--features", sim_table,
               "--group", "age", "--out", str(tmp_path / "bias.json")])
    assert rc == 2

    # unknown grouping column is a data problem
    rc = main(["bias", "--preds", str(preds_path), "--features", sim_table,
               "--group", "height", "--out", str(tmp_path / "bias.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert json.loads(err.splitlines()[-1])["error"] == "UnknownColumn"

    # missing inputs are data problems
    assert main(["predict", "--model", str(tmp_path / "nope.json"),
                 "--features", sim_table,
                 "--out", str(tmp_path / "p.csv")]) == 3
    assert main(["train", "--features", str(tmp_path / "nope.csv"),
                 "--config", fast_config_path,
                 "--out", str(tmp_path / "m.json")]) == 3
    assert main(["cv", "--features", sim_table, "--config",
                 str(tmp_path / "nope_cfg.json"),
                 "--out", str(tmp_path / "cv.json")]) == 3

    # sweep without a grid source is a usage problem
    assert main(["sweep", "--features", sim_table,
                 "--out", str(tmp_path / "b.csv")]) == 2


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
@pytest.mark.parametrize("role", ["manifest", "au_path", "landmark_path", "features",
                                  "preds", "model", "config", "grid", "index-map"])
def test_an_input_file_that_is_a_directory_or_not_utf8_exits_3(
        manifest_corpus, sim_table, tmp_path, capsys, role, kind):
    bad = tmp_path / "bad_input"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfe\x00 bad")
    manifest = str(manifest_corpus)
    if role in ("au_path", "landmark_path"):
        doc = json.loads(manifest_corpus.read_text())
        doc["entries"][0][role] = bad.name
        manifest = str(tmp_path / "pointing.json")
        Path(manifest).write_text(json.dumps(doc))
    bad = str(bad)
    argv = {
        "manifest": ["featurize", "--manifest", bad],
        "au_path": ["featurize", "--manifest", manifest],
        "landmark_path": ["featurize", "--manifest", manifest],
        "index-map": ["featurize", "--manifest", manifest, "--index-map", bad],
        "features": ["project", "--features", bad],
        "preds": ["bias", "--preds", bad, "--features", sim_table, "--group", "sex"],
        "model": ["predict", "--model", bad, "--features", sim_table],
        "config": ["train", "--features", sim_table, "--config", bad],
        "grid": ["sweep", "--features", sim_table, "--grid", bad],
    }[role]
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "out")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] != "InternalError"
    assert not (tmp_path / "out").exists()


TRAIN_RANGE_CASES = [
    ("smote", "k_neighbors", 0),
    ("smote", "k_neighbors", -3),
    ("ensemble", "inner_folds", 0),
    ("ensemble", "inner_folds", 1),
    ("selection", "n_target", 0),
    ("selection", "method", "pick"),
    ("ensemble", "m", 0),
]


@pytest.mark.parametrize("section, key, value", TRAIN_RANGE_CASES, ids=[
    "k-zero", "k-negative", "ensemble-folds-zero", "ensemble-folds-one",
    "n-target-zero", "method-unknown", "m-zero"])
def test_train_rejects_a_setting_out_of_range_when_loading_the_config(
        sim_table, tmp_path, capsys, section, key, value):
    # each of these trained and exited 0 when only the component that reads
    # the setting checked it (SMOTE never ran on the balanced table), or
    # failed only once training ran without naming the key
    # (ensemble.inner_folds 1)
    doc = json.loads(json.dumps(FAST_CONFIG))
    doc["selection"] = {"method": "boost_rfe", "n_target": 2}
    doc[section][key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))  # NaN and Infinity literals, as json reads them
    out = tmp_path / "model.json"
    rc = main(["train", "--features", sim_table, "--config", str(config),
               "--out", str(out), "--seed", "1"])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "DataError" and f"{section}.{key}" in err["message"]
    assert not out.exists()


# the first rejected value of every setting that is not in a section, and
# of every booster parameter at each of its bounds (a second grid entry)
TOP_LEVEL_AND_BOOSTER_CASES = [
    ("threshold", float("nan")), ("threshold", float("inf")), ("threshold", -0.01),
    ("threshold", 1.01), ("scaler", "robust"), ("expressions", []),
    ("expressions", ["frown"]), ("expressions", ["smile", "smile"]),
    ("n_trees", 0), ("learning_rate", 0), ("learning_rate", 1.01),
    ("max_leaves", 1), ("min_samples_leaf", 0), ("max_bins", 1),
    ("max_bins", 256),
]


def test_every_declared_range_has_a_rejection_case():
    cases = {(s, k) for s, k, _ in TRAIN_RANGE_CASES}
    cases |= {("", k) for k, _ in TOP_LEVEL_AND_BOOSTER_CASES}
    declared = set()
    for section, cls in (("", PipelineConfig), ("selection", SelectionConfig),
                         ("smote", SmoteConfig), ("ensemble", EnsembleConfig),
                         ("", BoostParams)):
        declared |= {(section, f.name) for f in fields(cls) if f.metadata}
    assert declared <= cases


@pytest.mark.parametrize("key, value", TOP_LEVEL_AND_BOOSTER_CASES)
def test_train_rejects_a_top_level_or_booster_setting_out_of_range(
        sim_table, tmp_path, capsys, key, value):
    doc = json.loads(json.dumps(FAST_CONFIG))
    if key in BoostParams.__dataclass_fields__:
        doc["ensemble"]["grid"].append({key: value})
        named = f"ensemble.grid[1]: booster parameter {key}"
    else:
        doc[key] = value
        named = key
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "model.json"
    rc = main(["train", "--features", sim_table, "--config", str(config),
               "--out", str(out)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "DataError" and err["message"].startswith(named)
    assert not out.exists()


@pytest.mark.parametrize("grid_text, message", [
    (None, "grid file not found"),
    ("[{\"scaler\": ", "grid is not valid JSON"),
    ("{\"overrides\": [{}]}", "grid must be a list of config overrides"),
    ("[{}, 5]", "grid entry 1 must be an object"),
    ("[]", "grid has no entries"),
    ("{\"configs\": []}", "grid has no entries"),
], ids=["missing-file", "invalid-json", "object-without-configs",
        "non-object-entry", "empty-list", "empty-configs"])
def test_sweep_rejects_bad_grid_with_exit_3(sim_table, tmp_path,
                                            fast_config_path, capsys,
                                            grid_text, message):
    grid = tmp_path / "grid.json"
    if grid_text is not None:
        grid.write_text(grid_text)
    out = tmp_path / "board.csv"
    rc = main(["sweep", "--features", sim_table, "--config", fast_config_path,
               "--grid", str(grid), "--out", str(out)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "DataError"
    assert message in err["message"]
    assert not out.exists()


def test_sweep_override_merges_into_base_sections(sim_table, tmp_path):
    base = json.loads(json.dumps(FAST_CONFIG))
    base["selection"] = {"method": "boost_rfe", "n_target": 3}
    base["smote"] = {"enabled": False, "k_neighbors": 3}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(base))
    new_grid = [{"n_trees": 5, "max_leaves": 3, "min_samples_leaf": 4}]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"selection": {"n_target": 2},
                                 "smote": {"k_neighbors": 4},
                                 "ensemble": {"grid": new_grid}}]))
    out = tmp_path / "board.csv"
    assert main(["sweep", "--features", sim_table, "--config", str(config),
                 "--grid", str(grid), "--folds", "2", "--seeds", "1",
                 "--out", str(out)]) == 0
    expected = json.loads(json.dumps(base))
    expected["selection"]["n_target"] = 2
    expected["smote"]["k_neighbors"] = 4
    expected["ensemble"]["grid"] = new_grid  # a list is replaced whole
    with open(out, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["selection"] == "boost_rfe"
    assert row["config_id"] == _config_id(
        PipelineConfig.from_dict(expected).to_dict())


@pytest.mark.parametrize("override, key", [
    ({"cv_folds": "3"}, "cv_folds"),  # no longer a key: rejected as unknown
    ({"selection": 5}, "selection"),
    ({"ensemble": {"m": 1, "grid": [{"n_trees": "5"}]}}, "n_trees"),
])
def test_train_rejects_config_value_of_wrong_type(sim_table, tmp_path, capsys,
                                                  override, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**FAST_CONFIG, **override}))
    out = tmp_path / "model.json"
    rc = main(["train", "--features", sim_table, "--config", str(config),
               "--out", str(out)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "DataError"
    assert key in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("feature_fraction", 0.5), ("max_depth", 3), ("l2_leaf", 1.0)])
def test_train_rejects_retired_booster_parameters(sim_table, tmp_path, capsys,
                                                  key, value):
    doc = json.loads(json.dumps(FAST_CONFIG))
    doc["ensemble"]["grid"][0][key] = value
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "model.json"
    rc = main(["train", "--features", sim_table, "--config", str(config),
               "--out", str(out)])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert "unknown booster parameters" in err["message"]
    assert key in err["message"]
    assert not out.exists()


def _write_config(tmp_path, doc, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_bias_reads_decisions_at_the_threshold_predict_used(tmp_path, capsys):
    table = str(tmp_path / "table.csv")
    assert main(["simulate", "--n", "40", "--dims", "6", "--seed", "3",
                 "--out", table]) == 0
    config = _write_config(tmp_path, {**FAST_CONFIG, "threshold": 0.3})
    model, preds = str(tmp_path / "model.json"), tmp_path / "preds.csv"
    assert main(["train", "--features", table, "--config", config, "--out", model]) == 0
    assert main(["predict", "--model", model, "--features", table,
                 "--out", str(preds)]) == 0
    with open(preds, newline="") as fh:
        rows = list(csv.DictReader(fh))
    wrong = sum(r["predicted_label"] != r["label"] for r in rows)
    # some decision differs from the one a threshold of 0.5 would give
    assert any((float(r["score"]) >= 0.5) != (r["predicted_label"] == "1") for r in rows)
    capsys.readouterr()

    out = tmp_path / "bias.json"
    assert main(["bias", "--preds", str(preds), "--features", table, "--group", "sex",
                 "--out", str(out)]) == 0
    groups = json.loads(out.read_text())["groups"].values()
    assert sum(g["rates"]["misclassification"]["events"] for g in groups) == wrong


def test_bias_rejects_predictions_without_decisions(sim_table, tmp_path, capsys):
    # the file a scorer that writes no decisions would leave
    ids = read_feature_table(sim_table).participant_ids
    preds = tmp_path / "preds.csv"
    preds.write_text("participant_id,score\n" + "".join(
        f"{pid},0.{i % 10}\n" for i, pid in enumerate(ids)))
    out = tmp_path / "bias.json"
    assert main(["bias", "--preds", str(preds), "--features", sim_table,
                 "--group", "sex", "--out", str(out)]) == 3
    err = _last_error(capsys)
    assert err["error"] == "MissingColumn" and "'predicted_label'" in err["message"]
    assert not out.exists()


def test_featurize_rejects_an_unknown_expression(manifest_corpus, tmp_path, capsys):
    out = tmp_path / "features.csv"
    assert main(["featurize", "--manifest", str(manifest_corpus), "--out", str(out),
                 "--expressions", "smile,frown"]) == 3
    err = _last_error(capsys)
    assert err["error"] == "DataError" and "['frown']" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("expressions", ["", " "])
def test_featurize_rejects_an_empty_expression_list(manifest_corpus, tmp_path, capsys,
                                                    expressions):
    out = tmp_path / "features.csv"
    assert main(["featurize", "--manifest", str(manifest_corpus), "--out", str(out),
                 "--expressions", expressions]) == 3
    err = _last_error(capsys)
    assert err["error"] == "DataError" and repr([expressions]) in err["message"]
    assert not out.exists()


def test_featurize_takes_a_min_confidence_in_the_unit_interval(manifest_corpus, tmp_path,
                                                               capsys):
    out = tmp_path / "features.csv"
    args = ["featurize", "--manifest", str(manifest_corpus), "--out", str(out)]
    for value in ("nan", "-0.5", "1.5"):
        assert main(args + ["--min-confidence", value]) == 2, value
        assert _last_error(capsys) == {
            "error": "UsageError",
            "message": f"--min-confidence must be a number in [0, 1], got {float(value)}"}
        assert not out.exists()
    # the bounds pass the flag check; every test frame's confidence is below 1
    assert main(args + ["--min-confidence", "0"]) == 0
    assert main(args + ["--min-confidence", "1"]) == 3
    err = _last_error(capsys)
    assert err["error"] == "DataError" and "below confidence 1.0" in err["message"]


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_an_expression_subset_needs_a_table_with_expression_columns(
        sim_table, tmp_path, capsys, command):
    config = _write_config(tmp_path, {**FAST_CONFIG, "expressions": ["smile"]})
    out = tmp_path / "out"
    extra = (["--grid", _write_config(tmp_path, [{}], "grid.json")] + FAST_COUNTS
             if command == "sweep" else [])
    assert main([command, "--features", sim_table, "--config", config,
                 "--out", str(out)] + extra) == 3
    err = _last_error(capsys)
    assert err["error"] == "DataError"
    where = "sweep entry 0: " if command == "sweep" else ""
    assert err["message"].startswith(f"{where}expressions ['smile'] select columns")
    assert not out.exists()
    # with all three expressions such a table passes through
    config = _write_config(tmp_path, FAST_CONFIG)
    assert main([command, "--features", sim_table, "--config", config,
                 "--out", str(out)] + extra) == 0


@pytest.mark.parametrize("command", ["train", "cv", "sweep"])
def test_an_n_target_above_the_feature_count_warns_once_per_training_config(
        sim_table, tmp_path, capsys, command):
    grid = _write_config(tmp_path, [{}, {"selection": {"method": "none"}},
                                    {"selection": {"n_target": 3}}], "grid.json")
    extra = {"train": [], "cv": FAST_COUNTS,
             "sweep": ["--grid", grid] + FAST_COUNTS}[command]
    selection = {"method": "lr_coef", "n_target": 50}
    outputs = []
    for method in ("none", "lr_coef"):
        config = _write_config(tmp_path, {**FAST_CONFIG,
                                          "selection": {**selection, "method": method}})
        out = tmp_path / f"{method}.out"
        assert main([command, "--features", sim_table, "--config", config,
                     "--out", str(out)] + extra) == 0
        outputs.append(capsys.readouterr().err.splitlines())
    quiet, loud = outputs
    assert quiet == []
    line = ("selection.n_target=50 exceeds the table's 4 features; lr_coef "
            "selection keeps at most all 4")
    if command == "sweep":
        # entry 1 turns selection off and entry 2 asks for 3 of the 4
        assert loud == [f"warning: sweep entry 0: {line}"]
    else:
        assert loud == [f"warning: {line}"]


def test_explain_names_the_lead_base_model_and_its_meta_weight_share(
        sim_table, tmp_path, capsys):
    model = _train_two_models(sim_table, tmp_path)
    capsys.readouterr()
    assert main(["explain", "--model", str(model), "--features", sim_table,
                 "--max-rows", "2", "--out", str(tmp_path / "shap.csv")]) == 0
    artifact = json.loads(model.read_text())
    weights = np.abs(artifact["meta"]["weights"])
    lead = artifact["provenance"]["kept"][0]
    assert (f"the lead base model alone, not the ensemble: candidate {lead}, "
            f"{weights[0] / weights.sum():.1%} of the meta-layer's sum |w|"
            in capsys.readouterr().out)


@pytest.mark.parametrize("command, flag", [
    ("featurize", "--out"), ("simulate", "--out"), ("train", "--out"), ("cv", "--out"),
    ("cv", "--roc-out"), ("cv", "--roc-svg"), ("cv", "--audit-log"), ("predict", "--out"),
    ("bias", "--out"), ("explain", "--out"), ("project", "--out"), ("sweep", "--out")])
def test_an_output_path_in_a_missing_directory_exits_3(
        manifest_corpus, sim_table, tmp_path, fast_config_path, capsys, command, flag):
    # unchecked, opening the path raised FileNotFoundError (exit 4)
    model, preds, grid = (tmp_path / name for name in ("model.json", "preds.csv", "grid.json"))
    if command in ("predict", "explain"):
        assert main(["train", "--features", sim_table, "--config", fast_config_path,
                     "--out", str(model)]) == 0
    write_predictions(preds, read_feature_table(sim_table).participant_ids)
    grid.write_text("[{}]")
    counts = ["--folds", "2", "--seeds", "1"]
    argv = {
        "featurize": ["--manifest", str(manifest_corpus)],
        "simulate": ["--n", "5"],
        "train": ["--features", sim_table, "--config", fast_config_path],
        "cv": ["--features", sim_table, "--config", fast_config_path, *counts],
        "predict": ["--model", str(model), "--features", sim_table],
        "bias": ["--preds", str(preds), "--features", sim_table, "--group", "sex"],
        "explain": ["--model", str(model), "--features", sim_table, "--max-rows", "2"],
        "project": ["--features", sim_table],
        "sweep": ["--features", sim_table, "--config", fast_config_path,
                  "--grid", str(grid), *counts],
    }[command]
    if flag != "--out":
        argv += ["--out", str(tmp_path / "out.json")]
    bad = tmp_path / "missing" / "out"
    capsys.readouterr()
    assert main([command, *argv, flag, str(bad)]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "DataError"
    assert err["message"].startswith(f"cannot write {bad}: ")
    assert not bad.parent.exists()
