"""The benchmark's tracer must find and wrap every traced name.

``perfbench/trace_cli.py`` replaces module attributes (``cli.parallel_map``,
``dataset.build_feature_table`` ...) with timed wrappers.  A deleted name
makes it fail, and a name that its caller binds at import time yields no
span; either way this test fails before the benchmark does.  The benchmark
also pins how many booster and binning fits a training makes, so the counts
are checked here too.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from conftest import write_predictions
from hyposcreen.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _traced(tmp_path, tag, args) -> Counter:
    spans = tmp_path / f"{tag}_spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), HYPOSCREEN_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_cli.py"), str(spans),
         "--"] + args, cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=300)
    assert proc.returncode == 0, proc.stderr
    return Counter(span[1] for span in json.loads(spans.read_text())["spans"])


# the two candidates differ only in a leaf cap that trees of at most a few
# rows never reach, so the second can reuse the first's model; every fit must
# still be a call of its own
GRID = [{"n_trees": 3, "max_leaves": cap, "min_samples_leaf": 4} for cap in (4, 8)]
INNER_FOLDS = 2


def _table_and_config(tmp_path):
    table = tmp_path / "table.csv"
    assert main(["simulate", "--n", "12", "--dims", "3", "--seed", "1",
                 "--out", str(table)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "selection": {"method": "none"},
        "smote": {"k_neighbors": 3},
        "ensemble": {"inner_folds": INNER_FOLDS, "grid": GRID}}))
    return str(table), str(config)


def test_trace_cli_records_every_layer_of_cv_and_featurize(tmp_path,
                                                           manifest_corpus):
    table, config = _table_and_config(tmp_path)
    trainings = 2
    cv = _traced(tmp_path, "cv", [
        "cv", "--features", table, "--config", config, "--folds", "2",
        "--seeds", "1", "--out", str(tmp_path / "cv.json")])
    featurize = _traced(tmp_path, "featurize", [
        "featurize", "--manifest", str(manifest_corpus),
        "--out", str(tmp_path / "features.csv")])
    assert {"parallel.map", "evaluate.cv", "histboost.fit",
            "preprocess.scaler"} <= cv.keys()
    fits = trainings * (len(GRID) * INNER_FOLDS + len(GRID))
    assert (cv["histboost.fit"], cv["binning.fit"]) == (fits, fits)
    # the driver calls the training and scoring names through its module, so
    # the wrappers set there see every fold
    assert cv["ensemble.train"] == cv["ensemble.predict"] == trainings
    assert cv["evaluate.cv"] == 1
    assert {"dataset.build", "ingest.au_parse",
            "ingest.landmark_parse"} <= featurize.keys()
    ids = [line.split(",")[0] for line in Path(table).read_text().splitlines()[1:]]
    preds = tmp_path / "preds.csv"
    write_predictions(preds, ids)
    bias = _traced(tmp_path, "bias", [
        "bias", "--preds", str(preds), "--features", table, "--group", "sex",
        "--out", str(tmp_path / "bias.json")])
    assert {"dataset.read", "stats.bias"} <= bias.keys()


def test_trace_cli_records_every_layer_of_the_score_side_commands(tmp_path):
    # these spans wrap names that ``cli`` imports on first use, so they show
    # that the handlers call through the module attributes
    table, config = _table_and_config(tmp_path)
    model = str(tmp_path / "model.json")
    train = _traced(tmp_path, "train", [
        "train", "--features", table, "--config", config, "--out", model,
        "--seed", "1"])
    assert {"ensemble.train", "ensemble.artifact_io", "dataset.read"} <= train.keys()
    assert train["histboost.fit"] == len(GRID) * INNER_FOLDS + len(GRID)
    # ``ensemble`` and ``cli`` both carry a wrapper: one call, one span
    assert train["ensemble.train"] == 1
    predict = _traced(tmp_path, "predict", [
        "predict", "--model", model, "--features", table,
        "--out", str(tmp_path / "preds.csv")])
    assert {"ensemble.artifact_io", "dataset.read"} <= predict.keys()
    assert predict["ensemble.predict"] == 1
    explain = _traced(tmp_path, "explain", [
        "explain", "--model", model, "--features", table,
        "--out", str(tmp_path / "shap.csv"), "--max-rows", "5"])
    assert {"ensemble.artifact_io", "dataset.read",
            "preprocess.scaler"} <= explain.keys()
    assert explain["explain.shap"] == 5
    project = _traced(tmp_path, "project", [
        "project", "--features", table, "--out", str(tmp_path / "coords.csv")])
    assert {"dataset.read", "explain.pca", "explain.silhouette"} <= project.keys()
