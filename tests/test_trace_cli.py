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


def test_trace_cli_records_every_layer_of_cv_and_featurize(tmp_path,
                                                           manifest_corpus):
    table = tmp_path / "table.csv"
    assert main(["simulate", "--n", "12", "--dims", "3", "--seed", "1",
                 "--out", str(table)]) == 0
    config = tmp_path / "config.json"
    # the two candidates differ only in a leaf cap that trees of at most a
    # few rows never reach, so the second can reuse the first's model; every
    # fit must still be a call of its own
    grid = [{"n_trees": 3, "max_leaves": cap, "min_samples_leaf": 4}
            for cap in (4, 8)]
    m, inner_folds, trainings = 2, 2, 2
    config.write_text(json.dumps({
        "selection": {"method": "none"},
        "smote": {"k_neighbors": 3},
        "ensemble": {"m": m, "inner_folds": inner_folds, "grid": grid}}))
    cv = _traced(tmp_path, "cv", [
        "cv", "--features", str(table), "--config", str(config), "--folds", "2",
        "--seeds", "1", "--out", str(tmp_path / "cv.json")])
    featurize = _traced(tmp_path, "featurize", [
        "featurize", "--manifest", str(manifest_corpus),
        "--out", str(tmp_path / "features.csv")])
    assert {"parallel.map", "evaluate.cv", "histboost.fit",
            "preprocess.scaler"} <= cv.keys()
    fits = trainings * (len(grid) * inner_folds + m)
    assert (cv["histboost.fit"], cv["binning.fit"]) == (fits, fits)
    assert {"dataset.build", "ingest.au_parse",
            "ingest.landmark_parse"} <= featurize.keys()
    ids = [line.split(",")[0] for line in table.read_text().splitlines()[1:]]
    preds = tmp_path / "preds.csv"
    preds.write_text("participant_id,score\n"
                     + "".join(f"{pid},0.{i % 10}\n" for i, pid in enumerate(ids)))
    bias = _traced(tmp_path, "bias", [
        "bias", "--preds", str(preds), "--features", str(table), "--group", "sex",
        "--out", str(tmp_path / "bias.json")])
    assert {"dataset.read", "stats.bias"} <= bias.keys()
