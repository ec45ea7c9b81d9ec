"""Every function of the package runs under a smoke set of CLI commands.

The smoke set runs every subcommand in one fresh interpreter, with a profile
hook installed before the first ``import hyposcreen``, so the comprehensions
and lambdas that run at import time count too.  Afterwards every
function-like code object (``CO_NEWLOCALS``: a function, method, lambda or
comprehension) compiled from a module of ``src/hyposcreen``, ``errors.py``
aside, must have run, or be on :data:`ALLOWED` with the reason no command
runs it.  An allowed name that did run fails the test too, so the list
cannot go stale.  Code that only tests or benchmarks call belongs under
``tests/`` or ``perfbench/``, not in the package.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import build_manifest_corpus
from hyposcreen.dataset import write_feature_table
from hyposcreen.featurize import feature_names
from hyposcreen.synth import generate_synthetic_dataset

ROOT = Path(__file__).resolve().parents[1]

# name -> why no command of the smoke set runs it.  A name is the module's
# dotted name and the code object's qualified name; a lambda's or a
# comprehension's adds the text of the line it starts on.  An entry also
# covers the code nested in it.
ALLOWED = {
    "hyposcreen.__dir__": "serves dir(hyposcreen); no command lists the package",
    "hyposcreen.cli._emit_error": "runs only when a command fails",
    "hyposcreen.cli._Parser.error": "runs only on a malformed command line",
    "hyposcreen.cli._warn_unconverged.<locals>.<genexpr>: "
    "total = sum(r.fold_plan.k for r in results)":
        "runs only when a meta-layer fit does not converge",
    "hyposcreen.ingest.read_columns.<locals>.ragged":
        "runs only on a row narrower or wider than its header",
    "hyposcreen.ingest._landmark_spec.<locals>.<lambda>: "
    "ragged=lambda r, present: RaggedFrame(r, sum(present[1:]) // 3))":
        "builds the error for a landmark row narrower or wider than its header",
    "hyposcreen.model.histboost._node_table.<locals>.fail":
        "runs only on a malformed tree in a loaded artifact",
    "hyposcreen.util.require_finite.<locals>.<genexpr>: "
    "r, c = (int(v) for v in np.argwhere(~finite)[0])":
        "runs only on a non-finite cell",
    "hyposcreen.model.histboost.build_histograms":
        "the histogram reference of the split-search oracle tests; "
        "perfbench/trace_cli.py wraps it by name",
    "hyposcreen.ensemble.verify_no_leakage":
        "the README's check of a cross-validation audit, called from Python",
}

# Runs in a fresh interpreter: installs the hook, imports the cli, runs each
# command of the json list named second, then writes to the file named
# first the commands that failed and, for every code object of the
# package's sources, its name and line and whether it ran.
PROBE = """
import inspect, json, sys
from pathlib import Path

ran = set()


def record(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)


sys.setprofile(record)
from hyposcreen.cli import main

out, commands = sys.argv[1], json.loads(Path(sys.argv[2]).read_text())
failed = [argv for argv in commands if main(argv) != 0]
sys.setprofile(None)


def nested(code):
    for const in code.co_consts:
        if inspect.iscode(const):
            yield const
            yield from nested(const)


import hyposcreen

package = Path(hyposcreen.__file__).parent
ran = {(code.co_filename, code) for code in ran}  # code equality ignores the file
seen = []
for path in sorted(package.rglob("*.py")):
    if path.name == "errors.py":
        continue
    parts = path.relative_to(package).with_suffix("").parts
    module = ".".join(("hyposcreen",) + parts[:-1] + parts[-1:] * (parts[-1] != "__init__"))
    source = path.read_text()
    lines = source.splitlines()
    for code in nested(compile(source, str(path), "exec")):
        if code.co_flags & inspect.CO_NEWLOCALS:
            name = f"{module}.{code.co_qualname}"
            if code.co_name.startswith("<"):
                name += ": " + lines[code.co_firstlineno - 1].strip()
            seen.append([name, code.co_firstlineno, (str(path), code) in ran])
Path(out).write_text(json.dumps({"failed": failed, "seen": seen}))
"""

# one 10-tree booster under two leaf caps, so the fit memo serves the second
GRID = [{"n_trees": 10, "learning_rate": 0.2, "max_leaves": leaves,
         "min_samples_leaf": 4} for leaves in (4, 8)]
FAST = {
    "selection": {"method": "none", "n_target": 2},
    "smote": {"k_neighbors": 3},
    "ensemble": {"m": 2, "inner_folds": 2, "grid": GRID},
}


def _write_inputs(root: Path) -> None:
    """The manifest, tables, configs and files the smoke set reads."""
    build_manifest_corpus(root, [(f"p{i}", i % 2, {"sex": "female"}) for i in range(4)],
                          n_frames=5, seed=1)
    # canonical feature names, so that the expression filter picks columns,
    # and 12 controls against 8 cases, so that SMOTE makes rows
    ds = generate_synthetic_dataset(n_per_class=12, delta=1.0, dims=126, seed=2)
    ds.feature_names = feature_names()
    kept = np.setdiff1d(np.arange(ds.n_rows), np.flatnonzero(ds.y == 1)[:4])
    write_feature_table(ds.subset(kept), root / "canonical.csv")
    configs = {
        "none": FAST,
        "lr_coef": {**FAST, "selection": {"method": "lr_coef", "n_target": 2},
                    "scaler": "standard", "expressions": ["smile", "disgust"]},
        "boost_rfe": {**FAST, "selection": {"method": "boost_rfe", "n_target": 2},
                      "scaler": "none"},
        "boost_rfa": {**FAST, "selection": {"method": "boost_rfa", "n_target": 2}},
    }
    for name, doc in configs.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    (root / "grid.json").write_text(json.dumps(
        {"configs": [{"scaler": "minmax"}, {"scaler": "standard"}]}))
    # a quoted cell sends the file to the cell-by-cell reader, and its eight
    # rows keep the rank test of each rate exact
    with open(root / "few_preds.csv", "w", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_NONNUMERIC)
        w.writerow(["participant_id", "score"])
        for i in range(8):
            w.writerow([f"s{i:02d}", (i + 1) / 10])


SMOKE = [
    ["simulate", "--n", "10", "--dims", "4", "--seed", "3", "--out", "sim.csv"],
    ["simulate", "--n", "10", "--dims", "4", "--seed", "4", "--out", "fresh.csv"],
    ["featurize", "--manifest", "manifest.json", "--min-confidence", "0.6",
     "--out", "featurized.csv"],
    ["train", "--features", "sim.csv", "--config", "none.json", "--out", "model.json"],
    ["train", "--features", "canonical.csv", "--config", "lr_coef.json",
     "--out", "lr_coef_model.json"],
    ["train", "--features", "sim.csv", "--config", "boost_rfe.json",
     "--out", "rfe_model.json"],
    ["train", "--features", "sim.csv", "--config", "boost_rfa.json",
     "--out", "rfa_model.json"],
    ["cv", "--features", "sim.csv", "--config", "none.json", "--folds", "3", "--seeds", "2",
     "--out", "cv.json", "--roc-out", "roc.csv", "--roc-svg", "roc.svg",
     "--audit-log", "audit.jsonl"],
    ["predict", "--model", "model.json", "--features", "sim.csv", "--out", "preds.csv"],
    ["bias", "--preds", "preds.csv", "--features", "sim.csv", "--group", "sex",
     "--out", "bias_sex.json"],
    # rows the model was not trained on, so that its errors vary with age
    ["predict", "--model", "model.json", "--features", "fresh.csv",
     "--out", "fresh_preds.csv"],
    ["bias", "--preds", "fresh_preds.csv", "--features", "fresh.csv", "--group", "age",
     "--bins", "0,60,200", "--out", "bias_age.json"],
    ["bias", "--preds", "few_preds.csv", "--features", "sim.csv", "--group", "age",
     "--bins", "0,60,200", "--out", "bias_few.json"],
    ["explain", "--model", "model.json", "--features", "sim.csv", "--max-rows", "3",
     "--out", "shap.csv"],
    ["project", "--features", "canonical.csv", "--out", "projection.csv"],
    ["sweep", "--features", "sim.csv", "--config", "none.json", "--grid", "grid.json",
     "--folds", "3", "--seeds", "1", "--out", "grid_board.csv"],
    ["sweep", "--features", "canonical.csv", "--config", "none.json",
     "--preset", "expressions", "--folds", "3", "--seeds", "1",
     "--out", "expression_board.csv"],
]


def test_every_function_runs_under_the_smoke_set_or_is_allowed(tmp_path):
    _write_inputs(tmp_path)
    (tmp_path / "smoke.json").write_text(json.dumps(SMOKE))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("HYPOSCREEN_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", PROBE, "reach.json", "smoke.json"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "reach.json").read_text())
    assert doc["failed"] == [], proc.stderr

    def allowed(name):
        return any(name == a or name.startswith(a + ".<locals>.") for a in ALLOWED)

    unreached = [f"{name} (line {line})" for name, line, hit in doc["seen"]
                 if not hit and not allowed(name)]
    assert not unreached, (
        "no command of the smoke set runs these; move them out of the package, "
        "or allow them with a reason:\n" + "\n".join(unreached))
    stale = sorted({name for name, _, hit in doc["seen"] if hit and name in ALLOWED})
    assert not stale, "allowed, but the smoke set runs them:\n" + "\n".join(stale)
    missing = sorted(set(ALLOWED) - {name for name, _, _ in doc["seen"]})
    assert not missing, "allowed, but not in the package:\n" + "\n".join(missing)
