"""Every function of the package runs under a smoke set of CLI commands,
and every output of the smoke set matches its committed digest.

The smoke set runs every subcommand in one fresh interpreter, with a profile
hook installed before the first ``import hyposcreen``, so the comprehensions
and lambdas that run at import time count too.  Afterwards every
function-like code object (``CO_NEWLOCALS``: a function, method, lambda or
comprehension) compiled from a module of ``src/hyposcreen``, ``errors.py``
aside, must have run, or be on :data:`ALLOWED` with the reason no command
runs it.  An allowed name that did run fails the test too, so the list
cannot go stale.  Code that only tests or benchmarks call belongs under
``tests/`` or ``perfbench/``, not in the package.

The same run checks the bytes of every output: ``tests/golden.json`` holds
the sha256 of each file the commands write and of each command's stdout,
with the Python and numpy versions they were recorded under.  The digests
depend on those builds, and a build change is itself a stated change, so
the test does not skip on another build; it names the differing outputs
and both builds.  A change that alters an output on purpose records the
digests again with ``PYTHONPATH=src python tests/test_reachability.py``
and says which outputs changed and why.
"""

import csv
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import build_manifest_corpus
from hyposcreen.dataset import write_feature_table
from hyposcreen.featurize import feature_names
from hyposcreen.synth import generate_synthetic_dataset

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"

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
}

# Runs in a fresh interpreter: installs the hook, imports the cli, runs each
# command of the json list named second, then writes to the file named
# first the commands that failed, each command's stdout and, for every code
# object of the package's sources, its name and line and whether it ran.
PROBE = """
import contextlib, inspect, io, json, sys
from pathlib import Path

ran = set()


def record(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)


sys.setprofile(record)
from hyposcreen.cli import main

out, commands = sys.argv[1], json.loads(Path(sys.argv[2]).read_text())
failed, stdout = [], []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()) as buffer:
        if main(argv) != 0:
            failed.append(argv)
    stdout.append(buffer.getvalue())
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
Path(out).write_text(json.dumps({"failed": failed, "stdout": stdout, "seen": seen}))
"""

# one 10-tree booster under two leaf caps, so the fit memo serves the second
GRID = [{"n_trees": 10, "learning_rate": 0.2, "max_leaves": leaves,
         "min_samples_leaf": 4} for leaves in (4, 8)]
# the same two leaf caps under two max_bins, so each inner fold bins its
# held-out rows under two mappers and the memo serves a fit under each
BINS_GRID = [{**params, "max_bins": bins} for bins in (8, 255) for params in GRID]
FAST = {
    "selection": {"method": "none", "n_target": 2},
    "smote": {"k_neighbors": 3},
    "ensemble": {"inner_folds": 2, "grid": GRID},
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
        "bins": {**FAST, "ensemble": {**FAST["ensemble"], "grid": BINS_GRID}},
    }
    for name, doc in configs.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    (root / "grid.json").write_text(json.dumps(
        {"configs": [{"scaler": "minmax"}, {"scaler": "standard"}]}))
    # a quoted cell sends the file to the cell-by-cell reader, and its eight
    # rows keep the rank test of each rate exact
    with open(root / "few_preds.csv", "w", newline="") as fh:
        w = csv.writer(fh, quoting=csv.QUOTE_NONNUMERIC)
        w.writerow(["participant_id", "score", "predicted_label"])
        for i in range(8):
            w.writerow([f"s{i:02d}", (i + 1) / 10, int((i + 1) / 10 >= 0.5)])
    # the table of the smoke set's ``fresh.csv`` with every fifth age blank,
    # so that a binned report notes missing and out-of-range rows
    fresh = generate_synthetic_dataset(n_per_class=10, delta=1.0, dims=4, seed=4)
    for i in range(0, fresh.n_rows, 5):
        fresh.demographics["age"][i] = None
    write_feature_table(fresh, root / "fresh_blank_age.csv")


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
    ["cv", "--features", "sim.csv", "--config", "bins.json", "--folds", "3", "--seeds", "1",
     "--out", "bins_cv.json"],
    # three groups with enough rows in each that the comparisons take the z-test
    ["simulate", "--n", "150", "--dims", "4", "--seed", "5", "--out", "wide.csv"],
    ["predict", "--model", "model.json", "--features", "wide.csv",
     "--out", "wide_preds.csv"],
    ["bias", "--preds", "wide_preds.csv", "--features", "wide.csv",
     "--group", "ethnicity", "--out", "bias_ethnicity.json"],
    ["bias", "--preds", "fresh_preds.csv", "--features", "fresh_blank_age.csv",
     "--group", "age", "--bins", "30,50,70", "--out", "bias_blank_age.json"],
]


def _run_smoke(root: Path) -> dict:
    """Write the inputs into ``root``, run the smoke set there under the
    profile hook, and return the probe's record with the names of the files
    the commands wrote."""
    _write_inputs(root)
    (root / "smoke.json").write_text(json.dumps(SMOKE))
    inputs = {p.name for p in root.iterdir()} | {"reach.json"}
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("HYPOSCREEN_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", PROBE, "reach.json", "smoke.json"],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((root / "reach.json").read_text())
    assert doc["failed"] == [], proc.stderr
    doc["outputs"] = sorted(p.name for p in root.iterdir() if p.name not in inputs)
    return doc


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(root: Path, doc: dict) -> dict:
    """The digest of every output file and of every command's stdout, keyed
    by the file name and by ``stdout <i> <command>``."""
    digests = {name: _sha256((root / name).read_bytes()) for name in doc["outputs"]}
    for i, (argv, text) in enumerate(zip(SMOKE, doc["stdout"])):
        digests[f"stdout {i:02d} {argv[0]}"] = _sha256(text.encode())
    return digests


def _build() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _mismatches(recorded: dict, digests: dict) -> list:
    """The outputs whose digest differs from the recorded one, or that only
    one side has."""
    return sorted(name for name in recorded.keys() | digests.keys()
                  if recorded.get(name) != digests.get(name))


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("smoke")
    return root, _run_smoke(root)


def test_every_function_runs_under_the_smoke_set_or_is_allowed(smoke_run):
    _, doc = smoke_run

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


def test_every_smoke_output_matches_its_committed_digest(smoke_run):
    root, doc = smoke_run
    golden = json.loads(GOLDEN.read_text())
    recorded = {k: golden[k] for k in ("python", "numpy")}
    differ = _mismatches(golden["digests"], _digests(root, doc))
    assert not differ, (
        f"outputs differ from tests/golden.json, recorded under {recorded}, "
        f"run under {_build()}:\n" + "\n".join(differ))


def test_digests_name_a_flipped_bit_and_a_swapped_row(smoke_run):
    root, doc = smoke_run
    digests = _digests(root, doc)
    header, first, second, *rest = (root / "preds.csv").read_text().splitlines(True)
    pid, score, *cells = first.split(",")
    flipped = np.array([float(score)]).view(np.int64) ^ 1
    first_flipped = ",".join([pid, repr(float(flipped.view(float)[0])), *cells])
    for text in ("".join([header, first_flipped, second, *rest]),
                 "".join([header, second, first, *rest])):
        mutated = dict(digests, **{"preds.csv": _sha256(text.encode())})
        assert _mismatches(digests, mutated) == ["preds.csv"]


if __name__ == "__main__":
    # records the digests of this tree's smoke outputs in tests/golden.json
    # and names the ones that differ from the digests it replaces
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        digests = _digests(root, _run_smoke(root))
    changed = _mismatches(json.loads(GOLDEN.read_text())["digests"], digests)
    GOLDEN.write_text(json.dumps({**_build(), "digests": digests}, indent=1,
                                 sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {GOLDEN}; "
          f"{len(changed)} changed{':' if changed else ''}")
    for name in changed:
        print(f"  {name}")
