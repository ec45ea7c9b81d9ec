"""Each command imports only the modules it runs.

``hyposcreen`` and ``hyposcreen.cli`` import most modules on first use of a
name (PEP 562).  These tests run commands in fresh interpreters, as
``python -m hyposcreen.cli`` does, and read ``sys.modules`` afterwards.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import write_predictions

import hyposcreen
import hyposcreen.cli as cli
from hyposcreen.dataset import read_feature_table

ROOT = Path(__file__).resolve().parents[1]

# runs the cli as ``__main__`` the way ``python -m`` does, then writes the
# exit code and the names in ``sys.modules`` to the file named first
PROBE = """
import json, runpy, sys
out, sys.argv = sys.argv[1], ["hyposcreen"] + sys.argv[2:]
try:
    runpy.run_module("hyposcreen.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
with open(out, "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""

MODEL_LAYERS = ("hyposcreen.artifact", "hyposcreen.ensemble", "hyposcreen.model")
TRAINING = ("hyposcreen.ensemble", "hyposcreen.select", "hyposcreen.evaluate",
            "hyposcreen.config")


def _modules_after(tmp_path, args) -> set:
    out = tmp_path / f"{args[0]}_modules.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE, str(out)] + args,
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["code"] == 0, proc.stderr
    return set(doc["modules"])


def _loaded(modules: set, prefixes) -> list:
    return sorted(m for m in modules
                  if any(m == p or m.startswith(p + ".") for p in prefixes))


def test_featurize_imports_no_model_statistics_or_pool_module(tmp_path,
                                                              manifest_corpus):
    modules = _modules_after(tmp_path, [
        "featurize", "--manifest", str(manifest_corpus),
        "--out", str(tmp_path / "features.csv")])
    assert {"hyposcreen.dataset", "hyposcreen.featurize",
            "hyposcreen.ingest"} <= modules
    assert _loaded(modules, MODEL_LAYERS + (
        "hyposcreen.stats", "hyposcreen.explain", "hyposcreen.select",
        "hyposcreen.evaluate", "hyposcreen.config", "hyposcreen.parallel",
        "concurrent.futures")) == []


def test_score_side_commands_import_only_what_they_run(tmp_path):
    table = str(tmp_path / "table.csv")
    assert cli.main(["simulate", "--n", "12", "--dims", "3", "--seed", "1",
                     "--out", table]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "selection": {"method": "none"}, "smote": {"k_neighbors": 3},
        "ensemble": {"inner_folds": 2,
                     "grid": [{"n_trees": 3, "min_samples_leaf": 4}]}}))
    model, preds = str(tmp_path / "model.json"), str(tmp_path / "preds.csv")
    # the model commands load the model layers, through ``__main__``
    assert "hyposcreen.ensemble" in _modules_after(tmp_path, [
        "train", "--features", table, "--config", str(config), "--out", model])
    # scoring a saved artifact loads no training code and no pipeline config
    for args in (["predict", "--model", model, "--features", table, "--out", preds],
                 ["explain", "--model", model, "--features", table,
                  "--out", str(tmp_path / "shap.csv"), "--max-rows", "3"]):
        modules = _modules_after(tmp_path, args)
        assert "hyposcreen.artifact" in modules
        assert _loaded(modules, TRAINING) == [], args[0]
        # hashlib, and the OpenSSL it loads, serves only training and sweep
        assert "hashlib" not in modules, args[0]
    bias = _modules_after(tmp_path, [
        "bias", "--preds", preds, "--features", table, "--group", "age",
        "--bins", "0,50,200", "--out", str(tmp_path / "bias.json")])
    assert "hyposcreen.stats" in bias
    assert _loaded(bias, MODEL_LAYERS) == []
    project = _modules_after(tmp_path, [
        "project", "--features", table, "--out", str(tmp_path / "coords.csv")])
    assert "hyposcreen.explain" in project
    assert _loaded(project, ("hyposcreen.ensemble", "hyposcreen.select")) == []
    assert "hashlib" not in project


def test_training_commands_do_not_import_numpy_ma(tmp_path):
    # numpy imports numpy.ma on the first bare np.unique or np.percentile,
    # ~12 ms of every cv process; nothing a training command runs needs it
    table = str(tmp_path / "table.csv")
    assert cli.main(["simulate", "--n", "12", "--dims", "3", "--seed", "1",
                     "--out", table]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "selection": {"method": "none"}, "smote": {"k_neighbors": 3},
        "ensemble": {"inner_folds": 2,
                     "grid": [{"n_trees": 3, "min_samples_leaf": 4}]}}))
    for args in (["cv", "--folds", "2", "--seeds", "2"], ["train"]):
        modules = _modules_after(tmp_path, args + [
            "--features", table, "--config", str(config),
            "--out", str(tmp_path / f"{args[0]}.json")])
        assert "hyposcreen.ensemble" in modules
        assert "numpy.ma" not in modules, args[0]


def test_bias_calls_the_name_set_on_the_cli_module(tmp_path, monkeypatch):
    table = str(tmp_path / "table.csv")
    assert cli.main(["simulate", "--n", "12", "--dims", "3", "--seed", "1",
                     "--out", table]) == 0
    preds = tmp_path / "preds.csv"
    write_predictions(preds, read_feature_table(table).participant_ids)
    real = cli.build_bias_report
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "build_bias_report", spy)
    assert cli.main(["bias", "--preds", str(preds), "--features", table,
                     "--group", "sex", "--out", str(tmp_path / "bias.json")]) == 0
    assert calls == ["sex"]


def test_no_import_below_module_level():
    # a function-local import hides a module dependency, and a name it binds
    # escapes a wrapper that a tracer or a test sets on the module attribute
    local = []
    for path in sorted((ROOT / "src" / "hyposcreen").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        top = {id(node) for node in tree.body}
        local += [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and id(node) not in top]
    assert local == []


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether ``call`` is ``open(path, mode)`` or ``path.open(mode)`` with a
    mode that writes, or one that cannot be read from the source."""
    func = call.func
    named = isinstance(func, ast.Name) and func.id == "open"
    if not (named or isinstance(func, ast.Attribute) and func.attr == "open"):
        return False
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    modes += call.args[1:2] if named else call.args[:1]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
               or set(m.value) & set("wax+") for m in modes)


def test_only_util_opens_a_file_for_writing():
    # every output goes through ``util.open_output``, which turns a path that
    # cannot be written into a DataError (exit 3) naming it
    writers = []
    for path in sorted((ROOT / "src" / "hyposcreen").rglob("*.py")):
        if path.name == "util.py" and path.parent.name == "hyposcreen":
            continue
        tree = ast.parse(path.read_text(), str(path))
        writers += [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Call) and _opens_for_writing(node)]
    assert writers == []


def test_lazy_cli_names_are_the_source_definitions():
    # ``cli`` unwraps ``__wrapped__`` chains so that a tracer's wrapper on the
    # source module is not wrapped twice; no name may carry a decorator that
    # the unwrapping would strip
    for name, module in cli._LAZY.items():
        source = importlib.import_module(module, "hyposcreen")
        assert getattr(cli, name) is (source if module == name
                                      else getattr(source, name)), name


def test_every_public_name_resolves_and_is_listed():
    for name in hyposcreen.__all__:
        assert getattr(hyposcreen, name) is not None, name
    assert set(hyposcreen.__all__) <= set(dir(hyposcreen))
    assert hyposcreen.tree_shap is importlib.import_module("hyposcreen.explain").tree_shap
    for module in (hyposcreen, cli):
        with pytest.raises(AttributeError):
            module.no_such_name  # noqa: B018


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads through Linux /proc")
def test_test_process_runs_one_blas_thread():
    # conftest imports the package before numpy, so this process gets the pin
    assert len(os.listdir("/proc/self/task")) == 1


def test_package_import_pins_blas_and_imports_no_submodule():
    code = ("import os, sys; import hyposcreen; print(sorted(m for m in sys.modules "
            "if m.startswith('hyposcreen'))); print([os.environ[v] for v in "
            "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')])")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="4")
    env.pop("OMP_NUM_THREADS", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['hyposcreen']", "['1', '1', '1']"]
