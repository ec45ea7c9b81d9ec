import csv
import json

import numpy as np
import pytest

from hyposcreen.cli import _config_id, main
from hyposcreen.dataset import META_COLUMNS, read_feature_table
from hyposcreen.artifact import ensemble_predict, load_ensemble, save_ensemble
from hyposcreen.ensemble import train_pipeline
from hyposcreen.config import PipelineConfig, load_config
from hyposcreen.featurize import featurize_recording, load_index_map, used_points
from hyposcreen.ingest import load_recording, parse_manifest
from hyposcreen.model import logistic

FAST_CONFIG = {
    "scaler": "minmax",
    "selection": {"method": "none"},
    "smote": {"enabled": True, "k_neighbors": 3},
    "ensemble": {"m": 1, "inner_folds": 2, "grid": [
        {"n_trees": 10, "learning_rate": 0.2, "max_leaves": 4,
         "min_samples_leaf": 4},
    ]},
    "cv_folds": 3,
    "bootstrap_seeds": 2,
}


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


def test_cv_outputs_are_deterministic_across_worker_counts(
        sim_table, tmp_path, fast_config_path, monkeypatch, capsys):
    def run(tag, threads):
        monkeypatch.setenv("HYPOSCREEN_THREADS", threads)
        args = ["cv", "--features", sim_table, "--config", fast_config_path,
                "--seed", "2",
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
    assert rec["n_synthetic"] == len(rec["synthetic_ids"])


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
    preds.write_text("participant_id,score\n" + "".join(
        f"{pid},0.{i % 10}\n" for i, pid in enumerate(ids)))
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
    preds.write_text("participant_id,score\n"
                     + "".join(f"{pid},0.{i}\n" for i, pid in enumerate(ids)))
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


@pytest.mark.parametrize("bad_row, error, column", [
    ("p03,high", "NonNumericCell", "score"),
    ("p03", "MissingCell", "score"),
    ("p03,nan", "OutOfRange", "score"),
])
def test_bias_rejects_bad_prediction_rows(sim_table, tmp_path, capsys, bad_row,
                                          error, column):
    ids = read_feature_table(sim_table).participant_ids[:6]
    rows = [f"{pid},0.{i}" for i, pid in enumerate(ids)]
    rows[3] = bad_row.replace("p03", ids[3])
    preds = tmp_path / "preds.csv"
    preds.write_text("participant_id,score\n" + "\n".join(rows) + "\n")
    rc = main(["bias", "--preds", str(preds), "--features", sim_table,
               "--group", "sex", "--out", str(tmp_path / "bias.json")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == error
    assert "row 3" in err["message"] and repr(column) in err["message"]
    assert not (tmp_path / "bias.json").exists()


def test_bias_rejects_participant_listed_twice(sim_table, tmp_path, capsys):
    ids = read_feature_table(sim_table).participant_ids[:4]
    rows = [f"{pid},0.{i}" for i, pid in enumerate(ids)] + [f"{ids[2]},0.9"]
    preds = tmp_path / "preds.csv"
    preds.write_text("participant_id,score\n" + "\n".join(rows) + "\n")
    rc = main(["bias", "--preds", str(preds), "--features", sim_table,
               "--group", "sex", "--out", str(tmp_path / "bias.json")])
    assert rc == 3
    err = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err["error"] == "DuplicateEntry"
    assert "predictions" in err["message"] and repr(ids[2]) in err["message"]
    assert not (tmp_path / "bias.json").exists()


def test_bias_rejects_threshold_outside_unit_interval_and_seed(sim_table,
                                                               tmp_path,
                                                               capsys):
    ids = read_feature_table(sim_table).participant_ids[:6]
    preds = tmp_path / "preds.csv"
    preds.write_text("participant_id,score\n" + "\n".join(
        f"{pid},0.{i}" for i, pid in enumerate(ids)) + "\n")
    out = tmp_path / "bias.json"
    args = ["bias", "--preds", str(preds), "--features", sim_table,
            "--group", "sex", "--out", str(out)]
    for flags in (["--threshold", "nan"], ["--threshold", "2"],
                  ["--threshold", "-1"], ["--threshold", "inf"],
                  ["--threshold", "1.0001"], ["--seed", "3"]):
        assert main(args + flags) == 2, flags
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "UsageError" and flags[0] in err["message"]
        assert not out.exists()
    for edge in ("0", "1"):
        assert main(args + ["--threshold", edge]) == 0


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


@pytest.mark.parametrize("grid_text, message", [
    (None, "grid file not found"),
    ("[{\"scaler\": ", "grid is not valid JSON"),
    ("{\"overrides\": [{}]}", "grid must be a list of config overrides"),
    ("[{}, 5]", "grid entry 1 must be an object"),
], ids=["missing-file", "invalid-json", "object-without-configs",
        "non-object-entry"])
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
    ({"cv_folds": "3"}, "cv_folds"),
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
