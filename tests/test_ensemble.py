import dataclasses
import gc
import inspect
import json
import weakref

import numpy as np
import pytest

from hyposcreen import ensemble, select
from hyposcreen.artifact import (TrainedEnsemble, ensemble_predict, load_ensemble,
                                 save_ensemble)
from hyposcreen.config import EnsembleConfig, PipelineConfig, SelectionConfig, SmoteConfig
from hyposcreen.dataset import LabeledDataset
from hyposcreen.ensemble import (fit_stacking_ensemble, run_cross_validation,
                                 select_top_models, train_pipeline)
from hyposcreen.errors import ArtifactError, MissingFeature, MTooLarge
from hyposcreen.model import histboost
from hyposcreen.model.histboost import BoostParams
from hyposcreen.preprocess import fit_scaler
from hyposcreen.util import sigmoid


def test_select_top_models_ordering_and_ties():
    assert select_top_models([0.9, 0.8, 0.95], 2) == [2, 0]
    assert select_top_models([0.5, 0.5, 0.5], 2) == [0, 1]
    assert select_top_models([0.1, 0.9], 2) == [1, 0]
    assert select_top_models([0.7], 1) == [0]


def _planted(seed=120, n_pos=18, n_neg=30, d=5):
    rng = np.random.default_rng(seed)
    n = n_pos + n_neg
    y = np.array([1] * n_pos + [0] * n_neg)
    X = rng.normal(size=(n, d))
    X[:, 0] += 1.5 * y
    X[:, 1] -= 1.0 * y
    return X, y


CANDIDATES = [
    BoostParams(n_trees=8, learning_rate=0.3, max_leaves=4, min_samples_leaf=4),
    BoostParams(n_trees=12, learning_rate=0.2, max_leaves=4, min_samples_leaf=4),
    BoostParams(n_trees=6, learning_rate=0.1, max_leaves=3, min_samples_leaf=4),
]


def _stacking(candidates, m, smote):
    """A config that stacks the top ``m`` of ``candidates`` on 3 inner folds."""
    return PipelineConfig(smote=smote, ensemble=EnsembleConfig(
        m=m, inner_folds=3, grid=[c.to_dict() for c in candidates]))


def test_fit_stacking_ensemble_output_shapes_and_provenance():
    X, y = _planted()
    base_models, meta, prov = fit_stacking_ensemble(
        X, y, _stacking(CANDIDATES, 2, SmoteConfig(k_neighbors=3)), seed=4)
    assert len(base_models) == 2
    assert meta.weights.shape == (2,)

    assert len(prov["candidate_aurocs"]) == 3
    assert prov["kept"] == select_top_models(prov["candidate_aurocs"], 2)
    kept_scores = [prov["candidate_aurocs"][i] for i in prov["kept"]]
    assert kept_scores == sorted(kept_scores, reverse=True)
    assert len(prov["inner_fold_assignments"]) == y.shape[0]
    assert len(prov["inner_synthetic_counts"]) == 3
    # 18 vs 30 rows leaves a gap in every inner training split
    assert all(c > 0 for c in prov["inner_synthetic_counts"])
    assert prov["final_synthetic_count"] == 12
    assert [m.params for m in base_models] == [CANDIDATES[ci] for ci in prov["kept"]]
    with pytest.raises(MTooLarge):
        fit_stacking_ensemble(X, y, _stacking(CANDIDATES, 4, SmoteConfig()), seed=0)


def test_held_out_predictions_shared_by_served_fits_equal_their_own(monkeypatch):
    # a grid that differs only in max_leaves, so the memo serves fits: each
    # grown model predicts a fold's held-out rows once, for every candidate
    # it serves; the reference gives every fit its own Tree objects, so every
    # (candidate, fold) is predicted from its own model
    X, y = _planted(seed=122, n_pos=24, n_neg=36, d=4)
    grid = [BoostParams(n_trees=6, learning_rate=0.3, max_leaves=cap, min_samples_leaf=3)
            for cap in (2, 3, 5, 8, 16, 31, 63)]
    predicted, grown_rows = [], []
    real_walk, real_boost, real_fit = (histboost.predict_raw, histboost._boost,
                                       ensemble.fit_histgbm)
    monkeypatch.setattr(histboost, "predict_raw",
                        lambda *a: predicted.append(1) or real_walk(*a))
    monkeypatch.setattr(histboost, "_boost",
                        lambda presorted, *a: grown_rows.append(presorted[0].shape[1])
                        or real_boost(presorted, *a))

    def run():
        predicted.clear()
        return fit_stacking_ensemble(X, y, _stacking(grid, 4, SmoteConfig(enabled=False)),
                                     seed=5)

    base_models, meta, prov = run()
    inner_grown = sum(rows < y.size for rows in grown_rows)  # refits see every row
    assert len(predicted) == inner_grown and 3 < inner_grown < len(grid) * 3

    def own_trees(*args, **kwargs):
        model = real_fit(*args, **kwargs)
        return dataclasses.replace(
            model, trees=[dataclasses.replace(t) for t in model.trees])

    monkeypatch.setattr(ensemble, "fit_histgbm", own_trees)
    want_models, want_meta, want_prov = run()
    assert len(predicted) == len(grid) * 3
    assert ([json.dumps(m.to_dict()) for m in base_models]
            == [json.dumps(m.to_dict()) for m in want_models])
    assert meta.weights.tobytes() == want_meta.weights.tobytes()
    assert meta.intercept == want_meta.intercept
    assert prov == want_prov


def test_grown_fits_on_one_matrix_share_one_binning_and_presort(monkeypatch):
    # candidates that differ in learning rate and leaf minimum are each grown,
    # but those on one (matrix, max_bins) bin and presort it once between
    # them; the reference shares nothing, not even the memo
    X, y = _planted(seed=130, n_pos=24, n_neg=36, d=4)
    grid = [BoostParams(n_trees=5, learning_rate=lr, max_leaves=4, min_samples_leaf=msl,
                        max_bins=bins)
            for lr in (0.1, 0.3) for msl in (3, 5) for bins in (255, 8)]
    config = _stacking(grid, 3, SmoteConfig(k_neighbors=3))
    real_fit, real_boost, real_presort, real_bin = (
        ensemble.fit_histgbm, histboost._boost, histboost._presort, histboost.bin_matrix)
    fitting, grown, presorted, binned = [], [], [], []

    def fit(X, y, params, memo=None):
        fitting.append((np.ascontiguousarray(X).tobytes(), params.max_bins))
        try:
            return real_fit(X, y, params, memo=memo)
        finally:
            fitting.pop()

    monkeypatch.setattr(ensemble, "fit_histgbm", fit)
    monkeypatch.setattr(histboost, "_boost",
                        lambda *a: grown.append(fitting[-1]) or real_boost(*a))
    monkeypatch.setattr(histboost, "_presort",
                        lambda codes: presorted.append(fitting[-1]) or real_presort(codes))
    monkeypatch.setattr(histboost, "bin_matrix",  # predictions bin outside any fit
                        lambda *a: binned.append(bool(fitting)) or real_bin(*a))
    base_models, meta, prov = fit_stacking_ensemble(X, y, config, seed=6)
    assert presorted == list(dict.fromkeys(grown))
    assert len(presorted) == 4 * 2  # 3 inner folds and the refit set, 2 max_bins
    assert sum(binned) == len(presorted) < len(grown)
    # each inner fold's held-out rows are binned once per max_bins
    assert binned.count(False) == 3 * 2

    monkeypatch.setattr(ensemble, "fit_histgbm",
                        lambda X, y, params, memo=None: fit(X, y, params))
    for calls in (grown, presorted, binned):
        calls.clear()
    want_models, want_meta, want_prov = fit_stacking_ensemble(X, y, config, seed=6)
    assert len(grown) == len(presorted) == sum(binned) == len(grid) * 3 + 3
    assert ([json.dumps(m.to_dict()) for m in base_models]
            == [json.dumps(m.to_dict()) for m in want_models])
    assert meta.weights.tobytes() == want_meta.weights.tobytes()
    assert meta.intercept == want_meta.intercept
    assert prov == want_prov


def _config():
    return PipelineConfig(
        scaler="minmax",
        selection=SelectionConfig(method="lr_coef", n_target=3),
        smote=SmoteConfig(enabled=True, k_neighbors=3),
        ensemble=EnsembleConfig(m=2, inner_folds=3, grid=[
            {"n_trees": 8, "learning_rate": 0.3, "max_leaves": 4,
             "min_samples_leaf": 4},
            {"n_trees": 12, "learning_rate": 0.2, "max_leaves": 4,
             "min_samples_leaf": 4},
            {"n_trees": 6, "learning_rate": 0.1, "max_leaves": 3,
             "min_samples_leaf": 4},
        ]),
        threshold=0.6,
    )


def _dataset(seed=121):
    X, y = _planted(seed=seed)
    names = [f"f{j}" for j in range(X.shape[1])]
    ids = [f"p{i:02d}" for i in range(X.shape[0])]
    return LabeledDataset(feature_names=names, X=X, y=y, participant_ids=ids)


def test_train_pipeline_restricts_artifact_to_selected_features():
    ds = _dataset()
    ensemble = train_pipeline(ds, _config(), seed=2)
    assert len(ensemble.feature_names) == 3
    assert set(ensemble.feature_names) <= set(ds.feature_names)
    full = fit_scaler("minmax", ds.X, ds.feature_names)
    columns = [ds.feature_names.index(nm) for nm in ensemble.feature_names]
    assert ensemble.scaler.lo.tolist() == full.lo[columns].tolist()
    assert ensemble.scaler.hi.tolist() == full.hi[columns].tolist()
    assert len(ensemble.base_models) == 2 and ensemble.threshold == 0.6
    prov = ensemble.provenance
    assert prov["selection"]["method"] == "lr_coef"
    # each fact is stated once: no key restates another.  base_info restated
    # kept and candidate_aurocs, selection.selected restated feature_names,
    # and train_rows and inner_folds the lengths of two lists
    doc = ensemble.to_dict()
    assert doc["schema_version"] == 3
    assert sorted(doc) == ["base_models", "feature_names", "kind", "meta", "provenance",
                           "scaler", "schema_version", "threshold"]
    assert sorted(prov) == ["candidate_aurocs", "final_synthetic_count",
                            "inner_fold_assignments", "inner_synthetic_counts", "kept",
                            "pipeline_seed", "seed", "selection", "smote"]
    assert sorted(prov["selection"]) == ["method", "scores", "trace"]
    assert list(doc["scaler"]) == ["kind", "lo", "hi"]
    assert "l2_strength" not in doc["meta"]
    for model in doc["base_models"]:
        assert sorted(model) == ["base_score", "bins", "params", "trees"]
    assert len(prov["inner_fold_assignments"]) == ds.n_rows
    assert len(prov["inner_synthetic_counts"]) == 3
    assert prov["pipeline_seed"] == 2

    again = train_pipeline(ds, _config(), seed=2)
    assert json.dumps(ensemble.to_dict(), sort_keys=True) == \
        json.dumps(again.to_dict(), sort_keys=True)


def test_a_finished_fold_holds_no_fit_when_the_next_fold_trains(monkeypatch):
    # every fit on an inner fold's matrix, and the trees its memo grew, must
    # be gone when the next matrix's first fit starts; each outer fold's
    # TrainedEnsemble must be gone when the next outer fold starts training
    real_fit, real_train = ensemble.fit_histgbm, ensemble.train_pipeline
    fits, pipelines, alive = [], [], []

    def fit(X, y, params, memo=None):
        matrix = np.asarray(X).tobytes()
        if fits and fits[-1][0] != matrix:
            gc.collect()
            alive.extend(f"{what} {i}" for i, (_, *refs) in enumerate(fits)
                         for what, ref in zip(("model", "tree"), refs) if ref() is not None)
        model = real_fit(X, y, params, memo=memo)
        fits.append((matrix, weakref.ref(model), weakref.ref(model.trees[0])))
        return model

    def train(ds, config, seed=0):
        gc.collect()
        alive.extend(f"pipeline {i}" for i, ref in enumerate(pipelines)
                     if ref() is not None)
        pipeline = real_train(ds, config, seed=seed)
        pipelines.append(weakref.ref(pipeline))
        return pipeline

    monkeypatch.setattr(ensemble, "fit_histgbm", fit)
    monkeypatch.setattr(ensemble, "train_pipeline", train)
    run_cross_validation(_dataset(seed=131), _config(), k=3, seed=7)
    # 3 outer folds, each 3 inner folds of 3 candidates and a refit of 2
    assert len(fits) == 3 * (3 * 3 + 2) and len(pipelines) == 3
    assert len({matrix for matrix, *_ in fits}) == 3 * 4
    assert alive == []


def _spy(monkeypatch, module, name, calls):
    """Wrap ``module.name`` so each call appends its bound arguments, whether
    passed by position or by keyword, to ``calls["<module>.<name>"]``."""
    real = getattr(module, name)
    signature = inspect.signature(real)
    key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
    calls[key] = []

    def wrapper(*args, **kwargs):
        calls[key].append(signature.bind(*args, **kwargs).arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)


@pytest.mark.parametrize("method", ["none", "lr_coef", "boost_rfe", "boost_rfa"])
@pytest.mark.parametrize("smote_enabled", [True, False])
def test_each_training_setting_reaches_the_component_that_uses_it(monkeypatch, method,
                                                                  smote_enabled):
    # every value but the method differs from its default in config.py, so a
    # default restated anywhere between the config and its component would show
    config = PipelineConfig(
        selection=SelectionConfig(method=method, n_target=2, inner_folds=4,
                                  improvement_eps=0.25),
        smote=SmoteConfig(enabled=smote_enabled, k_neighbors=2),
        ensemble=EnsembleConfig(m=1, inner_folds=2, grid=[
            {"n_trees": 4, "max_leaves": 3, "min_samples_leaf": 4},
            {"n_trees": 6, "max_leaves": 4, "min_samples_leaf": 4}]))
    calls = {}
    for module, name in ((select, "stratified_kfold"), (select, "boost_rfe"),
                         (select, "boost_rfa"), (ensemble, "stratified_kfold"),
                         (ensemble, "balance_training_set")):
        _spy(monkeypatch, module, name, calls)
    trained = train_pipeline(_dataset(seed=129), config, seed=3)

    prov = trained.provenance
    assert prov["selection"]["method"] == method
    boosted = method.startswith("boost_")
    assert len(trained.feature_names) in {"none": [5], "lr_coef": [2]}.get(method, [1, 2])
    assert [(c["n_target"], c["inner_folds"], c["improvement_eps"])
            for c in calls.get(f"select.{method}", [])] == [(2, 4, 0.25)] * boosted
    assert [c["k"] for c in calls["select.stratified_kfold"]] == [4] * boosted
    assert [c["k"] for c in calls["ensemble.stratified_kfold"]] == [2]
    assert len(prov["inner_synthetic_counts"]) == 2 and len(trained.base_models) == 1
    # one oversampling per inner fold and one for the refit
    assert [c["k_neighbors"] for c in calls["ensemble.balance_training_set"]] == \
        [2] * (3 * smote_enabled)
    assert prov["smote"] == {"enabled": smote_enabled, "k_neighbors": 2}


def test_save_load_round_trip_preserves_predictions_exactly(tmp_path):
    ds = _dataset(seed=122)
    ensemble = train_pipeline(ds, _config(), seed=5)
    rng = np.random.default_rng(123)
    X_test = rng.normal(size=(30, 5))
    before = ensemble_predict(ensemble, X_test, ds.feature_names)

    path = tmp_path / "model.json"
    save_ensemble(ensemble, path)
    loaded = load_ensemble(path)
    after = ensemble_predict(loaded, X_test, ds.feature_names)
    assert np.array_equal(before, after)

    doc = json.loads(path.read_text())
    assert doc["schema_version"] == 3 and doc["kind"] == "stacking_ensemble"
    doc["schema_version"] = 4
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(ArtifactError):
        load_ensemble(bad)
    with pytest.raises(ArtifactError):
        load_ensemble(tmp_path / "absent.json")


@pytest.fixture(scope="module")
def saved_doc(tmp_path_factory):
    """The JSON document of a trained 2-model, 3-feature artifact."""
    path = tmp_path_factory.mktemp("artifact") / "model.json"
    save_ensemble(train_pipeline(_dataset(seed=124), _config(), seed=3), path)
    return json.loads(path.read_text())


def _text_tree_feature(doc):
    doc = json.loads(json.dumps(doc))
    tree = next(t for t in doc["base_models"][0]["trees"] if t["feature"][0] >= 0)
    tree["feature"][0] = "x"
    return doc


_KEPT = "provenance.kept must hold an integer candidate index for each of the 2 base models"


def _provenance(d, **fields):
    """``d`` with ``fields`` set in its provenance; a field set to None is removed."""
    prov = {**d["provenance"], **fields}
    return {**d, "provenance": {k: v for k, v in prov.items() if v is not None}}


def _model(d, **fields):
    """``d`` with ``fields`` set on its first base model."""
    return {**d, "base_models": [{**d["base_models"][0], **fields}] + d["base_models"][1:]}


def _params(d, **fields):
    return _model(d, params={**d["base_models"][0]["params"], **fields})


def _thresholds(d, first):
    """``d`` with ``first`` as its first base model's first feature's thresholds."""
    bins = d["base_models"][0]["bins"]
    return _model(d, bins={**bins, "thresholds": [first] + bins["thresholds"][1:]})


def _leaf(d, key, value):
    trees = json.loads(json.dumps(d["base_models"][0]["trees"]))
    trees[0][key][-1] = value  # a leaf: a tree's last node is one
    return _model(d, trees=trees)


def _huge_intercept(d):
    # 1e400 parses as inf: the text of the edit seen at the command line
    text = json.dumps({**d, "meta": {**d["meta"], "intercept": 0.5}})
    return text.replace('"intercept": 0.5', '"intercept": 1e400').encode()


def _scaler(d, name, value):
    return {**d, "scaler": {**d["scaler"], name: [value] + d["scaler"][name][1:]}}


@pytest.mark.parametrize("damage, message", [
    (lambda d: b"\xff\xfe", "UnicodeDecodeError"),
    (lambda d: [], "AttributeError"),
    (lambda d: {"schema_version": 1, "kind": "stacking_ensemble"}, "KeyError: 'scaler'"),
    (_text_tree_feature, "ValueError"),
    (lambda d: {**d, "meta": {k: v for k, v in d["meta"].items() if k != "weights"}},
     "KeyError: 'weights'"),
    (lambda d: {**d, "base_models": []}, "no base models"),
    (lambda d: {**d, "scaler": {**d["scaler"], "lo": d["scaler"]["lo"][:1]}},
     "scaler.lo has shape (1,), not one value for each of the 3 features"),
    (lambda d: {**d, "scaler": {**d["scaler"], "hi": d["scaler"]["hi"] + [1.0]}},
     "scaler.hi has shape (4,), not one value for each of the 3 features"),
    (lambda d: {**d, "meta": {**d["meta"], "weights": d["meta"]["weights"][:1]}},
     "meta.weights has shape (1,), not one weight for each of the 2 base models"),
    (lambda d: {**d, "scaler": {**d["scaler"], "kind": "robust"}},
     "unknown scaler kind 'robust'"),
    (lambda d: _provenance(d, kept=[]), _KEPT),
    (lambda d: _provenance(d, kept=d["provenance"]["kept"][:1]), _KEPT),
    (lambda d: _provenance(d, kept=None), _KEPT),
    (lambda d: _provenance(d, kept=[True, False]), _KEPT),
    (lambda d: _provenance(d, kept=[float(ci) for ci in d["provenance"]["kept"]]), _KEPT),
    (lambda d: _scaler(d, "lo", float("nan")), "scaler.lo holds nan, not a finite number"),
    (lambda d: _scaler(d, "hi", float("inf")), "scaler.hi holds inf, not a finite number"),
    (lambda d: {**d, "meta": {**d["meta"], "weights": [float("nan")] + d["meta"]["weights"][1:]}},
     "meta.weights holds nan, not a finite number"),
    (lambda d: {**d, "meta": {**d["meta"], "intercept": float("nan")}},
     "meta.intercept holds nan, not a finite number"),
    (_huge_intercept, "meta.intercept holds inf, not a finite number"),
    (lambda d: _model(d, base_score=float("-inf")), "base_score is -inf, not finite"),
    (lambda d: _leaf(d, "value", float("nan")), "has a value that is not finite"),
    (lambda d: _leaf(d, "cover", float("nan")),
     "has a cover that is not a finite count of at least 1"),
    (lambda d: _leaf(d, "cover", 0), "has a cover that is not a finite count of at least 1"),
    (lambda d: {**d, "threshold": float("nan")}, "threshold must be in [0, 1], got nan"),
    (lambda d: {**d, "threshold": 7}, "threshold must be in [0, 1], got 7.0"),
    (lambda d: {**d, "threshold": -0.5}, "threshold must be in [0, 1], got -0.5"),
    (lambda d: _params(d, learning_rate=float("nan")),
     "params.learning_rate must be in (0, 1], got nan"),
    (lambda d: _params(d, n_trees=0), "params.n_trees must be in [1, inf), got 0"),
    (lambda d: _params(d, max_bins=256), "params.max_bins must be in [2, 255], got 256"),
    (lambda d: _params(d, min_samples_leaf=2.5),
     "params.min_samples_leaf must be an integer, got 2.5"),
    (lambda d: _thresholds(d, [float("nan")]), "bins.thresholds[0] must be fewer than"),
    (lambda d: _thresholds(d, [0.5, 0.25]), "bins.thresholds[0] must be fewer than"),
    (lambda d: _thresholds(d, [0.5, 0.5]), "bins.thresholds[0] must be fewer than"),
    (lambda d: _thresholds(d, [i / 300 for i in range(300)]),
     "bins.thresholds[0] must be fewer than max_bins=255 finite numbers in strictly "
     "increasing order"),
], ids=["not-utf8", "a-list", "no-sections", "tree-feature-text", "no-meta-weights",
        "no-base-models", "short-scaler-lo", "long-scaler-hi", "short-meta-weights",
        "unknown-scaler-kind", "empty-kept", "short-kept",
        "no-candidate-index", "bool-candidate-index", "float-candidate-index",
        "nan-scaler-lo", "inf-scaler-hi", "nan-meta-weight", "nan-intercept",
        "huge-intercept", "inf-base-score", "nan-leaf-value", "nan-leaf-cover",
        "zero-leaf-cover", "nan-threshold",
        "threshold-above-1", "threshold-below-0", "nan-learning-rate", "no-trees",
        "max-bins-256", "fractional-min-samples-leaf", "nan-bin-threshold",
        "descending-bin-thresholds", "repeated-bin-threshold", "300-bin-thresholds"])
def test_load_ensemble_rejects_a_malformed_document(saved_doc, tmp_path, damage, message):
    # unchecked, a short scaler.lo broadcasts over the rows and scores them,
    # and the other documents raise outside DataError (exit 4)
    bad = damage(saved_doc)
    path = tmp_path / "bad.json"
    if isinstance(bad, bytes):
        path.write_bytes(bad)
    else:
        path.write_text(json.dumps(bad))
    with pytest.raises(ArtifactError) as err:
        load_ensemble(path)
    assert str(err.value).startswith("cannot load model artifact: ")
    assert message in str(err.value)
    path.write_text(json.dumps(saved_doc))  # the intact document still loads
    assert len(load_ensemble(path).base_models) == 2


def test_artifact_with_retired_booster_settings_predicts_identically(tmp_path):
    # artifacts written before max_depth, l2_leaf and feature_fraction were
    # retired carry them in every params object, at their only values
    ds = _dataset(seed=127)
    ensemble = train_pipeline(ds, _config(), seed=4)
    path = tmp_path / "model.json"
    save_ensemble(ensemble, path)
    doc = json.loads(path.read_text())
    retired = {"max_depth": None, "l2_leaf": 1.0, "feature_fraction": 1.0}
    for p in (m["params"] for m in doc["base_models"]):
        assert not set(retired) & set(p)
        p.update(retired)
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc, sort_keys=True))

    X_test = np.random.default_rng(128).normal(size=(40, 5))
    expect = ensemble_predict(ensemble, X_test, ds.feature_names)
    loaded = load_ensemble(old)
    assert np.array_equal(ensemble_predict(loaded, X_test, ds.feature_names),
                          expect)
    assert [m.params for m in loaded.base_models] == \
        [m.params for m in ensemble.base_models]


def test_ensemble_predict_maps_columns_by_name():
    ds = _dataset(seed=124)
    ensemble = train_pipeline(ds, _config(), seed=1)
    rng = np.random.default_rng(125)
    X_test = rng.normal(size=(10, 5))
    base = ensemble_predict(ensemble, X_test, ds.feature_names)

    # reversing the columns changes nothing when names travel along
    rev_names = list(reversed(ds.feature_names))
    rev = ensemble_predict(ensemble, X_test[:, ::-1], rev_names)
    assert np.array_equal(base, rev)

    # a superset table with an extra column also maps cleanly
    wide = np.hstack([rng.normal(size=(10, 1)), X_test])
    wide_names = ["extra"] + ds.feature_names
    assert np.array_equal(base, ensemble_predict(ensemble, wide, wide_names))

    # drop a column the ensemble actually selected
    drop = ds.feature_names.index(ensemble.feature_names[0])
    keep = [j for j in range(5) if j != drop]
    with pytest.raises(MissingFeature):
        ensemble_predict(ensemble, X_test[:, keep],
                         [ds.feature_names[j] for j in keep])

    one = ensemble_predict(ensemble, X_test[0], ds.feature_names)
    assert one.shape == (1,)
    assert one[0] == base[0]


def test_predictions_are_probabilities():
    ds = _dataset(seed=126)
    ensemble = train_pipeline(ds, _config(), seed=3)
    scores = ensemble_predict(ensemble, ds.X, ds.feature_names)
    assert scores.shape == (ds.n_rows,)
    assert np.all((scores > 0) & (scores < 1))
    # the planted signal must be learnable on the training rows
    assert scores[ds.y == 1].mean() > scores[ds.y == 0].mean()
