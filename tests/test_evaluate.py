import json
import math

import numpy as np
import pytest

from hyposcreen.config import EnsembleConfig, PipelineConfig, SelectionConfig, SmoteConfig
from hyposcreen.dataset import LabeledDataset
from hyposcreen.ensemble import row_identity, run_cross_validation
from hyposcreen.errors import DataError, OutOfRange, SingleClass
from hyposcreen.evaluate import (
    auroc,
    auroc_from_points,
    classification_metrics,
    confusion_counts,
    percentile_interval,
    roc_curve,
    summarize_bootstrap,
)


def _mann_whitney_oracle(scores, labels):
    """Pairwise comparison count with half credit for ties, O(n_pos * n_neg)."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (pos.size * neg.size)


def test_auroc_matches_pairwise_oracle_on_random_instances():
    rng = np.random.default_rng(70)
    for trial in range(120):
        n = int(rng.integers(5, 60))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # quantized scores force plenty of ties
        scores = np.round(rng.random(n), 1)
        assert math.isclose(auroc(scores, labels),
                            _mann_whitney_oracle(scores, labels),
                            abs_tol=1e-12)


def test_auroc_known_values():
    labels = np.array([1, 1, 0, 0])
    assert auroc(np.array([0.9, 0.8, 0.2, 0.1]), labels) == 1.0
    assert auroc(np.array([0.1, 0.2, 0.8, 0.9]), labels) == 0.0
    assert auroc(np.array([0.5, 0.5, 0.5, 0.5]), labels) == 0.5
    with pytest.raises(SingleClass):
        auroc(np.array([0.1, 0.2, 0.3]), np.ones(3))


def test_roc_curve_shape_and_trapezoid_equivalence():
    rng = np.random.default_rng(71)
    for trial in range(40):
        n = int(rng.integers(6, 40))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 1)
        pts = roc_curve(scores, labels)
        fpr = np.array([p[0] for p in pts])
        tpr = np.array([p[1] for p in pts])
        thr = [p[2] for p in pts]
        assert (fpr[0], tpr[0]) == (0.0, 0.0) and thr[0] == math.inf
        assert (fpr[-1], tpr[-1]) == (1.0, 1.0)
        assert np.all(np.diff(fpr) >= 0) and np.all(np.diff(tpr) >= 0)
        assert all(thr[i] > thr[i + 1] for i in range(len(thr) - 1))
        assert math.isclose(auroc_from_points(pts),
                            _mann_whitney_oracle(scores, labels),
                            abs_tol=1e-12)


def _roc_loop(scores, labels):
    """The tie-group loop that the one-cumsum ``roc_curve`` replaced."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos_total = int(np.sum(labels == 1))
    neg_total = int(np.sum(labels != 1))
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    is_pos = (labels[order] == 1)
    points = [(0.0, 0.0, float("inf"))]
    tp = fp = 0
    i = 0
    n = s.shape[0]
    while i < n:
        j = i
        while j < n and s[j] == s[i]:
            j += 1
        tp += int(np.sum(is_pos[i:j]))
        fp += (j - i) - int(np.sum(is_pos[i:j]))
        points.append((fp / neg_total, tp / pos_total, float(s[i])))
        i = j
    return points


def test_roc_curve_equals_tie_group_loop_bit_for_bit():
    rng = np.random.default_rng(72)
    for trial in range(300):
        n = int(rng.integers(2, 400))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        rng.shuffle(labels)
        levels = int(rng.integers(1, 12))
        scores = rng.integers(-levels, levels + 1, size=n) / levels
        if trial % 3 == 0:
            scores = np.where(scores == 0, rng.choice([-0.0, 0.0], size=n), scores)
        elif trial % 3 == 1:
            scores = np.where(rng.random(n) < 0.5, scores, rng.random(n))
        got = roc_curve(scores, labels)
        want = _roc_loop(scores, labels)
        assert [tuple(map(float.hex, p)) for p in got] == \
            [tuple(map(float.hex, p)) for p in want]
        assert auroc_from_points(got) == auroc_from_points(want)


def test_roc_rejects_a_non_finite_score():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(OutOfRange) as err:
            auroc([0.2, bad, 0.9], [0, 1, 1])
        assert (err.value.row, err.value.col) == (1, "score")


def test_roc_and_confusion_counts_reject_a_non_binary_label():
    with pytest.raises(OutOfRange) as err:
        auroc([0.1, 0.9, 0.5], [2, 1, 7])
    assert (err.value.row, err.value.col) == (0, "label")
    with pytest.raises(OutOfRange) as err:
        confusion_counts([0.1, 0.9], [2, 1], threshold=0.5)
    assert (err.value.row, err.value.col) == (0, "label")


def test_confusion_and_metrics_hand_example():
    labels = np.array([1, 1, 1, 0, 0, 0, 0])
    scores = np.array([0.9, 0.6, 0.4, 0.7, 0.3, 0.2, 0.1])
    counts = confusion_counts(scores, labels, threshold=0.5)
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (2, 1, 3, 1)
    assert counts.n == 7
    m = classification_metrics(counts)
    assert math.isclose(m["accuracy"], 5 / 7)
    assert math.isclose(m["sensitivity"], 2 / 3)
    assert math.isclose(m["specificity"], 3 / 4)
    assert math.isclose(m["ppv"], 2 / 3)
    assert math.isclose(m["npv"], 3 / 4)
    assert math.isclose(m["f1"], 2 / 3)


def test_score_equal_to_threshold_counts_positive():
    counts = confusion_counts(np.array([0.5, 0.5]), np.array([1, 0]),
                              threshold=0.5)
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (1, 1, 0, 0)


def test_zero_denominators_give_none():
    counts = confusion_counts(np.array([0.1, 0.2]), np.array([0, 0]),
                              threshold=0.5)
    m = classification_metrics(counts)
    assert m["sensitivity"] is None and m["ppv"] is None and m["f1"] is None
    assert m["specificity"] == 1.0 and m["npv"] == 1.0
    with pytest.raises(DataError):
        confusion_counts(np.array([]), np.array([]), threshold=0.5)
    with pytest.raises(DataError):
        confusion_counts(np.array([0.5]), np.array([1, 0]), threshold=0.5)


def test_row_identity_hash_prefix():
    row = np.array([1.0, 2.5])
    ident = row_identity("p01", row)
    pid, digest = ident.split("|")
    assert pid == "p01" and len(digest) == 12
    assert ident == row_identity("p01", row.copy())
    assert ident != row_identity("p02", row)
    assert ident != row_identity("p01", np.array([1.0, 2.6]))


def test_percentile_interval_checkpoint():
    values = np.arange(1.0, 41.0)
    lo, hi = percentile_interval(values)
    assert math.isclose(lo, 1.975, abs_tol=1e-12)
    assert math.isclose(hi, 39.025, abs_tol=1e-12)
    with pytest.raises(DataError):
        percentile_interval(np.array([]))


def test_percentile_interval_equals_np_percentile_bit_for_bit():
    # written out so that cv does not import numpy.ma; it must keep the bits
    # of np.percentile's linear method, down to which zero's sign it returns
    rng = np.random.default_rng(131)
    alpha = (1.0 - 0.95) / 2.0 * 100.0
    cases = [np.array([v]) for v in (0.0, -0.0, 3.5, np.inf)]
    cases += [np.array([1.0, np.nan, 2.0]), np.array([0.0, -0.0] * 20)]
    for _ in range(3000):
        n = int(rng.integers(1, 60))
        v = rng.standard_normal(n) * 10.0 ** int(rng.integers(-3, 4))
        kind = int(rng.integers(4))
        if kind == 1:
            v = np.round(v, 1)  # ties
        elif kind == 2:
            v = rng.integers(0, 3, n).astype(float)
        elif kind == 3:
            v = np.where(rng.random(n) < 0.5, 0.0, -0.0)
        cases.append(v)
    for v in cases:
        with np.errstate(invalid="ignore"):  # inf - inf, in both
            want = np.percentile(v, [alpha, 100.0 - alpha])
            got = np.array(percentile_interval(list(v)))
        assert got.tobytes() == want.tobytes(), v


def test_summarize_bootstrap_handles_missing_metrics():
    reports = [
        {"auroc": 0.8, "sensitivity": None},
        {"auroc": 0.9, "sensitivity": 0.5},
        {"auroc": 0.7, "sensitivity": 0.7},
    ]
    summary = summarize_bootstrap(reports)
    entry = summary.metrics["auroc"]
    assert math.isclose(entry["mean"], 0.8)
    assert entry["n_defined"] == 3
    assert math.isclose(entry["half_width"],
                        (entry["ci_hi"] - entry["ci_lo"]) / 2.0)
    assert summary.metrics["sensitivity"]["n_defined"] == 2
    assert summary.n_seeds == 3
    with pytest.raises(DataError):
        summarize_bootstrap([])


def _tiny_dataset(n_pos=8, n_neg=16, n_features=6, seed=80):
    rng = np.random.default_rng(seed)
    n = n_pos + n_neg
    y = np.array([1] * n_pos + [0] * n_neg)
    X = rng.normal(size=(n, n_features))
    X[:, 0] += 1.2 * y
    ids = [f"p{i:03d}" for i in range(n)]
    return LabeledDataset(
        feature_names=[f"f{j}" for j in range(n_features)],
        X=X,
        y=y,
        participant_ids=ids,
    )


def _tiny_config():
    return PipelineConfig(
        scaler="minmax",
        selection=SelectionConfig(method="none"),
        smote=SmoteConfig(enabled=True, k_neighbors=3),
        ensemble=EnsembleConfig(m=1, inner_folds=2, grid=[
            {"n_trees": 10, "learning_rate": 0.2, "max_leaves": 4,
             "min_samples_leaf": 4},
        ]),
    )


def test_run_cross_validation_structure_and_determinism():
    ds = _tiny_dataset()
    config = _tiny_config()
    result = run_cross_validation(ds, config, k=3, seed=5)
    again = run_cross_validation(ds, config, k=3, seed=5)

    assert np.array_equal(result.oof_scores, again.oof_scores)
    assert json.dumps(result.report_dict(), sort_keys=True) == \
        json.dumps(again.report_dict(), sort_keys=True)

    # every row is evaluated exactly once and imbalance forces synthetics
    assert result.oof_scores.shape == (24,)
    assert np.all(np.isfinite(result.oof_scores))
    identities = {row_identity(ds.participant_ids[i], ds.X[i])
                  for i in range(24)}
    covered = [i for rec in result.audit for i in rec["eval_ids"]]
    assert len(covered) == 24 and set(covered) == identities

    assert len(result.audit) == 3
    for k, rec in enumerate(result.audit):
        assert rec["fold"] == k
        assert set(rec) == {"fold", "eval_ids", "train_ids", "n_synthetic"}
        assert rec["n_synthetic"] > 0
        assert set(rec["eval_ids"]).isdisjoint(rec["train_ids"])

    pooled = result.pooled
    assert math.isclose(pooled["auroc"], auroc(result.oof_scores, ds.y),
                        abs_tol=1e-12)
    fold_aurocs = [m["auroc"] for m in result.fold_metrics]
    assert math.isclose(result.per_fold_mean["auroc"],
                        float(np.mean(fold_aurocs)), abs_tol=1e-12)
    assert set(result.report_dict()) == {"pooled", "per_fold_mean",
                                         "fold_metrics", "folds"}

    different = run_cross_validation(ds, config, k=3, seed=6)
    assert not np.array_equal(result.oof_scores, different.oof_scores)


def test_cross_validation_rejects_class_smaller_than_fold_count():
    ds = _tiny_dataset(n_pos=2, n_neg=16)
    with pytest.raises(DataError):
        run_cross_validation(ds, _tiny_config(), k=3, seed=0)


def test_run_cross_validation_rejects_zero_folds():
    with pytest.raises(DataError, match="at least 2 folds"):
        run_cross_validation(_tiny_dataset(), _tiny_config(), k=0, seed=0)
