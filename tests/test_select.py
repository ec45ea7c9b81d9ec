import numpy as np
import pytest

from hyposcreen.config import SelectionConfig
from hyposcreen.errors import DataError
from hyposcreen.model.histboost import BoostParams
from hyposcreen.select import (
    boost_rfa,
    boost_rfe,
    rank_features_lr,
    select_features,
)
from hyposcreen.util import sigmoid

FAST_PARAMS = BoostParams(n_trees=15, learning_rate=0.25, max_leaves=4,
                          min_samples_leaf=5, max_bins=32)


def _planted_problem(seed=110, n=160, informative=2, noise=4):
    """Two strong columns, the rest pure noise."""
    rng = np.random.default_rng(seed)
    d = informative + noise
    X = rng.normal(size=(n, d))
    logit = 2.2 * X[:, 0] - 2.0 * X[:, 1]
    y = (rng.random(n) < sigmoid(logit)).astype(np.int64)
    names = [f"signal_{i}" if i < informative else f"noise_{i}"
             for i in range(d)]
    return X, y, names


def test_lr_ranking_puts_planted_signal_first():
    X, y, names = _planted_problem()
    ranking = rank_features_lr(X, y, names, n_target=len(names))
    assert set(ranking.selected[:2]) == {"signal_0", "signal_1"}
    assert ranking.method == "lr_coef"
    assert len(ranking.selected) == 6
    top2 = rank_features_lr(X, y, names, n_target=2)
    assert set(top2.selected) == {"signal_0", "signal_1"}
    # magnitudes are exposed for every feature even when truncating
    assert len(top2.scores) == 6
    mags = [top2.scores[f] for f in ranking.selected]
    assert mags == sorted(mags, reverse=True)


def test_lr_ranking_breaks_magnitude_ties_by_name():
    # duplicated columns get identical coefficients
    rng = np.random.default_rng(111)
    base = rng.normal(size=(120, 1))
    X = np.hstack([base, base])
    y = (rng.random(120) < sigmoid(1.5 * base[:, 0])).astype(np.int64)
    ranking = rank_features_lr(X, y, ["zeta", "alpha"], n_target=2)
    assert ranking.selected == ["alpha", "zeta"]


def test_rfe_recovers_planted_signal():
    X, y, names = _planted_problem(seed=112)
    ranking = boost_rfe(X, y, names, n_target=2, inner_folds=3,
                        improvement_eps=1e-4, seed=3, params=FAST_PARAMS)
    assert ranking.method == "boost_rfe"
    assert {"signal_0", "signal_1"} <= set(ranking.selected)
    assert len(ranking.selected) <= 4
    for rec in ranking.trace:
        assert rec["action"] == "drop"
        assert set(rec) == {"step", "action", "feature", "auroc_before",
                            "auroc_after", "accepted"}
    # rejected drops terminate the walk, so only the last step may fail
    assert all(rec["accepted"] for rec in ranking.trace[:-1])


def test_rfe_eps_extremes():
    X, y, names = _planted_problem(seed=113)
    keep_all = boost_rfe(X, y, names, n_target=1, inner_folds=3,
                         improvement_eps=-np.inf, seed=0, params=FAST_PARAMS)
    assert keep_all.selected == names  # every drop is rejected immediately
    drop_all = boost_rfe(X, y, names, n_target=1, inner_folds=3,
                         improvement_eps=np.inf, seed=0, params=FAST_PARAMS)
    assert len(drop_all.selected) == 1  # every drop is accepted


def test_rfa_recovers_planted_signal():
    X, y, names = _planted_problem(seed=114)
    ranking = boost_rfa(X, y, names, n_target=3, inner_folds=3,
                        improvement_eps=1e-4, seed=3, params=FAST_PARAMS)
    assert ranking.method == "boost_rfa"
    assert ranking.trace[0]["action"] == "seed"
    assert ranking.trace[0]["feature"] in {"signal_0", "signal_1"}
    assert {"signal_0", "signal_1"} <= set(ranking.selected)
    assert len(ranking.selected) <= 3
    # the walk visits candidates even after a rejection
    assert len(ranking.trace) >= 2


def test_rfa_eps_extremes():
    X, y, names = _planted_problem(seed=115)
    seed_only = boost_rfa(X, y, names, n_target=6, inner_folds=3,
                          improvement_eps=np.inf, seed=0, params=FAST_PARAMS)
    assert len(seed_only.selected) == 1  # nothing clears an infinite bar
    fill = boost_rfa(X, y, names, n_target=4, inner_folds=3,
                     improvement_eps=-np.inf, seed=0, params=FAST_PARAMS)
    assert len(fill.selected) == 4  # every addition is accepted up to target


def test_selection_is_deterministic():
    X, y, names = _planted_problem(seed=116)
    settings = dict(n_target=3, inner_folds=3, improvement_eps=1e-4, seed=9,
                    params=FAST_PARAMS)
    a = boost_rfa(X, y, names, **settings)
    b = boost_rfa(X, y, names, **settings)
    assert a == b
    c = boost_rfe(X, y, names, **settings)
    d = boost_rfe(X, y, names, **settings)
    assert c == d


def test_select_features_dispatch():
    X, y, names = _planted_problem(seed=117)
    kept = select_features(X, y, names, SelectionConfig(method="none", n_target=2), 0)
    assert kept.selected == names and kept.method == "none"
    lr = select_features(X, y, names, SelectionConfig(method="lr_coef", n_target=2), 0)
    assert len(lr.selected) == 2
    with pytest.raises(DataError):
        select_features(X, y, names, SelectionConfig(method="pick_best", n_target=2), 0)
    with pytest.raises(DataError):
        boost_rfe(X, y, names, n_target=0, inner_folds=3, improvement_eps=1e-4,
                  seed=0, params=FAST_PARAMS)
    with pytest.raises(DataError):
        rank_features_lr(X, y, names[:-1], n_target=2)
