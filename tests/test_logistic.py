import math

import numpy as np
import pytest

from hyposcreen.errors import DataError, EmptyMatrix, SingleClass
from hyposcreen.model import logistic
from hyposcreen.model.logistic import (
    LogisticModel,
    fit_logistic,
    logistic_objective,
    predict_proba_logistic,
)


def _problem(seed, n=60, d=4, scale=1.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    w_true = rng.normal(size=d) * scale
    p = 1.0 / (1.0 + np.exp(-(X @ w_true + 0.3)))
    y = (rng.random(n) < p).astype(float)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    return X, y


def test_gradient_matches_central_differences():
    X, y = _problem(40)
    rng = np.random.default_rng(41)
    for trial in range(10):
        w = rng.normal(size=X.shape[1])
        b = float(rng.normal())
        lam = float(rng.uniform(0, 3))
        _, gw, gb = logistic_objective(w, b, X, y, lam)
        h = 1e-6
        fd = np.empty(X.shape[1] + 1)
        for j in range(X.shape[1]):
            e = np.zeros_like(w)
            e[j] = h
            up, _, _ = logistic_objective(w + e, b, X, y, lam)
            dn, _, _ = logistic_objective(w - e, b, X, y, lam)
            fd[j] = (up - dn) / (2 * h)
        up, _, _ = logistic_objective(w, b + h, X, y, lam)
        dn, _, _ = logistic_objective(w, b - h, X, y, lam)
        fd[-1] = (up - dn) / (2 * h)
        grad = np.concatenate([gw, [gb]])
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-5


def test_fit_converges_and_reaches_stationary_point():
    X, y = _problem(42)
    model = fit_logistic(X, y)
    assert model.converged
    _, gw, gb = logistic_objective(model.weights, model.intercept, X, y, 1.0)
    assert max(float(np.max(np.abs(gw))), abs(gb)) < 1e-8


def test_fit_never_increases_objective():
    X, y = _problem(43)
    start, _, _ = logistic_objective(np.zeros(X.shape[1]), 0.0, X, y, 1.0)
    model = fit_logistic(X, y)
    end, _, _ = logistic_objective(model.weights, model.intercept, X, y, 1.0)
    assert end <= start + 1e-12


def test_intercept_is_not_penalized():
    # y == 1 in 80% of rows with no usable features: the fit should push the
    # intercept toward log(4) while the penalty keeps weights at zero
    X = np.zeros((50, 2))
    X[:, 0] = 1e-12  # keep columns non-degenerate but useless
    y = np.array([1.0] * 40 + [0.0] * 10)
    model = fit_logistic(X, y)
    assert abs(model.intercept - math.log(4.0)) < 1e-6
    assert np.all(np.abs(model.weights) < 1e-6)


def test_budget_exhaustion_returns_best_iterate_without_raising(monkeypatch):
    # on separable data one Newton step cannot reach the penalized optimum
    monkeypatch.setattr(logistic, "MAX_ITER", 1)
    X = np.linspace(-2, 2, 20)[:, None]
    y = (X[:, 0] > 0).astype(float)
    model = fit_logistic(X, y)
    assert not model.converged
    assert model.n_iterations == 1
    assert np.all(np.isfinite(model.weights)) and math.isfinite(model.intercept)
    p = predict_proba_logistic(model, X)
    assert np.all((p > 0) & (p < 1))


def test_predict_proba_matches_closed_form():
    X, y = _problem(45)
    model = fit_logistic(X, y)
    p = predict_proba_logistic(model, X)
    manual = 1.0 / (1.0 + np.exp(-(X @ model.weights + model.intercept)))
    assert np.allclose(p, manual, atol=1e-12)
    single = predict_proba_logistic(model, X[0])
    assert single.shape == (1,)
    assert single[0] == p[0]


def test_serialization_round_trip():
    X, y = _problem(46)
    model = fit_logistic(X, y)
    assert model.to_dict()["l2_strength"] == 1.0  # the artifact keeps the key
    back = LogisticModel.from_dict(model.to_dict())
    assert np.array_equal(predict_proba_logistic(back, X),
                          predict_proba_logistic(model, X))
    assert back.converged == model.converged


def test_fit_errors():
    X, y = _problem(47)
    with pytest.raises(SingleClass):
        fit_logistic(X, np.ones_like(y))
    with pytest.raises(EmptyMatrix):
        fit_logistic(np.zeros((0, 2)), np.array([]))
    with pytest.raises(DataError):
        fit_logistic(X, y[:-1])
    model = fit_logistic(X, y)
    with pytest.raises(DataError):
        predict_proba_logistic(model, X[:, :-1])
