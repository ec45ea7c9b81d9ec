"""L2-penalized logistic regression fit by damped Newton iteration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, EmptyMatrix, SingleClass
from ..util import expit, sigmoid

L2_STRENGTH = 1.0  # ridge penalty on the weights, not the intercept
TOL = 1e-8  # converged once the gradient's infinity norm is below this
MAX_ITER = 100  # Newton steps before the best iterate is returned


@dataclass
class LogisticModel:
    weights: np.ndarray
    intercept: float
    converged: bool
    n_iterations: int

    def to_dict(self) -> dict:
        return {
            "weights": [float(w) for w in self.weights],
            "intercept": float(self.intercept),
            "converged": bool(self.converged),
            "n_iterations": int(self.n_iterations),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LogisticModel":
        return cls(weights=np.array(d["weights"], dtype=float),
                   intercept=float(d["intercept"]),
                   converged=bool(d["converged"]),
                   n_iterations=int(d["n_iterations"]))


def logistic_objective(weights, intercept, X, y, l2_strength):
    """Penalized negative log-likelihood and its gradient.

    The intercept is not penalized.  Returns ``(value, grad_w, grad_b)``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.asarray(weights, dtype=float)
    z = X @ w + intercept
    value = float(np.sum(np.logaddexp(0.0, z) - y * z)
                  + 0.5 * l2_strength * np.dot(w, w))
    p = expit(z)
    grad_w = X.T @ (p - y) + l2_strength * w
    grad_b = float(np.sum(p - y))
    return value, grad_w, grad_b


def fit_logistic(X, y) -> LogisticModel:
    """Newton iteration with step halving on the objective penalized by
    ``L2_STRENGTH``; converged when the gradient's infinity norm drops below
    ``TOL``.

    If the ``MAX_ITER`` budget runs out the best iterate seen is returned
    with ``converged=False`` rather than raising.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyMatrix()
    if X.shape[0] != y.shape[0]:
        raise DataError("row count of X and y differ")
    if y.min() == y.max():  # np.unique(y) would import numpy.ma
        raise SingleClass()

    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    obj, gw, gb = logistic_objective(w, b, X, y, L2_STRENGTH)
    best = (obj, w.copy(), b)
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        if max(np.max(np.abs(gw), initial=0.0), abs(gb)) < TOL:
            converged = True
            it -= 1
            break
        z = X @ w + b
        p = expit(z)
        r = p * (1.0 - p)
        Xa = np.hstack([X, np.ones((n, 1))])
        H = (Xa * r[:, None]).T @ Xa
        H[np.arange(d), np.arange(d)] += L2_STRENGTH
        H[np.arange(d + 1), np.arange(d + 1)] += 1e-10  # keep solvable
        g = np.concatenate([gw, [gb]])
        try:
            delta = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            delta = -g  # fall back to gradient descent direction
        # halve the step until the penalized objective decreases
        step = 1.0
        for _ in range(60):
            w_new = w + step * delta[:d]
            b_new = b + step * delta[d]
            obj_new, gw_new, gb_new = logistic_objective(
                w_new, b_new, X, y, L2_STRENGTH)
            if obj_new <= obj:
                break
            step *= 0.5
        else:
            break  # no decrease possible; stop at current point
        w, b, obj, gw, gb = w_new, b_new, obj_new, gw_new, gb_new
        if obj < best[0]:
            best = (obj, w.copy(), b)
    if not converged and max(np.max(np.abs(gw), initial=0.0), abs(gb)) < TOL:
        converged = True
    if not converged:
        _, w, b = best
    return LogisticModel(weights=w, intercept=b, converged=converged,
                         n_iterations=it)


def predict_proba_logistic(model: LogisticModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    if X.shape[1] != model.weights.shape[0]:
        raise DataError(f"expected {model.weights.shape[0]} columns, "
                        f"got {X.shape[1]}")
    return sigmoid(X @ model.weights + model.intercept)
