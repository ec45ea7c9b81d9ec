import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyposcreen.errors import (
    ClassTooSmall,
    DataError,
    EmptyMatrix,
    OutOfRange,
    SingleClass,
    TooFewMinority,
    WidthMismatch,
)
from hyposcreen.preprocess import (
    FittedScaler,
    apply_scaler,
    balance_training_set,
    fit_scaler,
    smote_oversample,
    stratified_kfold,
    train_counts,
)


def test_minmax_scaler_hits_endpoints():
    rng = np.random.default_rng(30)
    X = rng.normal(size=(20, 4))
    names = [f"f{i}" for i in range(4)]
    scaler = fit_scaler("minmax", X, names)
    Z = apply_scaler(scaler, X)
    assert np.allclose(Z.min(axis=0), 0.0)
    assert np.allclose(Z.max(axis=0), 1.0)
    # unseen rows beyond the training range are not clamped
    Z2 = apply_scaler(scaler, X.max(axis=0)[None, :] + 1.0)
    assert np.all(Z2 > 1.0)
    Z3 = apply_scaler(scaler, X.min(axis=0)[None, :] - 1.0)
    assert np.all(Z3 < 0.0)


def test_minmax_constant_column_maps_to_zero():
    X = np.column_stack([np.full(6, 3.3), np.arange(6.0)])
    scaler = fit_scaler("minmax", X, ["c", "v"])
    Z = apply_scaler(scaler, X)
    assert np.all(Z[:, 0] == 0.0)
    assert Z[0, 1] == 0.0 and Z[-1, 1] == 1.0


def test_standard_scaler_population_moments():
    rng = np.random.default_rng(31)
    X = rng.normal(loc=5.0, scale=3.0, size=(50, 3))
    scaler = fit_scaler("standard", X, ["a", "b", "c"])
    assert np.allclose(scaler.lo, X.mean(axis=0))
    assert np.allclose(scaler.hi, X.std(axis=0))  # ddof=0
    Z = apply_scaler(scaler, X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(Z.std(axis=0), 1.0, atol=1e-12)


def test_none_scaler_is_identity():
    # bit for bit: its lo = 0 and hi = 1 keep -0.0, subnormals and extremes
    X = np.array([[1.0, -0.0, 5e-324], [3.0, 4.0, -1.7e308]])
    scaler = fit_scaler("none", X, ["a", "b", "c"])
    out = apply_scaler(scaler, X)
    assert out is not X and out.tobytes() == X.tobytes()


def test_scaler_round_trip_and_restrict():
    rng = np.random.default_rng(32)
    X = rng.normal(size=(10, 3))
    scaler = fit_scaler("minmax", X, ["a", "b", "c"])
    assert list(scaler.to_dict()) == ["kind", "lo", "hi"]
    back = FittedScaler.from_dict(scaler.to_dict())
    assert np.array_equal(apply_scaler(back, X), apply_scaler(scaler, X))
    small = scaler.restrict([2, 0])
    assert small.lo.tolist() == [scaler.lo[2], scaler.lo[0]]
    assert np.array_equal(apply_scaler(small, X[:, [2, 0]]),
                          apply_scaler(scaler, X)[:, [2, 0]])


def test_scaler_errors():
    X = np.zeros((3, 2))
    with pytest.raises(DataError):
        fit_scaler("robust", X, ["a", "b"])
    with pytest.raises(EmptyMatrix):
        fit_scaler("minmax", np.zeros((0, 2)), ["a", "b"])
    with pytest.raises(WidthMismatch):
        fit_scaler("minmax", X, ["a"])
    for kind in ("minmax", "standard", "none"):
        for value in (np.nan, np.inf, -np.inf):
            bad = np.zeros((3, 2))
            bad[2, 1] = value
            with pytest.raises(OutOfRange) as err:
                fit_scaler(kind, bad, ["a", "b"])
            assert (err.value.row, err.value.col) == (2, "b")
    scaler = fit_scaler("minmax", np.arange(6.0).reshape(3, 2), ["a", "b"])
    with pytest.raises(WidthMismatch):
        apply_scaler(scaler, np.zeros((2, 3)))


def _knn_oracle(X, k):
    """Exhaustive k nearest neighbours per row, excluding self."""
    out = []
    for i in range(len(X)):
        d = [(float(np.sum((X[i] - X[j]) ** 2)), j)
             for j in range(len(X)) if j != i]
        d.sort()
        out.append({j for _, j in d[:k]})
    return out


def _on_segment(s, x, nn, tol=1e-9):
    """True when s lies on the segment from x to nn."""
    span = nn - x
    rel = s - x
    denom = float(np.dot(span, span))
    if denom == 0.0:
        return bool(np.allclose(rel, 0.0, atol=tol))
    u = float(np.dot(rel, span)) / denom
    if not -tol <= u <= 1.0 + tol:
        return False
    return bool(np.allclose(x + u * span, s, atol=tol))


def test_smote_synthetics_lie_on_knn_segments():
    rng = np.random.default_rng(33)
    for trial in range(20):
        n_min = int(rng.integers(4, 12))
        d = int(rng.integers(2, 5))
        X = rng.normal(size=(n_min, d))
        k = int(rng.integers(1, 6))
        syn = smote_oversample(X, n_min + 15, k_neighbors=k, seed=trial)
        assert syn.shape == (15, d)
        neigh = _knn_oracle(X, min(k, n_min - 1))
        for s in syn:
            ok = any(_on_segment(s, X[i], X[j])
                     for i in range(n_min) for j in neigh[i])
            assert ok


def test_smote_synthetic_count_closes_class_gap():
    rng = np.random.default_rng(34)
    minority = rng.normal(size=(256, 5))
    syn = smote_oversample(minority, 803, k_neighbors=5, seed=0)
    assert syn.shape == (547, 5)


def test_smote_is_deterministic_per_seed():
    rng = np.random.default_rng(35)
    X = rng.normal(size=(8, 3))
    a = smote_oversample(X, 20, k_neighbors=5, seed=9)
    b = smote_oversample(X, 20, k_neighbors=5, seed=9)
    c = smote_oversample(X, 20, k_neighbors=5, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_smote_edge_cases():
    with pytest.raises(TooFewMinority):
        smote_oversample(np.zeros((1, 2)), 5, k_neighbors=5, seed=0)
    with pytest.raises(EmptyMatrix):
        smote_oversample(np.zeros((0, 2)), 5, k_neighbors=5, seed=0)
    with pytest.raises(DataError):
        smote_oversample(np.zeros((3, 2)), 5, k_neighbors=0, seed=0)
    # no gap, no synthetics
    minority = np.random.default_rng(0).normal(size=(4, 2))
    assert smote_oversample(minority, 4, k_neighbors=5, seed=0).shape == (0, 2)
    # k shrinks to n_min - 1 instead of failing
    X = np.arange(6.0).reshape(3, 2)
    syn = smote_oversample(X, 6, k_neighbors=10, seed=1)
    assert syn.shape == (3, 2)


def test_balance_training_set_appends_synthetics():
    rng = np.random.default_rng(36)
    X = rng.normal(size=(30, 4))
    y = np.array([1] * 10 + [0] * 20)
    Xa, ya, n_syn = balance_training_set(X, y, k_neighbors=5, seed=2)
    assert n_syn == 10
    assert Xa.shape == (40, 4)
    assert np.array_equal(Xa[:30], X)
    assert np.array_equal(ya[:30], y)
    assert np.all(ya[30:] == 1)
    assert int(np.sum(ya == 1)) == int(np.sum(ya == 0))

    # already balanced: untouched
    Xb, yb, n0 = balance_training_set(X[:20], np.array([0, 1] * 10), k_neighbors=5,
                                      seed=0)
    assert n0 == 0 and Xb.shape == (20, 4)
    with pytest.raises(SingleClass):
        balance_training_set(X, np.zeros(30), k_neighbors=5, seed=0)


def test_stratified_kfold_worked_example():
    # 10 positives, 90 negatives, k=10: every fold holds 1 positive and 9 negatives
    y = np.array([1] * 10 + [0] * 90)
    plan = stratified_kfold(y, 10, seed=4)
    for fold in range(10):
        _, ev = plan.fold_indices(fold)
        assert ev.size == 10
        assert int(np.sum(y[ev] == 1)) == 1
        assert int(np.sum(y[ev] == 0)) == 9


def test_stratified_kfold_balance_within_one():
    rng = np.random.default_rng(37)
    y = (rng.random(83) < 0.4).astype(int)
    k = 5
    plan = stratified_kfold(y, k, seed=0)
    for label in (0, 1):
        n_c = int(np.sum(y == label))
        for fold in range(k):
            _, ev = plan.fold_indices(fold)
            got = int(np.sum(y[ev] == label))
            assert abs(got - n_c / k) < 1.0


def test_stratified_kfold_partition_and_determinism():
    y = np.array([0, 1] * 15)
    a = stratified_kfold(y, 3, seed=5)
    b = stratified_kfold(y, 3, seed=5)
    c = stratified_kfold(y, 3, seed=6)
    assert np.array_equal(a.assignments, b.assignments)
    assert not np.array_equal(a.assignments, c.assignments)
    assert np.all((a.assignments >= 0) & (a.assignments < 3))
    tr, ev = a.fold_indices(1)
    assert sorted(np.concatenate([tr, ev]).tolist()) == list(range(30))


def test_stratified_kfold_errors():
    with pytest.raises(ClassTooSmall) as err:
        stratified_kfold(np.array([1, 0, 0, 0, 0]), 2, seed=0)
    assert err.value.count == 1
    assert str(err.value) == "class 1 has 1 rows, fewer than k=2 folds"
    with pytest.raises(DataError):
        stratified_kfold(np.array([0, 1]), 1, seed=0)
    with pytest.raises(EmptyMatrix):
        stratified_kfold(np.array([]), 2, seed=0)


def test_train_counts_are_the_class_counts_of_every_dealt_training_split():
    rng = np.random.default_rng(23)
    for _ in range(25):
        counts = rng.integers(1, 41, size=rng.integers(2, 4))
        y = rng.permutation(np.repeat(np.arange(counts.size), counts))
        for k in range(2, counts.min() + 1):
            rule = train_counts(counts, k)
            assert rule.shape == (k, counts.size)
            for seed in range(3):
                plan = stratified_kfold(y, k, seed=seed)
                for j in range(k):
                    tr, _ = plan.fold_indices(j)
                    assert np.bincount(y[tr], minlength=counts.size).tolist() \
                        == rule[j].tolist(), (counts, k, seed, j)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=6),
       st.integers(min_value=0, max_value=999))
def test_stratified_kfold_always_partitions(k, seed):
    rng = np.random.default_rng(seed)
    y = np.concatenate([np.zeros(k + int(rng.integers(0, 20))),
                        np.ones(k + int(rng.integers(0, 20)))]).astype(int)
    rng.shuffle(y)
    plan = stratified_kfold(y, k, seed=seed)
    counts = np.bincount(plan.assignments, minlength=k)
    assert counts.sum() == y.shape[0]
    assert np.all(counts > 0)
