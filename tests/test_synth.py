import math

import numpy as np
import pytest

from hyposcreen.errors import DataError
from hyposcreen.evaluate import auroc
from hyposcreen.synth import generate_synthetic_dataset


def test_shapes_balance_and_id_padding():
    ds = generate_synthetic_dataset(n_per_class=60, delta=1.0, dims=4, seed=0)
    assert ds.X.shape == (120, 4)
    assert int(ds.y.sum()) == 60
    assert ds.feature_names == ["f000", "f001", "f002", "f003"]
    assert sorted(ds.participant_ids) == [f"s{i:03d}" for i in range(120)]
    assert set(ds.demographics["cohort"]) == {"synthetic"}
    assert set(ds.demographics["sex"]) <= {"female", "male"}
    assert all(35 <= a <= 85 for a in ds.demographics["age"])


def test_determinism_and_seed_sensitivity():
    a = generate_synthetic_dataset(40, 1.5, 3, seed=7)
    b = generate_synthetic_dataset(40, 1.5, 3, seed=7)
    c = generate_synthetic_dataset(40, 1.5, 3, seed=8)
    assert np.array_equal(a.X, b.X) and a.participant_ids == b.participant_ids
    assert not np.array_equal(a.X, c.X)


def test_single_dim_separability_tracks_closed_form():
    # one informative dimension: optimal AUROC is Phi(delta / sqrt(2))
    ds = generate_synthetic_dataset(4000, 2.0, 1, seed=11)
    raw = auroc(ds.X[:, 0], ds.y)
    target = 0.5 * math.erfc(-2.0 / (math.sqrt(2.0) * math.sqrt(2.0)))
    assert abs(raw - target) < 0.02

    null = generate_synthetic_dataset(4000, 0.0, 1, seed=12)
    assert abs(auroc(null.X[:, 0], null.y) - 0.5) < 0.03


def test_informative_dims_limit_where_signal_lives():
    ds = generate_synthetic_dataset(2000, 2.0, 5, informative_dims=2, seed=13)
    for j in (0, 1):
        assert auroc(ds.X[:, j], ds.y) > 0.85
    for j in (2, 3, 4):
        assert abs(auroc(ds.X[:, j], ds.y) - 0.5) < 0.05


def test_subgroup_damping_removes_signal_inside_group():
    ds = generate_synthetic_dataset(3000, 2.0, 1, seed=14,
                                    subgroup_column="sex",
                                    subgroup_value="female",
                                    signal_scale=0.0)
    sex = np.array(ds.demographics["sex"])
    female = sex == "female"
    assert abs(auroc(ds.X[female, 0], ds.y[female]) - 0.5) < 0.05
    assert auroc(ds.X[~female, 0], ds.y[~female]) > 0.85


def test_disease_duration_only_for_cases():
    ds = generate_synthetic_dataset(50, 1.0, 2, seed=15)
    duration = ds.demographics["disease_duration"]
    for flag, v in zip(ds.y, duration):
        if flag == 1:
            assert 1.0 <= v <= 15.0
        else:
            assert v is None


def test_argument_validation():
    with pytest.raises(DataError):
        generate_synthetic_dataset(0, 1.0, 2)
    with pytest.raises(DataError):
        generate_synthetic_dataset(10, 1.0, 0)
    with pytest.raises(DataError):
        generate_synthetic_dataset(10, 1.0, 2, informative_dims=3)
    with pytest.raises(DataError):
        generate_synthetic_dataset(10, 1.0, 2, subgroup_column="age",
                                   subgroup_value="40")
    # seed 0 deals all 10 cases to men
    for seed, value, held in ((1, "Female", r"\['female', 'male'\]"),
                              (0, "female", r"\['male'\]")):
        with pytest.raises(DataError, match=rf"^no case has sex '{value}', so there is "
                                            rf"no signal to damp; the cases hold {held}$"):
            generate_synthetic_dataset(10, 1.0, 2, seed=seed, subgroup_column="sex",
                                       subgroup_value=value, signal_scale=0.0)


def test_negative_seed_and_non_finite_effects_are_rejected_by_name():
    with pytest.raises(DataError, match=r"^seed must be a non-negative integer, got -2$"):
        generate_synthetic_dataset(10, 1.0, 2, seed=-2)
    for name, value in (("delta", math.nan), ("delta", math.inf), ("delta", -math.inf),
                        ("signal_scale", math.nan), ("signal_scale", math.inf)):
        with pytest.raises(DataError, match=rf"^{name} must be a finite number, "
                                            rf"got {value}$"):
            generate_synthetic_dataset(**{"n_per_class": 10, "delta": 1.0, "dims": 2,
                                          "seed": 1, "subgroup_column": "sex",
                                          "subgroup_value": "female", name: value})
    # a negative delta is a reversed effect
    ds = generate_synthetic_dataset(200, -2.0, 1, seed=3)
    assert auroc(ds.X[:, 0], ds.y) < 0.2
