"""Synthetic labeled datasets with a known Bayes-optimal separability.

Class-conditional unit-variance Gaussians whose means differ by ``delta`` on
the informative dimensions.  With one informative dimension the optimal
AUROC is Phi(delta / sqrt(2)), which makes these tables useful as end-to-end
pipeline checks.  Demographics are attached so the bias tooling can run, and
a subgroup effect can be planted by shrinking the signal inside one group.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import LabeledDataset
from .errors import DataError

_ETHNICITIES = ("group_a", "group_b", "group_c")


def generate_synthetic_dataset(n_per_class: int, delta: float, dims: int,
                               informative_dims: int = 1, seed: int = 0,
                               subgroup_column: str | None = None,
                               subgroup_value: str | None = None,
                               signal_scale: float = 1.0) -> LabeledDataset:
    """Balanced two-class table with ``2 * n_per_class`` rows.

    ``subgroup_column``/``subgroup_value`` (with ``signal_scale`` < 1) damp
    the class separation inside one demographic subgroup, planting a
    recoverable bias effect; a value that no case holds, where there is
    nothing to damp, is a :class:`DataError`.  So are a negative ``seed``
    and a non-finite ``delta`` or ``signal_scale``; a negative ``delta``
    reverses the effect.
    """
    if n_per_class < 1:
        raise DataError("n_per_class must be >= 1")
    if dims < 1:
        raise DataError("dims must be >= 1")
    if not 1 <= informative_dims <= dims:
        raise DataError("informative_dims must be in [1, dims]")
    if seed < 0:
        raise DataError(f"seed must be a non-negative integer, got {seed}")
    for name, value in (("delta", delta), ("signal_scale", signal_scale)):
        if not math.isfinite(value):
            raise DataError(f"{name} must be a finite number, got {value}")
    rng = np.random.default_rng(seed)
    n = 2 * n_per_class
    y = np.concatenate([np.zeros(n_per_class, dtype=np.int64),
                        np.ones(n_per_class, dtype=np.int64)])

    sex = rng.choice(["female", "male"], size=n)
    age = rng.integers(35, 86, size=n).astype(float)
    ethnicity = rng.choice(_ETHNICITIES, size=n)
    duration = np.where(y == 1, np.round(rng.uniform(1.0, 15.0, size=n), 1),
                        np.nan)

    X = rng.standard_normal((n, dims))
    shift = np.zeros(n)
    shift[y == 1] = float(delta)
    if subgroup_column is not None:
        demo_arrays = {"sex": sex, "ethnicity": ethnicity}
        if subgroup_column not in demo_arrays:
            raise DataError(f"cannot plant an effect on {subgroup_column!r}")
        in_group = demo_arrays[subgroup_column] == subgroup_value
        if not in_group[y == 1].any():
            held = sorted(set(demo_arrays[subgroup_column][y == 1].tolist()))
            raise DataError(f"no case has {subgroup_column} {subgroup_value!r}, so there "
                            f"is no signal to damp; the cases hold {held}")
        shift[(y == 1) & in_group] *= float(signal_scale)
    X[:, :informative_dims] += shift[:, None]

    perm = rng.permutation(n)
    width = len(str(n - 1))
    return LabeledDataset(
        feature_names=[f"f{j:03d}" for j in range(dims)],
        X=X[perm],
        y=y[perm],
        participant_ids=[f"s{idx:0{width}d}" for idx in range(n)],
        demographics={
            "cohort": ["synthetic"] * n,
            "sex": [str(v) for v in sex[perm]],
            "age": [float(v) for v in age[perm]],
            "ethnicity": [str(v) for v in ethnicity[perm]],
            "disease_duration": [None if np.isnan(v) else float(v)
                                 for v in duration[perm]],
        },
    )
