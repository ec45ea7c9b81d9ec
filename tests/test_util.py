import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyposcreen.parallel import ENV_VAR, parallel_map, worker_count
from hyposcreen.errors import DataError
from hyposcreen.util import child_seed, expit, open_output, sigmoid

from split_oracle import log_loss


def test_child_seed_is_pure():
    assert child_seed(0, "fold", 3) == child_seed(0, "fold", 3)
    assert child_seed(123, "stack", "smote", 7) == child_seed(123, "stack", "smote", 7)


def test_child_seed_distinguishes_key_paths():
    seeds = {
        child_seed(0),
        child_seed(0, 0),
        child_seed(0, "0"),
        child_seed(0, "fold", 1),
        child_seed(0, "fold", 2),
        child_seed(1, "fold", 1),
        child_seed(0, "fold"),
    }
    assert len(seeds) == 7


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=0, max_value=10**9))
def test_child_seed_range(master, key):
    s = child_seed(master, key)
    assert 0 <= s < 2**31 - 1


def test_sigmoid_matches_closed_form_and_stays_open():
    z = np.array([-745.0, -30.0, -1.0, 0.0, 1.0, 30.0, 745.0])
    p = sigmoid(z)
    assert np.all(p > 0.0) and np.all(p < 1.0)
    assert p[3] == 0.5
    assert math.isclose(p[2], 1.0 / (1.0 + math.exp(1.0)), rel_tol=1e-12)
    assert math.isclose(p[4], 1.0 / (1.0 + math.exp(-1.0)), rel_tol=1e-12)
    # extremes clip to the open-interval bounds instead of reaching 0/1
    assert p[0] == 1e-15
    assert p[-1] == 1.0 - 1e-15


def _masked_expit(z):
    """The logistic function taken apart on the two signs with boolean
    masks: the reference ``expit`` must equal bit for bit."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_expit_equals_the_masked_form_bit_for_bit():
    special = [0.0, 1e-300, 1.0, 36.0, 709.0, 800.0, np.inf, np.nan]
    z = np.array(special + [-v for v in special])
    z = np.concatenate([z, np.random.default_rng(68).normal(scale=20.0, size=10_000)])
    with np.errstate(under="ignore"):
        want = _masked_expit(z)
    assert expit(z).tobytes() == want.tobytes()
    assert expit(np.array([-0.0]))[0] == 0.5 and math.isnan(expit(np.nan))


def test_expit_keeps_the_shape_and_raises_nothing():
    z = np.array([-800.0, -709.0, -36.0, -1e-300, -0.0, 0.0, 36.0, 709.0, 800.0,
                  np.inf, -np.inf, np.nan])
    with np.errstate(all="raise"):
        for a in (z[3], z.reshape(3, 4), z, 2.5, [[1.0, -1.0]]):
            got = expit(a)
            assert isinstance(got, np.ndarray) and got.shape == np.shape(a)
            assert got.dtype == np.float64
            with np.errstate(under="ignore"):
                want = _masked_expit(a)
            assert got.tobytes() == want.tobytes()


def test_log_loss_hand_value():
    # -(ln .8 + ln .6) / 2, written out
    expect = -(math.log(0.8) + math.log(0.6)) / 2.0
    assert math.isclose(log_loss([1, 0], [0.8, 0.4]), expect, rel_tol=1e-12)


def test_log_loss_clips_degenerate_probabilities():
    v = log_loss([1.0], [0.0])
    assert math.isfinite(v)
    assert math.isclose(v, -math.log(1e-15), rel_tol=1e-9)


def test_worker_count_parses_env(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert worker_count() == 1
    monkeypatch.setenv(ENV_VAR, "4")
    assert worker_count() == 4
    monkeypatch.setenv(ENV_VAR, "not-a-number")
    assert worker_count() == 1
    monkeypatch.setenv(ENV_VAR, "-3")
    assert worker_count() == 1


def test_parallel_map_preserves_order(monkeypatch):
    items = list(range(37))
    expect = [v * v for v in items]
    monkeypatch.setenv(ENV_VAR, "4")
    assert parallel_map(lambda v: v * v, items) == expect
    monkeypatch.setenv(ENV_VAR, "1")
    assert parallel_map(lambda v: v * v, items) == expect
    assert parallel_map(lambda v: v, []) == []


def test_open_output_writes_text_and_names_a_path_it_cannot_write(tmp_path):
    path = tmp_path / "out.csv"
    with open_output(path, newline="") as fh:
        fh.write("a\r\n")
    assert path.read_bytes() == b"a\r\n"
    missing = tmp_path / "missing" / "out.csv"
    for bad in (missing, tmp_path):  # a missing directory, then a directory
        with pytest.raises(DataError, match=f"^cannot write {bad}: "):
            with open_output(bad) as fh:
                fh.write("x")
    assert not missing.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_open_output_names_a_path_whose_write_fails():
    with pytest.raises(DataError, match="^cannot write /dev/full: "):
        with open_output("/dev/full") as fh:
            fh.write("x")
