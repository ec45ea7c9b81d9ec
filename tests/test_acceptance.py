"""End-to-end acceptance gate.

Each test is one releasable claim about the pipeline, checked at its stated
tolerance: checkpoint statistics, closed-form recovery on synthetic data,
fast-path/oracle equivalences, numeric invariants, structural counts, and
byte-level determinism.  Run with ``pytest -v`` for one pass/fail line per
claim; each test also prints the measured values.
"""

import csv
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import hyposcreen.cli as cli
import hyposcreen.ingest as ingest
from hyposcreen.cli import main
from hyposcreen.config import EnsembleConfig, PipelineConfig, SelectionConfig, SmoteConfig
from hyposcreen.dataset import DEMOGRAPHIC_COLUMNS, META_COLUMNS, read_feature_table
from hyposcreen.ensemble import row_identity, run_cross_validation
from hyposcreen.errors import (
    DataError,
    DuplicateEntry,
    EmptyFile,
    MissingCell,
    MissingColumn,
    NonNumericCell,
    OutOfRange,
    RaggedFrame,
    WideRow,
)
from hyposcreen.evaluate import auroc
from hyposcreen.explain import pca_project, tree_shap
from hyposcreen.featurize import feature_names
from hyposcreen.ingest import (
    EXPRESSION_AUS,
    EXPRESSIONS,
    N_POINTS,
    Column,
    CsvSpec,
    parse_au_csv,
    parse_landmark_series,
    read_columns,
)
from hyposcreen.model.binning import bin_matrix
from hyposcreen.model.histboost import BoostedModel, BoostParams, fit_histgbm, predict_raw
from hyposcreen.model.logistic import logistic_objective
from hyposcreen.preprocess import smote_oversample, stratified_kfold
from hyposcreen.stats import fisher_exact, normal_approx_ci
from hyposcreen.util import sigmoid

from conftest import z_two_proportions_from_rates
from shap_oracle import exact_shapley_oracle
from split_oracle import log_loss

from hyposcreen.dataset import LabeledDataset

ROOT = Path(__file__).resolve().parents[1]


def _best_of_three(fn):
    times = []
    out = None
    for _ in range(3):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, min(times)


# --- checkpoint statistics ---------------------------------------------------------

def test_two_proportion_z_test_checkpoints():
    res1, dt1 = _best_of_three(
        lambda: z_two_proportions_from_rates(0.141, 361, 0.129, 466))
    assert abs(res1.statistic - 0.52) < 0.05
    assert abs(res1.p_value - 0.60) < 0.03

    res2, dt2 = _best_of_three(
        lambda: z_two_proportions_from_rates(0.194, 103, 0.043, 46))
    assert abs(res2.statistic - 2.40) < 0.05

    assert max(dt1, dt2) < 0.001
    print(f"PASS z-test checkpoints: z={res1.statistic:.3f} "
          f"p={res1.p_value:.3f}; z={res2.statistic:.3f}; "
          f"{max(dt1, dt2) * 1e6:.0f}us")


def test_fisher_exact_checkpoint():
    res, dt = _best_of_three(lambda: fisher_exact(15, 55, 0, 7))
    assert res.statistic == 0.0
    assert 0.32 <= res.p_value <= 0.35
    assert dt < 0.010
    print(f"PASS fisher checkpoint: odds={res.statistic} "
          f"p={res.p_value:.4f}; {dt * 1e6:.0f}us")


def test_rate_ci_half_width_checkpoints():
    ci1 = normal_approx_ci(0.141 * 361, 361)
    ci2 = normal_approx_ci(0.129 * 466, 466)
    assert abs(ci1.half_width - 0.036) < 0.0005
    assert abs(ci2.half_width - 0.030) < 0.0005
    print(f"PASS ci half-widths: {ci1.half_width:.4f} vs 0.036, "
          f"{ci2.half_width:.4f} vs 0.030")


# --- closed-form recovery on synthetic data -------------------------------------------

def _sim_table(tmp_path, tag, n, delta, seed):
    path = tmp_path / f"sim_{tag}.csv"
    rc = main(["simulate", "--n", str(n), "--delta", str(delta),
               "--dims", "1", "--seed", str(seed), "--out", str(path)])
    assert rc == 0
    return read_feature_table(path)


def test_separable_simulation_recovers_closed_form_auroc(tmp_path):
    t0 = time.perf_counter()
    ds = _sim_table(tmp_path, "sep", 300, 2.0, 11)
    cfg = PipelineConfig(
        scaler="minmax",
        selection=SelectionConfig(method="none"),
        smote=SmoteConfig(enabled=True, k_neighbors=5),
        ensemble=EnsembleConfig(m=2, inner_folds=3, grid=[
            {"n_trees": 60, "learning_rate": 0.1, "max_leaves": 4,
             "min_samples_leaf": 20},
            {"n_trees": 40, "learning_rate": 0.2, "max_leaves": 4,
             "min_samples_leaf": 20},
        ]),
    )
    result = run_cross_validation(ds, cfg, k=10, seed=0)
    pooled = result.pooled["auroc"]
    bayes = 0.5 * math.erfc(-1.0)  # optimal AUROC at delta 2 on one dimension
    elapsed = time.perf_counter() - t0
    assert abs(pooled - bayes) <= 0.03
    assert elapsed < 30.0
    print(f"PASS separable simulation: pooled auroc {pooled:.4f} vs "
          f"{bayes:.4f} (+-0.03) in {elapsed:.1f}s")


def test_null_simulation_auroc_is_near_chance(tmp_path):
    # CPU time of this process: the work runs in-process on one BLAS thread,
    # so other load on the host cannot push it past the bound
    t0 = time.process_time()
    cfg = PipelineConfig(
        scaler="minmax",
        selection=SelectionConfig(method="none"),
        smote=SmoteConfig(enabled=True, k_neighbors=5),
        ensemble=EnsembleConfig(m=1, inner_folds=3, grid=[
            {"n_trees": 25, "learning_rate": 0.2, "max_leaves": 4,
             "min_samples_leaf": 20},
        ]),
    )
    aurocs = []
    for s in range(20):
        ds = _sim_table(tmp_path, f"null{s}", 500, 0.0, 100 + s)
        aurocs.append(run_cross_validation(ds, cfg, k=10, seed=s).pooled["auroc"])
    elapsed = time.process_time() - t0
    assert all(0.42 <= a <= 0.58 for a in aurocs)
    assert elapsed < 30.0
    print(f"PASS null simulation: auroc range [{min(aurocs):.3f}, "
          f"{max(aurocs):.3f}] within [0.42, 0.58] over 20 seeds "
          f"in {elapsed:.1f}s of CPU")


# --- fast-path / oracle equivalences ---------------------------------------------------

def test_auroc_equals_pairwise_comparison_oracle():
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(120):
        n = int(rng.integers(5, 60))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.random(n), 1)
        pos = scores[labels == 1]
        neg = scores[labels == 0]
        wins = sum(1.0 if p > q else 0.5 if p == q else 0.0
                   for p in pos for q in neg)
        oracle = wins / (pos.size * neg.size)
        worst = max(worst, abs(auroc(scores, labels) - oracle))
    assert worst <= 1e-12
    print(f"PASS auroc oracle: 120 instances, worst gap {worst:.2e} <= 1e-12")


def test_tree_shap_equals_exact_shapley_oracle():
    rng = np.random.default_rng(201)
    worst = 0.0
    instances = 0
    for _ in range(12):
        d = int(rng.integers(2, 11))
        n = 90
        X = rng.normal(size=(n, d))
        logit = 1.2 * X[:, 0] - 0.8 * X[:, d - 1]
        y = (rng.random(n) < sigmoid(logit)).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        model = fit_histgbm(X, y, BoostParams(
            n_trees=int(rng.integers(1, 5)),
            max_leaves=int(rng.integers(3, 9)),
            min_samples_leaf=5, max_bins=16))
        rng.integers(1 << 30)  # unused; keeps the later draws of this stream fixed
        for _ in range(9):
            row = rng.normal(size=d) * 1.5
            fast = tree_shap(model, row)
            slow = exact_shapley_oracle(model, row)
            worst = max(worst, float(np.max(np.abs(fast.phi - slow.phi))))
            instances += 1
    assert instances >= 100
    assert worst <= 1e-9
    print(f"PASS shap oracle: {instances} instances (<=10 features), "
          f"worst gap {worst:.2e} <= 1e-9")


def test_fisher_equals_exact_enumeration_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    checked = 0
    while checked < 110:
        a, b, c, d = (int(v) for v in rng.integers(0, 9, size=4))
        if a + b == 0 or c + d == 0 or a + b + c + d > 30:
            continue
        if a + c == 0 or b + d == 0:
            continue
        r1, r2, c1 = a + b, c + d, a + c
        n = r1 + r2

        def prob(k):
            return Fraction(math.comb(r1, k) * math.comb(r2, c1 - k),
                            math.comb(n, c1))

        p_obs = prob(a)
        total = Fraction(0)
        for k in range(max(0, c1 - r2), min(r1, c1) + 1):
            pk = prob(k)
            if pk <= p_obs:
                total += pk
        worst = max(worst, abs(fisher_exact(a, b, c, d).p_value
                               - float(total)))
        checked += 1
    assert worst <= 1e-10
    print(f"PASS fisher oracle: {checked} tables (N <= 30), "
          f"worst gap {worst:.2e} <= 1e-10")


def test_smote_synthetics_lie_on_true_neighbor_segments():
    rng = np.random.default_rng(203)
    verified = 0
    for trial in range(12):
        n_min = int(rng.integers(5, 14))
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, 5))
        minority = rng.normal(size=(n_min, d))
        majority_count = n_min + int(rng.integers(5, 15))
        synth = smote_oversample(minority, majority_count, k_neighbors=k,
                                 seed=trial)
        assert synth.shape == (majority_count - n_min, d)
        k_eff = min(k, n_min - 1)
        # exhaustive neighbor lists, ties broken by row index
        neighbor_sets = []
        for i in range(n_min):
            dists = np.sum((minority - minority[i]) ** 2, axis=1)
            order = sorted((dists[j], j) for j in range(n_min) if j != i)
            neighbor_sets.append([j for _, j in order[:k_eff]])
        for s in synth:
            on_segment = False
            for i in range(n_min):
                for j in neighbor_sets[i]:
                    seg = minority[j] - minority[i]
                    rel = s - minority[i]
                    denom = float(seg @ seg)
                    if denom == 0.0:
                        if np.allclose(rel, 0.0, atol=1e-9):
                            on_segment = True
                        continue
                    u = float(rel @ seg) / denom
                    if -1e-12 <= u <= 1.0 + 1e-12 and \
                            np.linalg.norm(rel - u * seg) <= 1e-9:
                        on_segment = True
                        break
                if on_segment:
                    break
            assert on_segment
            verified += 1
    assert verified >= 100
    print(f"PASS smote oracle: {verified} synthetic rows all on true "
          f"k-nearest-neighbor segments")


def test_boosted_prediction_equals_naive_tree_walk():
    rng = np.random.default_rng(204)
    worst = 0.0
    rows = 0
    for trial in range(3):
        d = 4 + trial
        X = rng.normal(size=(150, d))
        y = (rng.random(150) < sigmoid(X[:, 0] - 0.5 * X[:, 1])).astype(float)
        model = fit_histgbm(X, y, BoostParams(
            n_trees=10, max_leaves=8, min_samples_leaf=4, max_bins=32))
        X_test = rng.normal(size=(40, d)) * 1.4
        binned = bin_matrix(model.mapper, X_test).astype(np.int64)
        fast = predict_raw(model, X_test)
        for i in range(40):
            total = model.base_score
            for tree in model.trees:
                node = 0
                while tree.feature[node] >= 0:
                    f = tree.feature[node]
                    node = (tree.left[node]
                            if binned[i, f] <= tree.split_bin[node]
                            else tree.right[node])
                total += model.params.learning_rate * tree.value[node]
            worst = max(worst, abs(fast[i] - total))
            rows += 1
    assert rows >= 100
    assert worst <= 1e-12
    print(f"PASS boosting walk oracle: {rows} rows, worst gap "
          f"{worst:.2e} <= 1e-12")


def _model_json(model) -> str:
    return json.dumps(model.to_dict(), sort_keys=True)


def test_memoized_fits_equal_independent_fits():
    """Fits through one shared memo, in random order, serialize exactly as
    independent fits: a model is reused only under caps it provably serves."""
    rng = np.random.default_rng(211)
    jobs = []
    for t in range(100):
        n, d = int(rng.integers(30, 301)), int(rng.integers(1, 13))
        X = rng.normal(size=(n, d))
        if t % 2:
            X = np.round(X, 1)  # ties
        y = (rng.random(n) < sigmoid(1.5 * X[:, 0])).astype(float)
        y[:2] = (0.0, 1.0)
        shared = {"n_trees": int(rng.integers(1, 6)),
                  "max_bins": int(rng.integers(2, 256))}
        leaf_minima = rng.choice(np.arange(1, 61), size=2, replace=False)
        for lr in rng.uniform(0.05, 1.0, size=2):
            for leaves in (2, 3, 7, 15, 31):
                for msl in leaf_minima:
                    jobs.append((X, y, BoostParams(
                        learning_rate=float(lr), max_leaves=leaves,
                        min_samples_leaf=int(msl), **shared)))
    memo = {}
    for i in rng.permutation(len(jobs)):
        X, y, params = jobs[i]
        assert (_model_json(fit_histgbm(X, y, params, memo=memo))
                == _model_json(fit_histgbm(X, y, params))), params
    grown = sum(len(v) for v in memo.values() if isinstance(v, list))  # not codes
    assert grown < len(jobs)  # some fits were reused

    # one memo, other data: each call gets its own model; 2X + 1 bins like X,
    # so it may reuse X's trees but must carry its own thresholds
    X, y, params = jobs[0]
    memo = {}
    fit_histgbm(X, y, params, memo=memo)
    for X2, y2 in ((X, 1.0 - y), (X[::-1] + 1.0, y), (2.0 * X + 1.0, y)):
        assert (_model_json(fit_histgbm(X2, y2, params, memo=memo))
                == _model_json(fit_histgbm(X2, y2, params)))
    print(f"PASS memoized booster oracle: {len(jobs)} fits over 100 tables, "
          f"{grown} grown, every model identical to an independent fit")


def _jacobi_eigh(A, sweeps=60):
    """Eigenvalues, descending, and eigenvectors of a symmetric matrix by
    cyclic Jacobi rotations, independent of the LAPACK solver behind
    ``pca_project``'s ``np.linalg.eigh``."""
    A = A.copy()
    d = A.shape[0]
    V = np.eye(d)
    for _ in range(sweeps):
        off = 0.0
        for p in range(d - 1):
            for q in range(p + 1, d):
                off = max(off, abs(A[p, q]))
                if abs(A[p, q]) < 1e-14:
                    continue
                theta = 0.5 * math.atan2(2.0 * A[p, q], A[p, p] - A[q, q])
                c, s = math.cos(theta), math.sin(theta)
                R = np.eye(d)
                R[p, p] = R[q, q] = c
                R[p, q] = -s
                R[q, p] = s
                A = R.T @ A @ R
                V = V @ R
        if off < 1e-14:
            break
    lams = np.diag(A)
    order = np.argsort(-lams)
    return lams[order], V[:, order]


def test_pca_matches_jacobi_eigensolver():
    rng = np.random.default_rng(205)
    compared = 0
    worst_lam = 0.0
    worst_align = 0.0
    for _ in range(600):
        if compared >= 100:
            break
        n = int(rng.integers(25, 70))
        d = int(rng.integers(3, 8))
        X = rng.normal(size=(n, d)) @ rng.normal(size=(d, d))
        Z = (X - X.mean(axis=0)) / X.std(axis=0)
        lams, vecs = _jacobi_eigh(Z.T @ Z / n)
        if lams[0] - lams[1] < 0.05 or lams[1] - lams[2] < 0.05:
            continue
        proj = pca_project(X)
        got = proj.explained * d
        worst_lam = max(worst_lam, abs(got[0] - lams[0]),
                        abs(got[1] - lams[1]))
        for j in (0, 1):
            gap = 1.0 - abs(float(proj.components[:, j] @ vecs[:, j]))
            worst_align = max(worst_align, gap)
        compared += 1
    assert compared >= 100
    assert worst_lam <= 1e-8
    assert worst_align <= 1e-8
    print(f"PASS pca oracle: {compared} instances, eigenvalue gap "
          f"{worst_lam:.2e}, alignment gap {worst_align:.2e} <= 1e-8")


# Bulk csv readers replayed against cell-by-cell references.  The references
# share nothing with the package but its exception classes and column names:
# they find columns by name, skip blank lines, and report the first bad cell
# in row order.

_LANDMARK_NAMES = ["frame"] + [f"p{i:03d}_{ax}" for i in range(N_POINTS)
                               for ax in ("x", "y", "z")]


def _csv_data(path):
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if any(c.strip() for c in row)]
    if len(rows) < 2:
        raise EmptyFile(path)
    return [h.strip() for h in rows[0]], rows[1:]


def _checked_float(text, r, name):
    try:
        v = float(text)
    except ValueError:
        raise NonNumericCell(r, name) from None
    if not math.isfinite(v):
        raise OutOfRange(r, name, v)
    return v


def _reference_landmarks(path):
    header, data = _csv_data(path)
    where = {h: i for i, h in enumerate(header)}
    for name in _LANDMARK_NAMES:
        if name not in where:
            raise MissingColumn(name)
    frames = []
    for r, row in enumerate(data):
        if len(row) != len(header):
            have = sum(where[nm] < len(row) for nm in _LANDMARK_NAMES[1:])
            raise RaggedFrame(r, have // 3)
        values = [_checked_float(row[where[nm]], r, nm) for nm in _LANDMARK_NAMES]
        frames.append(values)
    frames = sorted(frames, key=lambda values: values[0])  # stable
    return np.array([values[1:] for values in frames]).reshape(-1, N_POINTS, 3)


def _reference_table(path):
    header, data = _csv_data(path)
    for name in ("participant_id", "label"):
        if name not in header:
            raise MissingColumn(name)
    where = {h: i for i, h in enumerate(header)}
    feats = [h for h in header if h not in META_COLUMNS]
    pids, labels, X = [], [], []
    demo = {c: [] for c in DEMOGRAPHIC_COLUMNS}
    for r, row in enumerate(data):
        if len(row) > len(header):
            raise WideRow(r, len(row), len(header))
        for name in ("participant_id", "label"):
            if where[name] >= len(row):
                raise MissingCell(r, name)
        pids.append(row[where["participant_id"]])
        label = _checked_float(row[where["label"]], r, "label")
        if label not in (0.0, 1.0):
            raise OutOfRange(r, "label", label)
        labels.append(int(label))
        for c in DEMOGRAPHIC_COLUMNS:
            text = row[where[c]] if c in where and where[c] < len(row) else ""
            if text == "":
                demo[c].append(None)
            elif c in ("age", "disease_duration"):
                demo[c].append(_checked_float(text, r, c))
            else:
                demo[c].append(text)
        values = []
        for name in feats:
            if where[name] >= len(row):
                raise MissingCell(r, name)
            values.append(_checked_float(row[where[name]], r, name))
        X.append(values)
    return feats, np.array(X).reshape(len(data), len(feats)), labels, pids, demo


def _outcome(fn, path):
    """("ok", result) or (exception type, the attributes that locate it)."""
    try:
        return "ok", fn(path)
    except (NonNumericCell, OutOfRange, MissingCell) as exc:
        return type(exc), (exc.row, exc.col)
    except RaggedFrame as exc:
        return type(exc), (exc.frame_idx, exc.point_count)
    except WideRow as exc:
        return type(exc), (exc.row, exc.cells)
    except MissingColumn as exc:
        return type(exc), (exc.name,)
    except DuplicateEntry as exc:
        return type(exc), (exc.key,)
    except EmptyFile as exc:
        return type(exc), ()


def _cell_texts(values, rng):
    """``repr`` of each value as a writer might spell it: padded, signed,
    with ``_`` between digits, or plain."""
    out = []
    for v, kind, u in zip(values, rng.integers(6, size=len(values)),
                          rng.random(len(values))):
        text = repr(float(v))
        if kind == 1:
            text = " " + text + "  "
        elif kind == 2 and not text.startswith("-"):
            text = "+" + text
        elif kind == 3:
            digits = [i for i in range(1, len(text))
                      if text[i - 1].isdigit() and text[i].isdigit()]
            if digits:
                i = digits[int(u * len(digits))]
                text = text[:i] + "_" + text[i:]
        out.append(text)
    return out


def _write_messy_csv(path, rows, rng, quote_rate=0.1):
    """Quote some cells and put blank and whitespace-only lines between rows."""
    lines = []
    for row in rows:
        while rng.random() < 0.2:
            lines.append(["", "   ", ",  ,", "\t"][int(rng.integers(4))])
        quote = rng.random(len(row)) < quote_rate
        lines.append(",".join(f'"{c}"' if q else c for c, q in zip(row, quote)))
    path.write_text("\n".join(lines) + "\n")


def _corrupt(header, data, needed, rng, bad_values):
    """Break one or two cells, rows or columns of a parsed csv in place."""
    for _ in range(int(rng.integers(1, 3))):
        kind = ("cell", "short", "long", "column", "nonfinite")[int(rng.integers(5))]
        r = int(rng.integers(len(data)))
        name = needed[int(rng.integers(len(needed)))]
        if name not in header:
            continue
        if kind == "column":
            drop = header.index(name)
            for row in [header] + data:
                if drop < len(row):
                    del row[drop]
        elif kind == "short":
            if len(data[r]) > 1:  # an earlier cut may have left one cell
                del data[r][int(rng.integers(1, len(data[r]))):]
        elif kind == "long":
            data[r].append("0.5")
        elif header.index(name) < len(data[r]):
                pool = bad_values if kind == "cell" else ("nan", "inf", " -inf", "NaN")
                data[r][header.index(name)] = pool[int(rng.integers(len(pool)))]


def _check_against_reference(fast, slow, path, same):
    got, want = _outcome(fast, path), _outcome(slow, path)
    assert got[0] == want[0], (path.name, got[0], want[0])
    if want[0] == "ok":
        assert same(got[1], want[1]), path.name
    else:
        assert got[1] == want[1], (path.name, got[1], want[1])
    return want[0]


def _same_landmarks(series, ref):
    return series.landmarks.dtype == ref.dtype and np.array_equal(series.landmarks, ref)


def test_landmark_bulk_parse_equals_cell_reference(tmp_path):
    rng = np.random.default_rng(210)
    outcomes = []
    for i in range(120):
        n = int(rng.integers(1, 4))
        frames = rng.permutation(n)
        if n > 1 and rng.random() < 0.3:
            frames[0] = frames[1]  # a repeated frame keeps file order
        header = list(_LANDMARK_NAMES) + ["face_id", "timestamp"][:int(rng.integers(3))]
        rng.shuffle(header)
        data = []
        for f in frames:
            cells = {"frame": str(f) if f < 10 or rng.random() < 0.5 else f"{f // 10}_{f % 10}",
                     "face_id": "face a", "timestamp": f"00:00:{f:02d}"}
            cells.update(zip(_LANDMARK_NAMES[1:],
                             _cell_texts(rng.normal(size=3 * N_POINTS), rng)))
            data.append([cells[h] for h in header])
        path = tmp_path / f"lm{i}.csv"
        _write_messy_csv(path, [header] + data, rng)
        outcomes.append(_check_against_reference(parse_landmark_series,
                                                 _reference_landmarks, path,
                                                 _same_landmarks))
        _corrupt(header, data, _LANDMARK_NAMES, rng, ("oops", "", "1.2.3", "0x1"))
        bad = tmp_path / f"lm{i}_bad.csv"
        _write_messy_csv(bad, [header] + data, rng)
        outcomes.append(_check_against_reference(parse_landmark_series,
                                                 _reference_landmarks, bad,
                                                 _same_landmarks))
    kinds = {k for k in outcomes if k != "ok"}
    assert kinds == {NonNumericCell, OutOfRange, RaggedFrame, MissingColumn}
    print(f"PASS landmark parse oracle: {len(outcomes)} files "
          f"({outcomes.count('ok')} parsed, the rest rejected at the same "
          f"cell as the reference)")


# The landmark reader converts a file with numpy's C parser first and takes the
# ``float()`` passes only for a file that parser refuses.  The next three tests
# replay that split: clean files the C pass must serve alone, files only
# ``float()`` accepts, and bad files that must fail as the reference fails.

class _FallbackUsed(Exception):
    pass


def _plain_texts(values, rng):
    """Spellings numpy's parser accepts: ``repr``, short, exponent, padded
    with blanks and signed."""
    out = []
    for v, kind in zip(values.tolist(), rng.integers(6, size=len(values))):
        text = (repr(v), f"{v:.3g}", f"{v:.6f}", f"{v:e}", repr(v), f"{v:.1f}")[kind]
        if rng.random() < 0.05:
            text = " \t" + text + " "
        elif rng.random() < 0.05 and not text.startswith("-"):
            text = "+" + text
        out.append(text)
    return out


def _landmark_lines(rng, n, extra=()):
    """Header and data lines of a landmark csv: shuffled header, frames out
    of order with one sometimes repeated, coordinates over twelve decades."""
    frames = rng.permutation(n)
    if n > 1 and rng.random() < 0.3:
        frames[0] = frames[1]
    header = list(_LANDMARK_NAMES) + list(extra)
    rng.shuffle(header)
    lines = [header]
    for f in frames:
        values = rng.normal(size=3 * N_POINTS) * 10.0 ** float(rng.integers(-6, 6))
        cells = dict(zip(_LANDMARK_NAMES[1:], _plain_texts(values, rng)))
        cells["frame"] = str(f) if rng.random() < 0.7 else repr(float(f))
        cells["confidence"] = repr(float(rng.random()))
        cells["face_id"] = "face a"
        lines.append([cells[h] for h in header])
    return lines


def _write_lines(path, lines, rng, eol="\n"):
    """Join the cells with commas and put empty lines between some rows."""
    text = []
    for cells in lines:
        text.append(",".join(cells))
        while len(text) > 1 and rng.random() < 0.15:
            text.append("")
    path.write_bytes((eol.join(text) + eol).encode())


def test_landmark_c_pass_alone_serves_clean_files(tmp_path, monkeypatch):
    rng = np.random.default_rng(212)

    def fallback(*args, **kwargs):
        raise _FallbackUsed
    monkeypatch.setattr(ingest, "_cell_pass", fallback)
    served = declined = 0
    for i in range(120):
        lines = _landmark_lines(rng, 1 + i % 4, ["confidence"][:int(rng.integers(2))])
        path = tmp_path / f"clean{i}.csv"
        _write_lines(path, lines, rng, ("\n", "\r\n")[i % 2])
        want = _reference_landmarks(path)
        assert _same_landmarks(parse_landmark_series(path), want), path.name
        served += 1
        # the C pass must decline a non-finite landmark value, and rows as
        # wide as one another but not as wide as the header, though numpy
        # reads both
        if i % 2:
            r = int(rng.integers(1, len(lines)))
            c = lines[0].index(_LANDMARK_NAMES[int(rng.integers(len(_LANDMARK_NAMES)))])
            lines[r][c] = ("nan", "-inf", "1e400")[i % 3]
        elif i % 4:
            lines[0].append("note")
        else:
            for row in lines[1:]:
                row.append("0.5")
        bad = tmp_path / f"declined{i}.csv"
        _write_lines(bad, lines, rng)
        with pytest.raises(_FallbackUsed):
            parse_landmark_series(bad)
        declined += 1
    print(f"PASS landmark C pass: {served} clean files served bit for bit with "
          f"the cell pass disabled, {declined} declined")


def _same_table(ds, ref):
    names, X, labels, pids, demo = ref
    return (ds.feature_names == names and ds.X.dtype == X.dtype
            and np.array_equal(ds.X, X) and ds.y.tolist() == labels
            and ds.participant_ids == pids and ds.demographics == demo)


def _clean_au_lines(rng, expression, n):
    aus = EXPRESSION_AUS[expression]
    header = ["frame"] + [au + s for au in aus for s in ("_r", "_c")]
    header += ["confidence", "face_id"][:int(rng.integers(3))]
    rng.shuffle(header)
    lines = [header]
    for f in rng.permutation(n):
        cells = dict(zip([au + "_r" for au in aus],
                         _plain_texts(rng.uniform(0, 5, size=len(aus)), rng)))
        cells.update({au + "_c": ("0", "1", "1.0")[int(rng.integers(3))] for au in aus})
        cells.update(frame=str(f), confidence=_plain_texts(rng.random(1), rng)[0],
                     face_id="face a")
        lines.append([cells[h] for h in header])
    return lines


def _clean_table_lines(rng, n):
    d = int(rng.integers(0, 6))
    demo = [c for c in DEMOGRAPHIC_COLUMNS if rng.random() < 0.6]
    header = ["participant_id", "label"] + demo + [f"f{j}" for j in range(d)]
    rng.shuffle(header)
    lines = [header]
    for r in range(n):
        cells = {"participant_id": f"p{r:03d}", "label": ("0", "1", "1.0")[r % 3],
                 "cohort": "clinic", "sex": ("female", "male", "")[r % 3],
                 "ethnicity": "group a", "age": ("63", "", "58.5")[r % 3],
                 "disease_duration": _plain_texts(rng.uniform(0, 9, size=1), rng)[0]}
        cells.update(zip([f"f{j}" for j in range(d)],
                         _plain_texts(rng.normal(size=d), rng)))
        lines.append([cells[h] for h in header])
    return lines


def _clean_prediction_lines(rng, n):
    header = ["participant_id", "score"] + ["label", "note"][:int(rng.integers(3))]
    rng.shuffle(header)
    lines = [header]
    for r, score in enumerate(_plain_texts(rng.random(n), rng)):
        cells = {"participant_id": f"p{r:03d}", "score": score, "label": str(r % 2),
                 "note": "case b"}
        lines.append([cells[h] for h in header])
    return lines


def test_c_pass_alone_serves_clean_au_table_and_prediction_files(tmp_path,
                                                                 monkeypatch):
    rng = np.random.default_rng(217)
    cell_pass = ingest._cell_pass

    def fallback(*args, **kwargs):
        raise _FallbackUsed
    monkeypatch.setattr(ingest, "_cell_pass", fallback)
    formats = {
        "au": (lambda p: parse_au_csv(p, "disgust"),
               lambda p: _reference_au(p, "disgust"), _same_au,
               lambda n: _clean_au_lines(rng, "disgust", n),
               ("AU07_r", "5.5"), ("AU09_c", "0.5"), ("confidence", "1.25")),
        "table": (read_feature_table, _reference_table, _same_table,
                  lambda n: _clean_table_lines(rng, n),
                  ("label", "2"), ("label", "-inf"), ("participant_id", '"p,1"')),
        "predictions": (cli._read_predictions, _reference_predictions,
                        _same_predictions, lambda n: _clean_prediction_lines(rng, n),
                        ("score", "nan"), ("score", "1_0"),
                        ("score", '"0.5"')),
    }
    served = declined = 0
    for kind, (read, reference, same, make, *faults) in formats.items():
        for i in range(30):
            lines = make(2 + i % 4)
            path = tmp_path / f"{kind}{i}.csv"
            _write_lines(path, lines, rng, ("\n", "\r\n")[i % 2])
            assert same(read(path), reference(path)), path.name
            served += 1
            # the C pass must decline a cell that fails its column's checks,
            # a quote, and a row wider than the header
            name, text = faults[i % 3]
            if name in lines[0]:
                lines[1 + i % (len(lines) - 1)][lines[0].index(name)] = text
            else:
                lines[-1].append("0.5")
            bad = tmp_path / f"{kind}{i}_declined.csv"
            _write_lines(bad, lines, rng)
            with pytest.raises(_FallbackUsed):
                read(bad)
            declined += 1

    # text cells as csv reads them: padded ids, blank numbers, CRLF endings;
    # the C pass alone must read them as the cell pass alone does
    table = tmp_path / "padded_table.csv"
    table.write_bytes(b"participant_id,label,sex,disease_duration,age,f0\r\n"
                      b"  p001 ,1, female ,,63,0.5\r\n"
                      b"p002,0,,2.5,,-1e-3\r\n"
                      b"\r\n"
                      b" p 003,1,male,, 58 ,+7\r\n")
    preds = tmp_path / "padded_preds.csv"
    preds.write_bytes(b"note,participant_id,score\r\n"
                      b" x ,  p001 ,0.25\r\n"
                      b",p002,1\r\n")
    checks = ((read_feature_table, table, _same_table_reads),
              (cli._read_predictions, preds, _same_predictions))
    bulk_reads = [read(path) for read, path, _ in checks]
    with monkeypatch.context() as m:
        m.setattr(ingest, "_cell_pass", cell_pass)
        m.setattr(ingest, "_bulk_pass", lambda *args: None)
        cell_reads = [read(path) for read, path, _ in checks]
    for (_, path, same), got, want in zip(checks, bulk_reads, cell_reads):
        assert same(got, want), path.name
    assert bulk_reads[0].participant_ids == ["  p001 ", "p002", " p 003"]
    assert bulk_reads[0].demographics["disease_duration"] == [None, 2.5, None]
    print(f"PASS C pass: {served} clean AU, feature-table and predictions files "
          f"served bit for bit with the cell pass disabled, {declined} declined; "
          f"padded text cells read as the cell pass reads them")


def _same_table_reads(ds, ref):
    return _same_table(ds, (ref.feature_names, ref.X, ref.y.tolist(),
                            ref.participant_ids, ref.demographics))


# The C pass converts only the read columns and checks row widths from one
# count of the file's commas.  The next test replays it against the cell pass
# on random formats and random read subsets: each pass alone, with the other
# disabled, must give the same columns, bit for bit.

_TEXTS = ("face a", " padded ", "", "café", "naïve ü", "x-1")


def _random_read_format(rng, i):
    """A spec and a header: number columns (one with a rule), text and blank
    columns and columns the spec does not name, each read or not at random,
    ``n0`` always read and ``n1`` never.  The last header column is ``n1``
    in every third format and an unnamed text column in the next."""
    nums = [f"n{j}" for j in range(int(rng.integers(3, 6)))]
    texts = [f"t{j}" for j in range(int(rng.integers(0, 3)))]
    blanks = [f"b{j}" for j in range(int(rng.integers(0, 3)))]
    extras = [f"x{j}" for j in range(int(rng.integers(1, 3)))]
    rest = i % 3 == 2 and rng.random() < 0.5
    read = {name: bool(rng.random() < 0.5) for name in nums + texts + blanks + extras}
    read.update(n0=True, n1=False)
    spec = CsvSpec(
        tuple(Column(n, rule=(lambda v: v > -1e300) if n == "n2" else None,
                     read=read[n]) for n in nums)
        + tuple(Column(t, number=False, read=read[t]) for t in texts)
        + tuple(Column(b, number=j % 2 == 0, blank=True, read=read[b])
                for j, b in enumerate(blanks)),
        rest=(lambda name: read[name]) if rest else None)
    header = nums + texts + blanks + extras
    rng.shuffle(header)
    last = {0: "n1", 1: extras[0]}.get(i % 3)
    if last:
        header.remove(last)
        header.append(last)

    def row():
        cells = dict(zip(nums, _plain_texts(rng.normal(size=len(nums)), rng)))
        for name in texts + extras:
            cells[name] = _TEXTS[int(rng.integers(len(_TEXTS)))]
        if rest:
            cells.update(zip(extras, _plain_texts(rng.normal(size=len(extras)), rng)))
        for j, b in enumerate(blanks):
            cells[b] = ("", _plain_texts(rng.normal(size=1), rng)[0] if j % 2 == 0
                        else "group é")[int(rng.integers(2))]
        return [cells[h] for h in header]

    lines = [header] + [row() for _ in range(int(rng.integers(1, 7)))]
    return spec, lines


def _write_any_eol(path, lines, rng, eol):
    """Cells joined by commas, ``eol`` between lines, empty lines between some
    rows, and sometimes no line end after the last line."""
    text = []
    for cells in lines:
        text.append(",".join(cells))
        while len(text) > 1 and rng.random() < 0.2:
            text.append("")
    body = eol.join(text) + (eol if rng.random() < 0.7 else "")
    path.write_bytes(body.encode())


def _same_columns(got, want):
    return (got[0] == want[0] and got[1].dtype == want[1].dtype
            and got[1].shape == want[1].shape
            and got[1].tobytes() == want[1].tobytes() and got[2] == want[2])


def test_bulk_pass_alone_equals_cell_pass_alone_on_read_subsets(tmp_path,
                                                                monkeypatch):
    rng = np.random.default_rng(219)
    cell_pass = ingest._cell_pass

    def fallback(*args, **kwargs):
        raise _FallbackUsed

    def bulk_alone(path, spec):
        with monkeypatch.context() as m:
            m.setattr(ingest, "_cell_pass", fallback)
            return read_columns(path, spec)

    def cell_alone(path, spec):
        with monkeypatch.context() as m:
            m.setattr(ingest, "_cell_pass", cell_pass)
            m.setattr(ingest, "_bulk_pass", lambda *args: None)
            return read_columns(path, spec)

    served = declined = 0
    for i in range(90):
        spec, lines = _random_read_format(rng, i)
        header = lines[0]
        eol = ("\n", "\r\n", "\r")[i // 3 % 3]
        path = tmp_path / f"f{i}.csv"
        _write_any_eol(path, lines, rng, eol)
        want = cell_alone(path, spec)
        assert _same_columns(bulk_alone(path, spec), want), path.name
        served += 1

        # an unread cell is not converted, so numpy takes a spelling only
        # float() reads, or a non-finite value, as the cell pass does
        for text in ("1_0", "nan"):
            unread = [list(cells) for cells in lines]
            unread[int(rng.integers(1, len(lines)))][header.index("n1")] = text
            bad = tmp_path / f"f{i}_unread.csv"
            _write_any_eol(bad, unread, rng, eol)
            assert _same_columns(bulk_alone(bad, spec), want), bad.name
            served += 1

        # the bulk pass declines a short or wide row, a short row whose
        # missing comma a wide row makes up, a whitespace-only line, a quote
        # in an unread column, and a read column it cannot convert
        faults = ("short", "wide", "balanced", "whitespace", "quote", "1_0", "nan")
        for fault in faults:
            bad_lines = [list(cells) for cells in lines]
            r = int(rng.integers(1, len(lines)))
            if fault == "short":
                del bad_lines[r][-1]
            elif fault == "balanced":
                del bad_lines[r][-1]
                bad_lines.append(lines[1] + ["0.5"])
            elif fault == "wide":
                bad_lines[r].append("0.5")
            elif fault == "whitespace":
                bad_lines.insert(r, [" \t "])
            elif fault == "quote":
                c = header.index("n1")
                bad_lines[r][c] = f'"{bad_lines[r][c]}"'
            else:
                bad_lines[r][header.index("n0")] = fault
            bad = tmp_path / f"f{i}_{fault}.csv"
            _write_any_eol(bad, bad_lines, rng, eol)
            with pytest.raises(_FallbackUsed):
                bulk_alone(bad, spec)
            declined += 1

    # with no number column read, numpy would take a line of empty cells,
    # which csv skips, for a row: the bulk pass declines such a format
    texts = tmp_path / "texts.csv"
    texts.write_text("t0,t1\na,b\n,\nc,d\n")
    spec = CsvSpec((Column("t0", number=False), Column("t1", number=False, read=False)))
    assert cell_alone(texts, spec)[2] == {"t0": ["a", "c"]}
    with pytest.raises(_FallbackUsed):
        bulk_alone(texts, spec)
    print(f"PASS bulk pass on read subsets: {served} files served as the cell "
          f"pass serves them, {declined} declined")


@pytest.mark.parametrize("variant", [
    "underscore", "fullwidth", "arabic_indic", "whitespace_line", "comma_line",
    "blank_before_header", "blank_line_before_header", "quoted", "text_column",
    "gz_suffix", "xz_suffix"])
def test_landmark_cells_only_float_accepts_match_reference(tmp_path, variant):
    rng = np.random.default_rng(213)
    extra = ["face_id"] if variant == "text_column" else []
    lines = _landmark_lines(rng, 3, extra)
    header = lines[0]
    cell = header.index("p100_y")
    before = ""
    if variant == "underscore":
        lines[2][cell], lines[1][header.index("frame")] = "1_0.2_5", "1_0"
    elif variant == "fullwidth":
        lines[1][cell] = "１.５"
    elif variant == "arabic_indic":
        lines[3][cell] = "-١٢.٥"
    elif variant == "quoted":
        lines[2] = [f'"{c}"' if j % 5 == 0 else c for j, c in enumerate(lines[2])]
    elif variant == "blank_before_header":
        before = "\n"
    elif variant == "blank_line_before_header":
        before = "  \t\n"
    elif variant in ("whitespace_line", "comma_line"):
        lines.insert(2, [" \t "] if variant == "whitespace_line" else [" ", "", "  "])
    # np.loadtxt would decompress a path named like this; the file is plain text
    suffix = {"gz_suffix": ".gz", "xz_suffix": ".xz"}.get(variant, "")
    path = tmp_path / f"{variant}.csv{suffix}"
    path.write_text(before + "\n".join(",".join(cells) for cells in lines) + "\n")
    kind = _check_against_reference(parse_landmark_series, _reference_landmarks,
                                    path, _same_landmarks)
    assert kind == "ok"


@pytest.mark.parametrize("variant", [
    "nan", "inf", "1e400", "nan_frame", "ragged_row", "empty_cell",
    "rows_wider_than_header", "header_wider_than_rows", "separator_padding"])
def test_landmark_bad_files_fail_as_reference(tmp_path, variant):
    rng = np.random.default_rng(214)
    kinds = set()
    for i in range(6):
        lines = _landmark_lines(rng, 4)
        header = lines[0]
        r, c = int(rng.integers(1, 5)), int(rng.integers(len(header)))
        if variant in ("nan", "inf", "1e400"):
            lines[r][c] = {"nan": "NaN", "inf": "-inf", "1e400": "1e400"}[variant]
        elif variant == "nan_frame":
            lines[r][header.index("frame")] = "nan"
        elif variant == "ragged_row":
            del lines[r][int(rng.integers(1, len(header))):]
        elif variant == "empty_cell":
            lines[r][c] = ""
        elif variant == "rows_wider_than_header":
            for row in lines[1:]:
                row.append("0.5")
        elif variant == "header_wider_than_rows":
            header.append("note")
        else:  # numpy takes U+001C..U+001F for padding, float() does not
            lines[r][c] = chr(0x1C + i % 4) + lines[r][c]
        path = tmp_path / f"{variant}{i}.csv"
        _write_lines(path, lines, rng)
        kinds.add(_check_against_reference(parse_landmark_series,
                                           _reference_landmarks, path,
                                           _same_landmarks))
    expected = {"ragged_row": RaggedFrame, "rows_wider_than_header": RaggedFrame,
                "header_wider_than_rows": RaggedFrame, "empty_cell": NonNumericCell,
                "separator_padding": NonNumericCell}.get(variant, OutOfRange)
    assert kinds == {expected}


# With ``points``, the landmark reader converts only ``frame`` and the x/y
# columns of those points, and checks the rest of the header and the width of
# every row as a full read does.  The narrow read is replayed against the full
# read: the same bits where it reads and NaN elsewhere, the same error for a
# bad read cell, row or header, and no error for a bad cell it does not read.

def _raised(read):
    """``(type, message)`` of the error ``read()`` raises, or None."""
    try:
        read()
    except DataError as exc:
        return type(exc), str(exc)
    return None


def test_landmark_narrow_read_equals_full_read(tmp_path):
    rng = np.random.default_rng(218)
    faults = ("read_cell", "frame_cell", "ragged_row", "wider_row", "wider_rows",
              "narrower_rows", "missing_name", "duplicated_name")
    raised = set()
    for i in range(64):
        asked = rng.choice(N_POINTS, size=int(rng.integers(1, 40))).tolist()
        read = sorted(set(asked))
        lines = _landmark_lines(rng, 1 + i % 4, ["confidence", "face_id"][:i % 3])
        header = lines[0]

        def write(path, lines):
            if i % 4 == 3:  # quoted cells and whitespace-only lines: the cell pass
                _write_messy_csv(path, lines, rng)
            else:
                _write_lines(path, lines, rng, ("\n", "\r\n")[i % 2])

        path = tmp_path / f"lm{i}.csv"
        write(path, lines)
        full = parse_landmark_series(path).landmarks
        narrow = parse_landmark_series(path, points=asked).landmarks
        assert narrow.shape == full.shape and narrow.dtype == full.dtype
        assert narrow[:, read, :2].tobytes() == full[:, read, :2].tobytes(), path.name
        unread = np.ones(full.shape, dtype=bool)
        unread[:, read, :2] = False
        assert np.isnan(narrow[unread]).all(), path.name

        # a bad cell in a column the narrow read skips fails only the full read
        skipped = [n for n in _LANDMARK_NAMES[1:]
                   if n.endswith("_z") or int(n[1:4]) not in read]
        name = "p000_z" if i % 2 else skipped[int(rng.integers(len(skipped)))]
        bad_lines = [list(row) for row in lines]
        bad_lines[int(rng.integers(1, len(lines)))][header.index(name)] = (
            "oops", "nan", "", "1e400")[i % 4]
        bad = tmp_path / f"lm{i}_skipped.csv"
        write(bad, bad_lines)
        assert _raised(lambda: parse_landmark_series(bad)) is not None
        got = parse_landmark_series(bad, points=read).landmarks
        assert got.tobytes() == narrow.tobytes(), bad.name

        # a bad read cell, row or header fails both reads with the same error
        fault = faults[i % len(faults)]
        r = int(rng.integers(1, len(lines)))
        if fault == "read_cell":
            p, ax = read[int(rng.integers(len(read)))], "xy"[i % 2]
            lines[r][header.index(f"p{p:03d}_{ax}")] = ("oops", "nan", "-inf", "")[i % 4]
        elif fault == "frame_cell":
            lines[r][header.index("frame")] = ("x1", "inf")[i % 2]
        elif fault == "ragged_row":
            del lines[r][int(rng.integers(1, len(header))):]
        elif fault == "wider_row":
            lines[r].append("0.5")
        elif fault == "wider_rows":
            for row in lines[1:]:
                row.append("0.5")
        elif fault == "narrower_rows":
            header.append("note")
        elif fault == "missing_name":
            drop = header.index(_LANDMARK_NAMES[int(rng.integers(1, len(_LANDMARK_NAMES)))])
            for row in lines:
                del row[drop]
        else:
            j = int(rng.integers(len(header)))
            for row in lines:
                row.append(row[j])
        bad = tmp_path / f"lm{i}_{fault}.csv"
        write(bad, lines)
        want = _raised(lambda: parse_landmark_series(bad))
        assert want is not None, bad.name
        assert _raised(lambda: parse_landmark_series(bad, points=asked)) == want, bad.name
        raised.add(want[0])
    assert raised == {NonNumericCell, OutOfRange, RaggedFrame, MissingColumn,
                      DuplicateEntry}
    print("PASS landmark narrow read: 64 files read bit for bit where read and NaN "
          "elsewhere, 64 bad cells in skipped columns passed over, 64 bad files "
          "rejected with the full read's error")


def test_feature_table_bulk_read_equals_cell_reference(tmp_path):
    rng = np.random.default_rng(211)

    def same(ds, ref):
        names, X, labels, pids, demo = ref
        return (ds.feature_names == names and ds.X.dtype == X.dtype
                and np.array_equal(ds.X, X) and ds.y.tolist() == labels
                and ds.participant_ids == pids and ds.demographics == demo)

    outcomes = []
    for i in range(120):
        n, d = int(rng.integers(1, 8)), int(rng.integers(0, 9))
        feats = [f"f{j}" for j in range(d)]
        demo = [c for c in DEMOGRAPHIC_COLUMNS if rng.random() < 0.6]
        header = ["participant_id", "label"] + demo + feats
        rng.shuffle(header)
        data = []
        for r in range(n):
            cells = {"participant_id": f"p{r:03d}", "label": ("0", "1", "1.0")[r % 3],
                     "cohort": "clinic", "sex": ("female", "male", "")[r % 3],
                     "ethnicity": "group a", "age": ("63", "58.5", "")[r % 3],
                     "disease_duration": _cell_texts([rng.uniform(0, 9)], rng)[0]}
            cells.update(zip(feats, _cell_texts(rng.normal(size=d), rng)))
            data.append([cells[h] for h in header])
        path = tmp_path / f"t{i}.csv"
        _write_messy_csv(path, [header] + data, rng)
        outcomes.append(_check_against_reference(read_feature_table,
                                                 _reference_table, path, same))
        _corrupt(header, data, ["participant_id", "label"] + demo + feats, rng,
                 ("oops", "", "1.2.3", "0x1"))
        bad = tmp_path / f"t{i}_bad.csv"
        _write_messy_csv(bad, [header] + data, rng)
        outcomes.append(_check_against_reference(read_feature_table,
                                                 _reference_table, bad, same))
    kinds = {k for k in outcomes if k != "ok"}
    assert kinds == {NonNumericCell, OutOfRange, MissingCell, MissingColumn, WideRow}
    print(f"PASS feature table oracle: {len(outcomes)} files "
          f"({outcomes.count('ok')} read, the rest rejected at the same "
          f"cell as the reference)")


_AU_LIMITS = {"_r": (0.0, 5.0), "_c": (0.0, 1.0), "confidence": (0.0, 1.0)}


def _reference_au(path, expression):
    header, data = _csv_data(path)
    where = {h: i for i, h in enumerate(header)}
    names = ["frame"] + [au + s for au in EXPRESSION_AUS[expression]
                         for s in ("_r", "_c")]
    for name in names:
        if name not in where:
            raise MissingColumn(name)
    if "confidence" in where:
        names.append("confidence")
    frames = []
    for r, row in enumerate(data):
        if len(row) > len(header):
            raise WideRow(r, len(row), len(header))
        values = []
        for name in names:
            if where[name] >= len(row):
                raise MissingCell(r, name)
            v = _checked_float(row[where[name]], r, name)
            kind = name if name == "confidence" else name[-2:]
            if kind in _AU_LIMITS:
                lo, hi = _AU_LIMITS[kind]
                if not lo <= v <= hi or (kind == "_c" and v not in (lo, hi)):
                    raise OutOfRange(r, name, v)
            values.append(v)
        frames.append(values)
    frames = sorted(frames, key=lambda values: values[0])  # stable
    return {name: np.array([values[j] for values in frames])
            for j, name in enumerate(names)}


def _same_au(series, ref):
    tracks = [(series.au_intensity[au], ref[au + "_r"], np.float64)
              for au in series.au_intensity]
    tracks += [(series.au_activation[au], ref[au + "_c"], np.uint8)
               for au in series.au_activation]
    if "confidence" in ref:
        tracks.append((series.confidence, ref["confidence"], np.float64))
    elif series.confidence is not None:
        return False
    return (series.frame_count == len(ref["frame"])
            and all(got.dtype == dtype and np.array_equal(got, want)
                    for got, want, dtype in tracks))


def _au_texts(names, rng):
    """One row of AU cells: intensities over [0, 5] with both ends, 0/1
    activations in several spellings, a confidence in [0, 1]."""
    cells = {}
    for name in names:
        if name.endswith("_r"):
            v = (0.0, 5.0, float(rng.uniform(0, 5)))[int(rng.integers(3))]
            cells[name] = _cell_texts([v], rng)[0]
        elif name.endswith("_c"):
            cells[name] = ("0", "1", "1.0", " 0", "+1", "0e0")[int(rng.integers(6))]
        elif name == "confidence":
            cells[name] = _cell_texts([rng.random()], rng)[0]
    return cells


def test_au_parse_equals_cell_reference(tmp_path):
    rng = np.random.default_rng(215)
    outcomes = []
    for i in range(120):
        expression = EXPRESSIONS[i % 3]
        aus = EXPRESSION_AUS[expression]
        n = int(rng.integers(1, 6))
        frames = rng.permutation(n)
        if n > 1 and rng.random() < 0.3:
            frames[0] = frames[1]  # a repeated frame keeps file order
        header = ["frame"] + [au + s for au in aus for s in ("_r", "_c")]
        header += ["confidence", "face_id", "AU23_r"][:int(rng.integers(4))]
        rng.shuffle(header)
        data = []
        for f in frames:
            cells = _au_texts(header, rng)
            cells.update({"frame": str(f) if rng.random() < 0.7 else repr(float(f)),
                          "face_id": "face a", "AU23_r": "7.5"})
            data.append([cells[h] for h in header])
        quote_rate = 0.1 if i % 2 else 0.0
        path = tmp_path / f"au{i}.csv"
        _write_messy_csv(path, [header] + data, rng, quote_rate)

        def parse(p):
            return parse_au_csv(p, expression)

        def reference(p):
            return _reference_au(p, expression)
        outcomes.append(_check_against_reference(parse, reference, path, _same_au))
        _corrupt(header, data, [h for h in header if h not in ("face_id", "AU23_r")],
                 rng, ("oops", "", "1.2.3", "0x1", "5.5", "-0.1", "0.5", "3"))
        bad = tmp_path / f"au{i}_bad.csv"
        _write_messy_csv(bad, [header] + data, rng, quote_rate)
        outcomes.append(_check_against_reference(parse, reference, bad, _same_au))
    kinds = {k for k in outcomes if k != "ok"}
    assert kinds == {NonNumericCell, OutOfRange, MissingCell, MissingColumn, WideRow}
    print(f"PASS AU parse oracle: {len(outcomes)} files "
          f"({outcomes.count('ok')} parsed, the rest rejected at the same "
          f"cell as the reference)")


def _reference_predictions(path):
    header, data = _csv_data(path)
    for name in ("participant_id", "score"):
        if name not in header:
            raise MissingColumn(name)
    where = {h: i for i, h in enumerate(header)}
    ids, scores = [], []
    for r, row in enumerate(data):
        if len(row) > len(header):
            raise WideRow(r, len(row), len(header))
        for name in ("participant_id", "score"):
            if where[name] >= len(row):
                raise MissingCell(r, name)
        ids.append(row[where["participant_id"]])
        scores.append(_checked_float(row[where["score"]], r, "score"))
    seen = set()
    for pid in ids:
        if pid in seen:
            raise DuplicateEntry(pid, "predictions row")
        seen.add(pid)
    return ids, np.array(scores)


def _same_predictions(got, ref):
    return (got[0] == ref[0] and got[1].dtype == ref[1].dtype
            and np.array_equal(got[1], ref[1]))


def test_predictions_read_equals_cell_reference(tmp_path):
    # A corrupted copy holds either one repeated id or bad cells with every
    # id distinct, never both: which of two such faults is named first is
    # not part of the contract this oracle pins.
    rng = np.random.default_rng(216)
    outcomes = []
    for i in range(120):
        n = int(rng.integers(1, 8))
        extra = ["label", "fold", "note"][:int(rng.integers(4))]
        header = ["participant_id", "score"] + extra
        rng.shuffle(header)
        data = []
        for r in range(n):
            cells = {"participant_id": (f"p{r:03d}", f"id {r}", f" P-{r} ")[r % 3],
                     "label": str(r % 2), "fold": str(r % 3), "note": "seen twice"}
            score = rng.random()
            score *= 10.0 ** float(rng.integers(-3, 3))
            cells["score"] = _cell_texts([score], rng)[0]
            data.append([cells[h] for h in header])
        quote_rate = 0.1 if i % 2 else 0.0
        path = tmp_path / f"preds{i}.csv"
        _write_messy_csv(path, [header] + data, rng, quote_rate)
        outcomes.append(_check_against_reference(cli._read_predictions,
                                                 _reference_predictions, path,
                                                 _same_predictions))
        if n > 1 and rng.random() < 0.25:
            first, again = sorted(rng.choice(n, size=2, replace=False))
            col = header.index("participant_id")
            data[again][col] = data[first][col]
        else:
            _corrupt(header, data, ["participant_id", "score"], rng,
                     ("oops", "", "1.2.3", "0x1"))
        bad = tmp_path / f"preds{i}_bad.csv"
        _write_messy_csv(bad, [header] + data, rng, quote_rate)
        outcomes.append(_check_against_reference(cli._read_predictions,
                                                 _reference_predictions, bad,
                                                 _same_predictions))
    kinds = {k for k in outcomes if k != "ok"} - {EmptyFile}  # a row cut blank
    assert kinds == {NonNumericCell, OutOfRange, MissingCell, MissingColumn,
                     DuplicateEntry, WideRow}
    print(f"PASS predictions oracle: {len(outcomes)} files "
          f"({outcomes.count('ok')} read, the rest rejected at the same "
          f"cell as the reference)")

# --- numeric invariants ----------------------------------------------------------------

def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(206)
    h = 1e-6
    worst = 0.0
    for _ in range(10):
        n, d = 40, 4
        X = rng.normal(size=(n, d))
        y = rng.integers(0, 2, size=n).astype(float)
        w = rng.normal(size=d)
        b = float(rng.normal())
        lam = float(rng.uniform(0.1, 2.0))
        _, grad_w, grad_b = logistic_objective(w, b, X, y, lam)
        for j in range(d):
            e = np.zeros(d)
            e[j] = h
            hi, _, _ = logistic_objective(w + e, b, X, y, lam)
            lo, _, _ = logistic_objective(w - e, b, X, y, lam)
            fd = (hi - lo) / (2 * h)
            worst = max(worst, abs(fd - grad_w[j]) / max(1.0, abs(fd)))
        hi, _, _ = logistic_objective(w, b + h, X, y, lam)
        lo, _, _ = logistic_objective(w, b - h, X, y, lam)
        fd = (hi - lo) / (2 * h)
        worst = max(worst, abs(fd - grad_b) / max(1.0, abs(fd)))
    assert worst < 1e-5
    print(f"PASS logistic gradient: worst relative error {worst:.2e} < 1e-5")


def test_boosting_train_loss_never_increases():
    rng = np.random.default_rng(207)
    worst = -math.inf
    for trial, (leaves, lr) in enumerate([(4, 0.3), (8, 0.1), (15, 0.05)]):
        X = rng.normal(size=(180, 5))
        y = (rng.random(180) < sigmoid(0.9 * X[:, 0])).astype(float)
        model = fit_histgbm(X, y, BoostParams(
            n_trees=50, learning_rate=lr, max_leaves=leaves,
            min_samples_leaf=8))
        # the training loss after each round, from the model cut to its first
        # k trees
        losses = [log_loss(y, sigmoid(predict_raw(
            BoostedModel(params=model.params, mapper=model.mapper,
                         base_score=model.base_score, trees=model.trees[:k]), X)))
            for k in range(1, 51)]
        worst = max(worst, float(np.max(np.diff(losses))))
    assert worst <= 1e-9
    print(f"PASS boosting loss: max per-round increase {worst:.2e} <= 1e-9")


def test_shap_attributions_reconstruct_predictions():
    rng = np.random.default_rng(208)
    worst = 0.0
    checks = 0
    for d in (3, 8, 20):
        X = rng.normal(size=(150, d))
        y = (rng.random(150) < sigmoid(X[:, 0])).astype(float)
        model = fit_histgbm(X, y, BoostParams(
            n_trees=6, max_leaves=8, min_samples_leaf=5))
        for i in range(40):
            att = tree_shap(model, X[i])
            worst = max(worst, abs(att.base_value + att.phi.sum()
                                   - att.raw_prediction))
            checks += 1
    assert checks >= 100
    assert worst < 1e-9
    print(f"PASS shap additivity: {checks} rows, worst residual "
          f"{worst:.2e} < 1e-9")


# --- structural checks -------------------------------------------------------------------

def test_feature_vector_counts():
    all_names = feature_names()
    assert len(all_names) == 126
    for expr in EXPRESSIONS:
        per = feature_names([expr])
        assert len(per) == 42
        assert sum(1 for nm in all_names if nm.startswith(expr + "_")) == 42
    print("PASS feature counts: 42 per expression, 126 total")


def test_stratified_folds_preserve_minority_ratio():
    y = np.array([1] * 10 + [0] * 90)
    for seed in (0, 7, 123):
        plan = stratified_kfold(y, 10, seed=seed)
        for fold in range(10):
            _, ev = plan.fold_indices(fold)
            assert int(np.sum(y[ev] == 1)) == 1
            assert int(np.sum(y[ev] == 0)) == 9
    print("PASS stratified folds: 10 cases / 90 controls split 10 ways "
          "gives 1 case + 9 controls per fold")


def test_no_leakage_over_fifty_seeded_runs():
    rng = np.random.default_rng(209)
    X = rng.normal(size=(30, 4))
    y = np.array([1] * 10 + [0] * 20)
    X[:, 0] += 1.0 * y
    ds = LabeledDataset(feature_names=[f"f{j}" for j in range(4)], X=X, y=y,
                        participant_ids=[f"p{i:02d}" for i in range(30)])
    cfg = PipelineConfig(
        scaler="minmax",
        selection=SelectionConfig(method="none"),
        smote=SmoteConfig(enabled=True, k_neighbors=2),
        ensemble=EnsembleConfig(m=1, inner_folds=2, grid=[
            {"n_trees": 4, "learning_rate": 0.3, "max_leaves": 3,
             "min_samples_leaf": 3},
        ]),
    )
    rows = {row_identity(ds.participant_ids[i], X[i]) for i in range(30)}
    for seed in range(50):
        result = run_cross_validation(ds, cfg, k=3, seed=seed)
        for rec in result.audit:
            ev, tr = set(rec["eval_ids"]), set(rec["train_ids"])
            assert ev.isdisjoint(tr) and ev | tr == rows
            assert len(rec["eval_ids"]) + len(rec["train_ids"]) == len(rows)
            assert rec["n_synthetic"] > 0  # every fold's training set is oversampled
    print("PASS leakage audit: 50 seeded runs x 3 folds, each fold's evaluation "
          "and training ids disjoint and covering all 30 rows, with synthetic "
          "rows in every fold")


# --- byte-level determinism ---------------------------------------------------------------

def test_byte_identical_outputs_across_runs_and_worker_counts(tmp_path,
                                                              monkeypatch):
    table = tmp_path / "table.csv"
    assert main(["simulate", "--n", "20", "--delta", "1.5", "--dims", "3",
                 "--seed", "6", "--out", str(table)]) == 0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "scaler": "minmax",
        "selection": {"method": "none"},
        "smote": {"enabled": True, "k_neighbors": 3},
        "ensemble": {"m": 1, "inner_folds": 2, "grid": [
            {"n_trees": 8, "learning_rate": 0.2, "max_leaves": 4,
             "min_samples_leaf": 4}]},
    }))

    def run(tag, threads):
        monkeypatch.setenv("HYPOSCREEN_THREADS", threads)
        model = tmp_path / f"model_{tag}.json"
        preds = tmp_path / f"preds_{tag}.csv"
        assert main(["train", "--features", str(table), "--config",
                     str(cfg_path), "--out", str(model), "--seed", "9"]) == 0
        assert main(["predict", "--model", str(model), "--features",
                     str(table), "--out", str(preds)]) == 0
        assert main(["cv", "--features", str(table), "--config",
                     str(cfg_path), "--folds", "3", "--seeds", "2", "--seed", "9",
                     "--out", str(tmp_path / f"cv_{tag}.json"),
                     "--roc-out", str(tmp_path / f"roc_{tag}.csv"),
                     "--roc-svg", str(tmp_path / f"roc_{tag}.svg"),
                     "--audit-log",
                     str(tmp_path / f"audit_{tag}.jsonl")]) == 0
        return [
            model.read_bytes(), preds.read_bytes(),
            (tmp_path / f"cv_{tag}.json").read_bytes(),
            (tmp_path / f"roc_{tag}.csv").read_bytes(),
            (tmp_path / f"roc_{tag}.svg").read_bytes(),
            (tmp_path / f"audit_{tag}.jsonl").read_bytes(),
        ]

    single_a = run("a", "1")
    single_b = run("b", "1")
    pooled = run("c", "4")
    assert single_a == single_b
    assert single_a == pooled
    print("PASS determinism: model, predictions, cv report, roc csv/svg, "
          "audit log byte-identical across repeat runs and 1 vs 4 workers")


def test_byte_identical_outputs_across_blas_thread_counts(tmp_path):
    # At 126 features the logistic Newton solves of lr_coef selection and the
    # PCA of project are wide enough for a threaded BLAS to change last bits;
    # an unset variable means one thread per core, and "2" forces threading
    # on a one-core host too.
    table = tmp_path / "table.csv"
    assert main(["simulate", "--n", "200", "--dims", "126", "--seed", "1",
                 "--out", str(table)]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "selection": {"method": "lr_coef", "n_target": 10},
        "smote": {"enabled": False},
        "ensemble": {"m": 1, "inner_folds": 2, "grid": [
            {"n_trees": 3, "max_leaves": 4, "min_samples_leaf": 10}]}}))
    script = ("import sys\n"
              "from hyposcreen.cli import main\n"
              "train, project = sys.argv[1:8], sys.argv[8:]\n"
              "sys.exit(main(train) or main(project))\n")
    outputs = {}
    for threads in (None, "1", "2"):
        env = {k: v for k, v in os.environ.items() if k not in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = str(ROOT / "src")
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        model, coords = tmp_path / f"model_{threads}.json", tmp_path / f"coords_{threads}.csv"
        proc = subprocess.run(
            [sys.executable, "-c", script,
             "train", "--features", str(table), "--config", str(config),
             "--out", str(model), "project", "--features", str(table),
             "--out", str(coords)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = (model.read_bytes(), coords.read_bytes())
    assert outputs[None] == outputs["1"] == outputs["2"]
    print("PASS determinism: train artifact and project coordinates "
          "byte-identical with OPENBLAS_NUM_THREADS unset, 1 and 2")
