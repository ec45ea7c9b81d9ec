"""Correctness checks recomputed apart from the program.

Each check returns a list of failure messages (empty when the outputs are
right).  Expected values come from the generators' own arrays, the
packaged landmark index map, the artifact JSON and closed-form results,
never from stored copies of earlier outputs.  Tolerances are fixed here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

from inputs import (ATTRIBUTES, EXPRESSION_AUS, EXPRESSIONS, LOW_CONFIDENCE, STATS,
                    canonical_names)

FEATURE_RTOL, FEATURE_ATOL = 1e-9, 1e-12   # featurize vs generator arrays
SCORE_ATOL = 1e-9                          # predict vs naive tree walk
SHAP_ATOL = 1e-9                           # base + sum(phi) vs lead margin
PCA_RTOL = 1e-6                            # vs eigh, relative to max |coord|
ROC_ATOL = 1e-12                           # ROC area vs reported AUROC
ENTROPY_BINS = 10
RATES = ("misclassification", "underdiagnosis", "overdiagnosis")


def read_csv(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    return rows[0], rows[1:]


def phi_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def mann_whitney_auroc(scores, labels) -> float:
    s = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos, neg = s[labels == 1], s[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (pos.size * neg.size))


def hanley_mcneil_se(a: float, n_pos: int, n_neg: int) -> float:
    q1, q2 = a / (2.0 - a), 2.0 * a * a / (1.0 + a)
    var = (a * (1 - a) + (n_pos - 1) * (q1 - a * a) + (n_neg - 1) * (q2 - a * a)) \
        / (n_pos * n_neg)
    return math.sqrt(var)


def _close(got: float, want: float, rtol: float, atol: float) -> bool:
    return abs(got - want) <= atol + rtol * abs(want)


# --- cv -----------------------------------------------------------------------

def check_cv(table, out_dir, folds: int, seeds: int) -> list:
    errors = []
    doc = json.loads((out_dir / "cv.json").read_text())
    n = table.y.shape[0]
    if (doc["n_rows"], doc["folds"], doc["seeds"]) != (n, folds, seeds):
        errors.append(f"cv.json shape {doc['n_rows'], doc['folds'], doc['seeds']}")
    pooled = doc["primary"]["pooled"]["auroc"]

    _, roc = read_csv(out_dir / "roc.csv")
    pts = [(float(r[0]), float(r[1])) for r in roc]
    area = sum((x1 - x0) * (y0 + y1) / 2.0 for (x0, y0), (x1, y1) in zip(pts, pts[1:]))
    if pts[0] != (0.0, 0.0) or pts[-1] != (1.0, 1.0):
        errors.append("ROC csv does not run from (0, 0) to (1, 1)")
    if not abs(area - pooled) <= ROC_ATOL:
        errors.append(f"ROC area {area!r} != pooled AUROC {pooled!r}")

    n_pos = int(table.y.sum())
    best = phi_cdf(table.delta / math.sqrt(2.0))
    ceiling = best + 3.0 * hanley_mcneil_se(best, n_pos, n - n_pos)
    if not 0.5 < pooled <= ceiling:
        errors.append(f"pooled AUROC {pooled} outside (0.5, {ceiling:.4f}]")

    # fold structure, from the audit log's row identities
    identity = {}
    for i in range(n):
        digest = hashlib.sha256(np.ascontiguousarray(table.X[i]).tobytes()).hexdigest()[:12]
        identity[f"{table.pids[i]}|{digest}"] = i
    records = [json.loads(line) for line in (out_dir / "audit.jsonl").read_text().splitlines()]
    if len(records) != folds * seeds:
        errors.append(f"audit log has {len(records)} records, want {folds * seeds}")
    per_class = {c: int((table.y == c).sum()) for c in (0, 1)}
    for s in range(seeds):
        seen = np.zeros(n, dtype=np.int64)
        for rec in (r for r in records if r["seed_index"] == s):
            rows = [identity.get(i, -1) for i in rec["eval_ids"]]
            if min(rows, default=0) < 0:
                errors.append(f"seed {s} fold {rec['fold']}: unknown row identity")
                continue
            seen[rows] += 1
            train = sorted(identity.get(i, -1) for i in rec["train_ids"])
            if train != sorted(set(range(n)) - set(rows)):
                errors.append(f"seed {s} fold {rec['fold']}: train rows are not the rest")
            for c, total in per_class.items():
                got = int((table.y[rows] == c).sum())
                if abs(got - total / folds) >= 1.0:
                    errors.append(f"seed {s} fold {rec['fold']}: {got} rows of class {c}, "
                                  f"proportional is {total / folds:.2f}")
        if not np.all(seen == 1):
            errors.append(f"seed {s}: evaluation folds do not cover every row once")
    assign = np.array(doc["primary"]["folds"]["assignments"])
    if assign.shape != (n,) or set(assign.tolist()) != set(range(folds)):
        errors.append("primary fold assignments do not give every row one fold")
    return errors


# --- featurize ----------------------------------------------------------------

def entropy(values, lo: float, hi: float, bins: int = ENTROPY_BINS) -> float:
    """Equal-width histogram entropy on [lo, hi], edge values clipped in."""
    if hi == lo:
        return 0.0
    idx = np.clip(np.floor((values - lo) / (hi - lo) * bins).astype(np.int64), 0, bins - 1)
    p = np.bincount(idx, minlength=bins) / values.size
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def _moments(v):
    mean = math.fsum(v.tolist()) / v.size
    return mean, math.fsum(((v - mean) ** 2).tolist()) / v.size


def expected_features(recs: dict, index_map: dict) -> tuple:
    """Feature name -> value for one participant, and the AU tracks with no
    active frames, from the generator arrays of its three recordings."""
    want, empty = {}, []
    for expr in EXPRESSIONS:
        rec = recs[expr]
        keep = rec.confidence >= LOW_CONFIDENCE
        for au in EXPRESSION_AUS[expr]:
            active = rec.intensity[au][keep][rec.activation[au][keep] == 1]
            key = f"{expr}_au_{au}"
            if active.size == 0:
                empty.append(key)
                stats = (0.0, 0.0, 0.0)
            else:
                stats = (*_moments(active), entropy(active, 0.0, 5.0))
            want.update({f"{key}_{s}": v for s, v in zip(STATS, stats)})
        xy = rec.landmarks[keep][:, :, :2]

        def centroid(ids):
            return xy[:, list(ids), :].mean(axis=1)

        iris = np.linalg.norm(centroid(index_map["iris"]["right"])
                              - centroid(index_map["iris"]["left"]), axis=1)
        for attr in ATTRIBUTES:
            a, b = index_map["attributes"][attr]
            v = np.linalg.norm(centroid(a) - centroid(b), axis=1) / iris
            stats = (*_moments(v), entropy(v, float(v.min()), float(v.max())))
            want.update({f"{expr}_lm_{attr}_{s}": x for s, x in zip(STATS, stats)})
    return want, empty


def check_featurize(corpus, index_map: dict, features_csv) -> list:
    errors = []
    header, rows = read_csv(features_csv)
    names = canonical_names()
    if header[7:] != names:
        errors.append("feature columns are not the canonical 126 in order")
        return errors
    pos = {h: i for i, h in enumerate(header)}
    by_pid = {r[0]: r for r in rows}
    if sorted(by_pid) != sorted(corpus.participants()):
        errors.append("feature table participants differ from the manifest")
        return errors
    grouped = {}
    for rec in corpus.recordings:
        grouped.setdefault(rec.participant_id, {})[rec.expression] = rec
    for pid, recs in grouped.items():
        row = by_pid[pid]
        if int(row[pos["label"]]) != recs["smile"].label:
            errors.append(f"{pid}: label {row[pos['label']]}")
        want, empty = expected_features(recs, index_map)
        for name in names:
            got = float(row[pos[name]])
            if not _close(got, want[name], FEATURE_RTOL, FEATURE_ATOL):
                errors.append(f"{pid} {name}: got {got!r}, want {want[name]!r}")
            if name.endswith("_entropy") and not 0.0 <= got <= math.log(ENTROPY_BINS) + 1e-12:
                errors.append(f"{pid} {name}: entropy {got!r} outside [0, ln 10]")
        for key in empty:
            if any(float(row[pos[f"{key}_{s}"]]) != 0.0 for s in STATS):
                errors.append(f"{pid} {key}: no active frames but statistics are not 0")
    return errors


# --- score_report -------------------------------------------------------------

def _scaled(artifact: dict, table) -> np.ndarray:
    sc = artifact["scaler"]
    cols = [table.names.index(n) for n in artifact["feature_names"]]
    X = table.X[:, cols]
    lo, hi = np.array(sc["lo"]), np.array(sc["hi"])
    if sc["kind"] != "minmax":
        raise ValueError(f"checks cover the minmax scaler, artifact has {sc['kind']}")
    span = hi - lo
    return np.where(span == 0.0, 0.0, (X - lo) / np.where(span == 0.0, 1.0, span))


def margin(model: dict, Xs: np.ndarray) -> np.ndarray:
    """base_score + learning_rate * sum of leaf values, by walking each tree
    level by level; a value equal to a bin threshold goes to the lower bin."""
    binned = np.column_stack([
        (np.array(thr)[None, :] < Xs[:, f][:, None]).sum(axis=1)
        for f, thr in enumerate(model["bins"]["thresholds"])])
    rows = np.arange(Xs.shape[0])
    raw = np.full(Xs.shape[0], float(model["base_score"]))
    lr = model["params"]["learning_rate"]
    for tree in model["trees"]:
        feat, split = np.array(tree["feature"]), np.array(tree["split_bin"])
        left, right = np.array(tree["left"]), np.array(tree["right"])
        node = np.zeros(Xs.shape[0], dtype=np.int64)
        while np.any(feat[node] >= 0):
            inner = feat[node] >= 0
            f = np.where(inner, feat[node], 0)
            go_left = binned[rows, f] <= split[node]
            node = np.where(inner, np.where(go_left, left[node], right[node]), node)
        raw = raw + lr * np.array(tree["value"])[node]
    return raw


def sigmoid(z):
    return np.clip(1.0 / (1.0 + np.exp(-z)), 1e-15, 1.0 - 1e-15)


def shap_base(model: dict) -> float:
    base = float(model["base_score"])
    for tree in model["trees"]:
        feat, value, cover = (np.array(tree[k], dtype=float)
                              for k in ("feature", "value", "cover"))
        leaf = feat < 0
        base += model["params"]["learning_rate"] * float(
            (value[leaf] * cover[leaf]).sum() / cover[0])
    return base


def check_predictions(artifact: dict, table, preds_csv) -> tuple:
    errors = []
    Xs = _scaled(artifact, table)
    base = np.column_stack([sigmoid(margin(m, Xs)) for m in artifact["base_models"]])
    meta = artifact["meta"]
    want = sigmoid(base @ np.array(meta["weights"]) + meta["intercept"])
    header, rows = read_csv(preds_csv)
    if [r[0] for r in rows] != table.pids:
        return ["predictions do not list the table's rows in order"], None
    got = np.array([float(r[header.index("score")]) for r in rows])
    worst = float(np.max(np.abs(got - want)))
    if worst > SCORE_ATOL:
        errors.append(f"scores differ from the tree walk by up to {worst:.3g}")
    predicted = np.array([int(r[header.index("predicted_label")]) for r in rows])
    if not np.array_equal(predicted, (got >= artifact["threshold"]).astype(int)):
        errors.append("predicted_label disagrees with score >= threshold")
    if [int(r[header.index("label")]) for r in rows] != table.y.tolist():
        errors.append("label column differs from the table")
    auc = mann_whitney_auroc(got, table.y)
    if not auc > 0.5:
        errors.append(f"Mann-Whitney AUROC of the scores is {auc:.4f}, not above chance")
    return errors, predicted


def check_shap(artifact: dict, table, shap_csv, n_rows: int) -> list:
    errors = []
    lead = artifact["base_models"][0]
    names = artifact["feature_names"]
    want = margin(lead, _scaled(artifact, table)[:n_rows])
    base = shap_base(lead)
    _, rows = read_csv(shap_csv)
    if len(rows) != n_rows * len(names):
        return [f"shap csv has {len(rows)} rows, want {n_rows * len(names)}"]
    for i in range(n_rows):
        block = rows[i * len(names):(i + 1) * len(names)]
        if [r[0] for r in block] != [table.pids[i]] * len(names) \
                or [r[1] for r in block] != names:
            errors.append(f"shap rows for {table.pids[i]} are out of order")
            continue
        raw = [float(r[3]) for r in block]
        if raw != [float(table.X[i, table.names.index(nm)]) for nm in names]:
            errors.append(f"shap feature values for {table.pids[i]} differ from the table")
        total = base + math.fsum(float(r[2]) for r in block)
        if abs(total - want[i]) > SHAP_ATOL:
            errors.append(f"{table.pids[i]}: base + sum(phi) = {total!r}, "
                          f"margin {float(want[i])!r}")
    return errors


def _rate_counts(mask, labels, predicted) -> dict:
    applicable = {"misclassification": np.ones_like(mask),
                  "underdiagnosis": labels == 1, "overdiagnosis": labels == 0}
    error = {"misclassification": predicted != labels,
             "underdiagnosis": predicted == 0, "overdiagnosis": predicted == 1}
    return {rt: (int((mask & applicable[rt] & error[rt]).sum()),
                 int((mask & applicable[rt]).sum())) for rt in RATES}


def check_bias(report_json, groups: dict, labels, predicted) -> list:
    """``groups``: expected group label -> row mask."""
    errors = []
    report = json.loads(report_json.read_text())
    if sorted(report["groups"]) != sorted(groups):
        return [f"bias groups {sorted(report['groups'])}, want {sorted(groups)}"]
    for name, mask in groups.items():
        entry = report["groups"][name]
        if entry["n"] != int(mask.sum()):
            errors.append(f"bias group {name}: n {entry['n']}, want {int(mask.sum())}")
        for rt, (events, n) in _rate_counts(mask, labels, predicted).items():
            got = entry["rates"][rt]
            if n == 0:
                if got is not None:
                    errors.append(f"bias {name} {rt}: rate reported for an empty group")
            elif got is None or (got["events"], got["n"]) != (events, n):
                errors.append(f"bias {name} {rt}: {got and (got['events'], got['n'])}, "
                              f"want {(events, n)}")
    return errors


def check_projection(table, coords_csv) -> list:
    X = table.X
    sd = X.std(axis=0)
    Z = (X - X.mean(axis=0)) / sd
    w, V = np.linalg.eigh(Z.T @ Z / X.shape[0])
    V = V[:, np.argsort(w)[::-1][:2]]
    for j in range(2):  # documented sign rule: largest |loading| positive
        if V[np.argmax(np.abs(V[:, j])), j] < 0:
            V[:, j] = -V[:, j]
    want = Z @ V
    _, rows = read_csv(coords_csv)
    if [r[0] for r in rows] != table.pids:
        return ["projection rows differ from the table"]
    got = np.array([[float(r[1]), float(r[2])] for r in rows])
    worst = float(np.max(np.abs(got - want)))
    if worst > PCA_RTOL * float(np.max(np.abs(want))):
        return [f"PCA coordinates differ from eigh by up to {worst:.3g}"]
    return []
