"""Shared fixtures and helpers: tiny on-disk recording corpora, dataset
builders, the csv writers of parsed recordings, and the rate form of the
two-proportion z-test."""

import csv
import json

# before numpy: importing the package pins BLAS to one thread, which only
# takes effect in a process that has not loaded numpy yet
import hyposcreen  # noqa: F401  isort: skip
import numpy as np
import pytest

from hyposcreen.errors import DataError
from hyposcreen.ingest import EXPRESSION_AUS, EXPRESSIONS, N_POINTS, RecordingSeries
from hyposcreen.stats import TestResult, z_two_proportions


def au_header(aus, conf=True):
    cols = ["frame"]
    for au in aus:
        cols += [au + "_r", au + "_c"]
    if conf:
        cols.append("confidence")
    return cols


def write_au_file(path, aus, n_frames, rng, conf=True, col_order=None):
    """Random valid AU csv; returns the row dicts for later comparison."""
    header = au_header(aus, conf)
    rows = []
    for f in range(n_frames):
        row = {"frame": f}
        for au in aus:
            row[au + "_r"] = repr(round(float(rng.uniform(0, 5)), 3))
            # bias toward active so statistics rarely degenerate
            row[au + "_c"] = str(int(rng.random() < 0.8))
        if conf:
            row["confidence"] = repr(round(float(rng.uniform(0.5, 1.0)), 3))
        rows.append(row)
    cols = list(header) if col_order is None else list(col_order)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for row in rows:
            w.writerow([row[c] for c in cols])
    return rows


def write_landmark_file(path, n_frames, rng):
    """Random landmark csv with well-separated iris clusters; returns array."""
    pts = rng.normal(size=(n_frames, N_POINTS, 3))
    pts[:, 468:473, 0] += 6.0  # keep the iris centers apart
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["frame"] + [f"p{i:03d}_{ax}" for i in range(N_POINTS)
                                for ax in ("x", "y", "z")])
        for f in range(n_frames):
            w.writerow([f] + [repr(float(v)) for v in pts[f].ravel()])
    return pts


def write_au_csv(series: RecordingSeries, path) -> None:
    """Serialize the AU tracks in canonical column order (round-trips exactly)."""
    aus = sorted(series.au_intensity)
    header = ["frame"] + [au + "_r" for au in aus] + [au + "_c" for au in aus]
    if series.confidence is not None:
        header.append("confidence")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for r in range(series.frame_count):
            row = [r]
            row += [repr(float(series.au_intensity[au][r])) for au in aus]
            row += [int(series.au_activation[au][r]) for au in aus]
            if series.confidence is not None:
                row.append(repr(float(series.confidence[r])))
            w.writerow(row)


def write_landmark_csv(series: RecordingSeries, path) -> None:
    if series.landmarks is None:
        raise DataError("series has no landmarks to serialize")
    flat = series.landmarks.reshape(series.frame_count, -1)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["frame"] + [f"p{i:03d}_{ax}" for i in range(N_POINTS)
                                for ax in ("x", "y", "z")])
        for r in range(series.frame_count):
            w.writerow([r] + [repr(float(v)) for v in flat[r]])


def z_two_proportions_from_rates(rate1: float, n1: float, rate2: float,
                                 n2: float) -> TestResult:
    """``stats.z_two_proportions`` parameterized by observed rates instead of
    counts."""
    for r in (rate1, rate2):
        if not 0.0 <= r <= 1.0:
            raise DataError(f"rate {r} outside [0, 1]")
    return z_two_proportions(rate1 * n1, n1, rate2 * n2, n2)


def build_manifest_corpus(root, participants, n_frames=5, seed=0):
    """Write AU + landmark files and a manifest for the given participants.

    ``participants`` is a list of (pid, label, demographics-dict).
    """
    rng = np.random.default_rng(seed)
    entries = []
    for pid, label, demo in participants:
        for expr in EXPRESSIONS:
            au_path = f"{pid}_{expr}_au.csv"
            lm_path = f"{pid}_{expr}_lm.csv"
            write_au_file(root / au_path, EXPRESSION_AUS[expr], n_frames, rng)
            write_landmark_file(root / lm_path, n_frames, rng)
            entries.append({
                "participant_id": pid,
                "expression": expr,
                "au_path": au_path,
                "landmark_path": lm_path,
                "label": label,
                **demo,
            })
    manifest_path = root / "manifest.json"
    manifest_path.write_text(json.dumps({"entries": entries}, indent=1))
    return manifest_path


@pytest.fixture
def manifest_corpus(tmp_path):
    participants = [
        ("p01", 1, {"sex": "female", "age": 63, "cohort": "clinic",
                    "ethnicity": "group_a", "disease_duration": 4.5}),
        ("p02", 0, {"sex": "male", "age": 58, "cohort": "clinic",
                    "ethnicity": "group_b"}),
        ("p03", 1, {"sex": "male", "age": 71, "cohort": "home"}),
        ("p04", 0, {"sex": "female", "age": 66, "cohort": "home",
                    "ethnicity": "group_a"}),
    ]
    return build_manifest_corpus(tmp_path, participants, n_frames=5, seed=42)
