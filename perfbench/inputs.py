"""Seeded input generators owned by the benchmark.

Nothing here imports ``hyposcreen``: a change to the package (its synthetic
data generator included) cannot change what a workload feeds it.  Every
float is written with ``repr`` so the program reads back exactly the value
the generator holds, and the checks can recompute expected outputs from the
generator's own arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The feature-table layout and featurization spec, restated from the
# package README so the benchmark does not take them from the code under test.
EXPRESSIONS = ("smile", "disgust", "surprise")
EXPRESSION_AUS = {
    "smile": ("AU01", "AU06", "AU12", "AU14", "AU25", "AU26", "AU45"),
    "disgust": ("AU04", "AU07", "AU09", "AU10", "AU25", "AU26", "AU45"),
    "surprise": ("AU01", "AU02", "AU04", "AU05", "AU25", "AU26", "AU45"),
}
ATTRIBUTES = ("right_eye_open", "left_eye_open", "right_brow_raised",
              "left_brow_raised", "mouth_open", "mouth_width", "jaw_open")
STATS = ("mean", "variance", "entropy")
META_COLUMNS = ("participant_id", "label", "cohort", "sex", "age",
                "ethnicity", "disease_duration")
N_POINTS = 478
ETHNICITIES = ("group_a", "group_b", "group_c")


def canonical_names() -> list:
    out = []
    for expr in EXPRESSIONS:
        for au in EXPRESSION_AUS[expr]:
            out.extend(f"{expr}_au_{au}_{s}" for s in STATS)
        for attr in ATTRIBUTES:
            out.extend(f"{expr}_lm_{attr}_{s}" for s in STATS)
    return out


def rng_for(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(seed)] + [ord(c) for c in tag]))


def _fmt(v) -> str:
    if v is None:
        return ""
    return repr(v) if isinstance(v, float) else str(v)


# --- labeled feature tables ----------------------------------------------------

@dataclass
class Table:
    names: list
    X: np.ndarray
    y: np.ndarray
    pids: list
    demographics: dict
    delta: float
    informative: int  # column index carrying the class shift

    def write(self, path) -> int:
        """Feature-table csv (metadata columns, then features); returns bytes."""
        lines = [",".join(list(META_COLUMNS) + self.names)]
        for i in range(self.y.shape[0]):
            meta = [self.pids[i], str(int(self.y[i]))]
            meta += [_fmt(self.demographics[c][i]) for c in META_COLUMNS[2:]]
            lines.append(",".join(meta + [repr(v) for v in self.X[i].tolist()]))
        text = "\n".join(lines) + "\n"
        Path(path).write_text(text)
        return len(text)


def gaussian_table(seed: int, tag: str, n_case: int, n_control: int,
                   delta: float, informative: int, factors: bool = False,
                   prefix: str = "p") -> Table:
    """Unit-variance Gaussian table with one informative column.

    Cases are shifted by ``delta`` on that column only, so the Bayes AUROC
    is Phi(delta / sqrt(2)).  Tables scored by one model share
    ``informative``, which must not be a factor column.  With ``factors``
    two latent factors load on disjoint thirds of the other columns
    (loadings 1.0 and 0.7), which
    gives the correlation matrix a clear leading pair of eigenvalues in the
    full table and in every 42-column expression block.
    """
    rng = rng_for(seed, tag)
    names = canonical_names()
    d = len(names)
    n = n_case + n_control
    y = np.zeros(n, dtype=np.int64)
    y[rng.permutation(n)[:n_case]] = 1
    X = rng.standard_normal((n, d))
    if informative % 3 != 2:
        raise ValueError("the informative column must be one with j % 3 == 2")
    if factors:
        f1, f2 = rng.standard_normal(n), rng.standard_normal(n)
        cols = np.arange(d)
        X[:, cols % 3 == 0] += 1.0 * f1[:, None]
        X[:, cols % 3 == 1] += 0.7 * f2[:, None]
    X[:, informative] += delta * y
    sex = rng.choice(["female", "male"], size=n)
    age = rng.integers(35, 86, size=n)
    eth = rng.choice(ETHNICITIES, size=n)
    duration = np.round(rng.uniform(1.0, 15.0, size=n), 1)
    width = len(str(n - 1))
    return Table(
        names=names, X=X, y=y,
        pids=[f"{prefix}{i:0{width}d}" for i in range(n)],
        demographics={
            "cohort": ["bench"] * n,
            "sex": [str(v) for v in sex],
            "age": [float(v) for v in age],
            "ethnicity": [str(v) for v in eth],
            "disease_duration": [float(duration[i]) if y[i] == 1 else None
                                 for i in range(n)],
        },
        delta=float(delta), informative=int(informative))


# --- recording corpus --------------------------------------------------------------

LOW_CONFIDENCE = 0.75


@dataclass
class Recording:
    """Per-frame arrays in frame order, exactly as written to disk."""

    participant_id: str
    expression: str
    label: int
    intensity: dict          # AU -> (frames,)
    activation: dict         # AU -> (frames,) of 0/1
    confidence: np.ndarray   # (frames,)
    landmarks: np.ndarray    # (frames, 478, 3)
    au_path: str = ""
    landmark_path: str = ""


@dataclass
class Corpus:
    recordings: list = field(default_factory=list)
    manifest_path: str = ""
    bytes_on_disk: int = 0

    def participants(self) -> list:
        seen = []
        for r in self.recordings:
            if r.participant_id not in seen:
                seen.append(r.participant_id)
        return seen


def _landmark_template(rng) -> np.ndarray:
    """A face-sized point cloud with separated iris centres (pixels)."""
    pts = np.column_stack([rng.uniform(150.0, 350.0, N_POINTS),
                           rng.uniform(150.0, 400.0, N_POINTS),
                           rng.uniform(-20.0, 20.0, N_POINTS)])
    pts[468:473, :2] = [200.0, 230.0] + rng.normal(0.0, 3.0, (5, 2))
    pts[473:478, :2] = [300.0, 230.0] + rng.normal(0.0, 3.0, (5, 2))
    return pts


def _write_csv(path, header, columns, order) -> int:
    """Write named columns with the header in ``header`` order and rows in
    ``order``; returns bytes written."""
    text_cols = [columns[h] for h in header]
    lines = [",".join(header)]
    for r in order:
        lines.append(",".join(col[r] for col in text_cols))
    text = "\n".join(lines) + "\n"
    Path(path).write_text(text)
    return len(text)


def write_recording(rec: Recording, directory: Path, rng) -> int:
    """Write the AU and landmark csv of one recording; returns bytes."""
    n = rec.confidence.shape[0]
    frames = [str(f) for f in range(n)]
    aus = EXPRESSION_AUS[rec.expression]
    cols = {"frame": frames,
            "confidence": [repr(v) for v in rec.confidence.tolist()]}
    for au in aus:
        cols[au + "_r"] = [repr(v) for v in rec.intensity[au].tolist()]
        cols[au + "_c"] = [str(v) for v in rec.activation[au].tolist()]
    header = list(cols)
    header = [header[i] for i in rng.permutation(len(header))]
    stem = f"{rec.participant_id}_{rec.expression}"
    rec.au_path = f"{stem}_au.csv"
    written = _write_csv(directory / rec.au_path, header, cols,
                         rng.permutation(n))

    flat = rec.landmarks.reshape(n, -1)
    lm_names = [f"p{i:03d}_{ax}" for i in range(N_POINTS) for ax in "xyz"]
    lm_header = ["frame"] + lm_names
    perm = rng.permutation(len(lm_header))
    lm_header = [lm_header[i] for i in perm]
    # cells are formatted once, in the shuffled column order
    width = len(lm_header)
    cells = list(map(repr, np.concatenate(
        [np.zeros((n, 1)), flat], axis=1)[:, perm].ravel().tolist()))
    frame_pos = int(np.where(perm == 0)[0][0])
    lines = [",".join(lm_header)]
    for r in rng.permutation(n).tolist():
        row = cells[r * width:(r + 1) * width]
        row[frame_pos] = str(r)
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    rec.landmark_path = f"{stem}_landmarks.csv"
    (directory / rec.landmark_path).write_text(text)
    return written + len(text)


def recording_corpus(seed: int, directory, n_participants: int) -> Corpus:
    """``n_participants`` x 3 recordings plus a manifest, written to disk.

    A participant's recordings have 290, 300 and 310 frames in a seeded
    order (about 10 s at 30 fps), so every seed parses the same number of
    cells.  About one AU track in seven has no active frames, about 6% of
    frames fall below the 0.75 confidence threshold, and both header column
    order and frame order are shuffled in every file.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = rng_for(seed, "corpus")
    corpus = Corpus()
    entries = []
    for p in range(n_participants):
        pid = f"r{p:03d}"
        label = p % 2
        template = _landmark_template(rng)
        demo = {"cohort": "bench", "sex": ("female", "male")[int(rng.integers(2))],
                "age": float(rng.integers(35, 86)),
                "ethnicity": ETHNICITIES[int(rng.integers(3))]}
        frame_counts = 300 + rng.permutation([-10, 0, 10])
        for expr, n in zip(EXPRESSIONS, frame_counts.tolist()):
            intensity, activation = {}, {}
            for au in EXPRESSION_AUS[expr]:
                intensity[au] = rng.uniform(0.0, 5.0, n)
                if rng.random() < 1.0 / 7.0:
                    activation[au] = np.zeros(n, dtype=np.int64)
                else:
                    activation[au] = (rng.random(n) < 0.7).astype(np.int64)
            confidence = np.where(rng.random(n) < 0.06,
                                  rng.uniform(0.3, 0.74, n),
                                  rng.uniform(0.75, 1.0, n))
            drift = np.sin(np.linspace(0.0, 3.0, n))[:, None, None]
            landmarks = (template[None, :, :]
                         + 2.0 * drift * rng.standard_normal((1, N_POINTS, 3))
                         + rng.normal(0.0, 0.8, (n, N_POINTS, 3)))
            rec = Recording(participant_id=pid, expression=expr, label=label,
                            intensity=intensity, activation=activation,
                            confidence=confidence, landmarks=landmarks)
            corpus.bytes_on_disk += write_recording(rec, directory, rng)
            corpus.recordings.append(rec)
            entries.append({"participant_id": pid, "expression": expr,
                            "au_path": rec.au_path,
                            "landmark_path": rec.landmark_path,
                            "label": label, **demo})
    manifest = directory / "manifest.json"
    text = json.dumps({"entries": entries}, indent=1)
    manifest.write_text(text)
    corpus.bytes_on_disk += len(text)
    corpus.manifest_path = str(manifest)
    return corpus


# --- pipeline configuration -----------------------------------------------------------

# The packaged default grid: 3 learning rates x 3 leaf budgets x 2 leaf minima.
DEFAULT_GRID = [{"learning_rate": lr, "max_leaves": ml, "min_samples_leaf": msl}
                for lr in (0.05, 0.1, 0.2) for ml in (7, 15, 31) for msl in (10, 20)]


def write_config(path, n_trees: int) -> None:
    """Default pipeline config with only ``n_trees`` per candidate cut."""
    grid = [dict(g, n_trees=n_trees) for g in DEFAULT_GRID]
    Path(path).write_text(json.dumps({"ensemble": {"grid": grid}}, indent=1))
