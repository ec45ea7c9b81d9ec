"""Run one ``hyposcreen`` CLI command with spans around each layer's calls.

Usage::

    python perfbench/trace_cli.py SPANS.json -- <hyposcreen cli arguments>

Each wrapper is installed on the module attribute that the caller looks up
at call time (``ensemble.fit_histgbm``, ``histboost.build_histograms``,
``cli.tree_shap`` ...), so nothing in the package changes.  Spans are held
in memory and written to ``SPANS.json`` when the command returns; the
process exits with the command's own exit code.  A wrapped name that no
longer exists raises ``AttributeError`` before the command starts.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import sys
import threading
import time

import numpy as np

import hyposcreen.cli as cli
import hyposcreen.dataset as dataset
import hyposcreen.ensemble as ensemble
import hyposcreen.evaluate as evaluate
import hyposcreen.explain as explain
import hyposcreen.featurize as featurize
import hyposcreen.ingest as ingest
import hyposcreen.model.histboost as histboost
import hyposcreen.parallel as parallel
import hyposcreen.select as select

N_COORDS = 478 * 3


def _path_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _last_path_arg(args) -> str:
    return [a for a in args if isinstance(a, (str, os.PathLike))][-1]


def _used_landmark_points() -> int:
    doc = featurize.load_index_map()
    used = set(doc["iris"]["right"]) | set(doc["iris"]["left"])
    for a, b in doc["attributes"].values():
        used |= set(a) | set(b)
    return len(used)


class Recorder:
    """Spans as (id, name, start, end, parent, attrs); parents follow the
    innermost open span of the calling thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, module, attr: str, name: str, counters=None) -> None:
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            attrs = counters(args, kwargs, result) if counters else {}
            self.spans.append((sid, name, t0, t1, parent, attrs))
            return result

        setattr(module, attr, traced)


def install(rec: Recorder) -> None:
    used_points = _used_landmark_points()

    def fit_counts(a, k, m):
        return {"trees": len(m.trees), "nodes": sum(t.n_nodes for t in m.trees)}

    def bins_key(a, k, m):
        X = np.ascontiguousarray(a[0], dtype=float)
        return {"key": f"{X.shape}:{hashlib.sha1(X.tobytes()).hexdigest()}"}

    def au_counts(a, k, s):
        per_row = 1 + 2 * len(s.au_intensity) + (s.confidence is not None)
        return {"cells": s.frame_count * per_row, "bytes": _path_size(a[0])}

    def landmark_counts(a, k, s):
        return {"cells": s.frame_count * (1 + N_COORDS),
                "used": s.frame_count * 2 * used_points,
                "bytes": _path_size(a[0])}

    def file_bytes(a, k, r):
        return {"bytes": _path_size(_last_path_arg(a))}

    def map_counts(a, k, r):
        n = len(r)
        return {"items": n, "workers": min(parallel.worker_count(), max(1, n))}

    w = rec.wrap
    for mod in (ensemble, select):
        w(mod, "fit_histgbm", "histboost.fit", fit_counts)
    w(histboost, "build_histograms", "histboost.hist",
      lambda a, k, r: {"rows": int(a[1].size)})
    for mod in (histboost, explain):
        w(mod, "predict_raw", "histboost.predict",
          lambda a, k, r: {"rows": int(r.shape[0])})
    w(histboost, "fit_bins", "binning.fit", bins_key)
    for mod in (histboost, explain):
        w(mod, "bin_matrix", "binning.bin", lambda a, k, r: {"cells": int(r.size)})
    for mod in (select, ensemble):
        w(mod, "fit_logistic", "logistic.fit",
          lambda a, k, m: {"iters": m.n_iterations, "unconverged": int(not m.converged)})
    w(ensemble, "fit_scaler", "preprocess.scaler")
    for mod in (ensemble, cli):
        w(mod, "apply_scaler", "preprocess.scaler")
    w(ensemble, "balance_training_set", "preprocess.smote",
      lambda a, k, r: {"synthetic": int(r[2])})
    for mod in (ensemble, evaluate, select):
        w(mod, "stratified_kfold", "preprocess.folds")
    w(ensemble, "select_features", "select.select",
      lambda a, k, r: {"kept": len(r.selected)})
    # evaluate imports train_pipeline/ensemble_predict from ``ensemble`` at call time
    for mod in (ensemble, cli):
        w(mod, "train_pipeline", "ensemble.train")
        w(mod, "ensemble_predict", "ensemble.predict",
          lambda a, k, r: {"rows": int(r.shape[0])})
    w(ensemble, "fit_stacking_ensemble", "ensemble.stack")
    w(cli, "save_ensemble", "ensemble.artifact_io", file_bytes)
    w(cli, "load_ensemble", "ensemble.artifact_io", file_bytes)
    w(cli, "run_cross_validation", "evaluate.cv")
    for mod in (ensemble, select, evaluate):
        w(mod, "auroc", "evaluate.auroc")
    w(cli, "summarize_bootstrap", "evaluate.summary")
    w(cli, "parallel_map", "parallel.map", map_counts)
    w(ingest, "parse_au_csv", "ingest.au_parse", au_counts)
    w(ingest, "parse_landmark_series", "ingest.landmark_parse", landmark_counts)
    w(dataset, "load_recording", "ingest.load")
    w(dataset, "featurize_recording", "featurize.featurize")
    w(featurize, "attribute_series", "featurize.attribute")
    # cli imports build_feature_table from ``dataset`` at call time
    w(dataset, "build_feature_table", "dataset.build",
      lambda a, k, r: {"rows": r.n_rows})
    w(cli, "read_feature_table", "dataset.read", lambda a, k, r: {"rows": r.n_rows})
    w(cli, "write_feature_table", "dataset.write", lambda a, k, r: {"rows": a[0].n_rows})
    w(cli, "tree_shap", "explain.shap", lambda a, k, r: {"trees": len(a[0].trees)})
    w(cli, "pca_project", "explain.pca")
    w(cli, "silhouette_score", "explain.silhouette")
    w(cli, "build_bias_report", "stats.bias",
      lambda a, k, r: {"comparisons": len(r.comparisons)})
    for name in ("write_json", "write_json_lines", "write_roc_csv", "write_roc_svg",
                 "write_predictions_csv", "write_shap_csv", "write_projection_csv",
                 "write_leaderboard_csv"):
        w(cli, name, "reports.write", file_bytes)
    w(cli, "main", "cli.command")


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        sys.stderr.write("usage: trace_cli.py SPANS.json -- <cli arguments>\n")
        return 2
    out, cli_args = argv[0], argv[2:]
    rec = Recorder()
    install(rec)
    try:
        code = cli.main(cli_args)
    finally:
        with open(out, "w") as fh:
            json.dump({"spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
