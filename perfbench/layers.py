"""Per-layer metrics from the spans written by ``trace_cli.py``.

A layer is a ``hyposcreen`` module.  ``*_s`` is the total time of a layer's
spans and ``*_self_s`` that time minus the time of their child spans.  The
figures describe one repetition of a workload: counts are taken from one
repetition (the run checks they repeat exactly) and times are the median
over the traced repetitions.
"""

from __future__ import annotations

import json
from collections import defaultdict

# name -> (unit, better, how it is computed from the span table)
_S, _N = ("s", "lower"), ("count", "lower")
PER_LAYER = {
    "histboost.fit_calls": (*_N, ("calls", "histboost.fit")),
    "histboost.fit_self_s": (*_S, ("self", "histboost.fit")),
    "histboost.trees": (*_N, ("attr", "histboost.fit", "trees")),
    "histboost.nodes": (*_N, ("attr", "histboost.fit", "nodes")),
    "histboost.hist_calls": (*_N, ("calls", "histboost.hist")),
    "histboost.hist_rows": (*_N, ("attr", "histboost.hist", "rows")),
    "histboost.hist_s": (*_S, ("total", "histboost.hist")),
    "histboost.predict_calls": (*_N, ("calls", "histboost.predict")),
    "histboost.predict_rows": (*_N, ("attr", "histboost.predict", "rows")),
    "histboost.predict_s": (*_S, ("total", "histboost.predict")),
    "binning.fit_calls": (*_N, ("calls", "binning.fit")),
    "binning.fit_distinct_inputs": (*_N, ("distinct", "binning.fit", "key")),
    "binning.fit_s": (*_S, ("total", "binning.fit")),
    "binning.bin_calls": (*_N, ("calls", "binning.bin")),
    "binning.bin_cells": (*_N, ("attr", "binning.bin", "cells")),
    "binning.bin_s": (*_S, ("total", "binning.bin")),
    "logistic.fit_calls": (*_N, ("calls", "logistic.fit")),
    "logistic.fit_s": (*_S, ("total", "logistic.fit")),
    "logistic.newton_iters": (*_N, ("attr", "logistic.fit", "iters")),
    "logistic.unconverged": (*_N, ("attr", "logistic.fit", "unconverged")),
    "preprocess.scaler_s": (*_S, ("total", "preprocess.scaler")),
    "preprocess.smote_s": (*_S, ("total", "preprocess.smote")),
    "preprocess.synthetic_rows": (*_N, ("attr", "preprocess.smote", "synthetic")),
    "preprocess.folds_s": (*_S, ("total", "preprocess.folds")),
    "select.self_s": (*_S, ("self", "select.select")),
    "select.features_kept": ("count", "higher", ("attr", "select.select", "kept")),
    "ensemble.train_calls": (*_N, ("calls", "ensemble.train")),
    "ensemble.train_self_s": (*_S, ("self", "ensemble.train")),
    "ensemble.stack_self_s": (*_S, ("self", "ensemble.stack")),
    "ensemble.predict_calls": (*_N, ("calls", "ensemble.predict")),
    "ensemble.predict_rows": (*_N, ("attr", "ensemble.predict", "rows")),
    "ensemble.predict_self_s": (*_S, ("self", "ensemble.predict")),
    "ensemble.artifact_io_s": (*_S, ("total", "ensemble.artifact_io")),
    "ensemble.artifact_bytes": ("B", "lower", ("attr", "ensemble.artifact_io", "bytes")),
    "evaluate.cv_calls": (*_N, ("calls", "evaluate.cv")),
    "evaluate.cv_self_s": (*_S, ("self", "evaluate.cv")),
    "evaluate.auroc_calls": (*_N, ("calls", "evaluate.auroc")),
    "evaluate.auroc_s": (*_S, ("total", "evaluate.auroc")),
    "evaluate.summary_s": (*_S, ("total", "evaluate.summary")),
    "parallel.map_s": (*_S, ("total", "parallel.map")),
    "parallel.items": ("count", "higher", ("attr", "parallel.map", "items")),
    "parallel.workers": ("count", "higher", ("max", "parallel.map", "workers")),
    "ingest.au_parse_s": (*_S, ("total", "ingest.au_parse")),
    "ingest.landmark_parse_s": (*_S, ("total", "ingest.landmark_parse")),
    "ingest.recordings": (*_N, ("calls", "ingest.load")),
    "ingest.cells_parsed": (*_N, ("attr", ("ingest.au_parse", "ingest.landmark_parse"),
                                   "cells")),
    "ingest.bytes_read": ("B", "lower", ("attr", ("ingest.au_parse", "ingest.landmark_parse"),
                                         "bytes")),
    "ingest.landmark_cells_used_ratio": ("ratio", "higher",
                                         ("ratio", "ingest.landmark_parse", "used", "cells")),
    "featurize.self_s": (*_S, ("self", "featurize.featurize")),
    "featurize.attribute_s": (*_S, ("total", "featurize.attribute")),
    "dataset.build_self_s": (*_S, ("self", "dataset.build")),
    "dataset.read_s": (*_S, ("total", "dataset.read")),
    "dataset.write_s": (*_S, ("total", "dataset.write")),
    "dataset.rows": (*_N, ("attr", ("dataset.read", "dataset.write"), "rows")),
    "explain.shap_rows": (*_N, ("calls", "explain.shap")),
    "explain.shap_s": (*_S, ("total", "explain.shap")),
    "explain.shap_tree_rows": (*_N, ("attr", "explain.shap", "trees")),
    "explain.pca_calls": (*_N, ("calls", "explain.pca")),
    "explain.pca_s": (*_S, ("total", "explain.pca")),
    "explain.silhouette_calls": (*_N, ("calls", "explain.silhouette")),
    "explain.silhouette_s": (*_S, ("total", "explain.silhouette")),
    "stats.bias_calls": (*_N, ("calls", "stats.bias")),
    "stats.bias_s": (*_S, ("total", "stats.bias")),
    "stats.comparisons": ("count", "higher", ("attr", "stats.bias", "comparisons")),
    "reports.write_calls": (*_N, ("calls", "reports.write")),
    "reports.write_s": (*_S, ("total", "reports.write")),
    "reports.bytes_written": ("B", "lower", ("attr", "reports.write", "bytes")),
    "cli.commands": (*_N, ("calls", "cli.command")),
    "cli.self_s": (*_S, ("self", "cli.command")),
}
# wall time of one traced repetition; minus the untraced figure it gives
# the tracing overhead
REP_WALL = "trace.rep_wall_s"


def load_spans(paths) -> dict:
    """Span name -> list of (duration, self time, attrs) over the given
    span files (one file per program process)."""
    table = defaultdict(list)
    for path in paths:
        with open(path) as fh:
            spans = json.load(fh)["spans"]
        child_time = defaultdict(float)
        for _, _, t0, t1, parent, _ in spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        for sid, name, t0, t1, _, attrs in spans:
            table[name].append((t1 - t0, t1 - t0 - child_time[sid], attrs))
    return table


def _names(spec):
    return spec if isinstance(spec, tuple) else (spec,)


def layer_metrics(table) -> dict:
    out = {}
    for metric, (_, _, how) in PER_LAYER.items():
        kind, names = how[0], _names(how[1])
        rows = [r for n in names for r in table.get(n, [])]
        if kind == "calls":
            out[metric] = len(rows)
        elif kind == "total":
            out[metric] = sum(r[0] for r in rows)
        elif kind == "self":
            out[metric] = sum(r[1] for r in rows)
        elif kind == "attr":
            out[metric] = sum(r[2][how[2]] for r in rows)
        elif kind == "max":
            out[metric] = max((r[2][how[2]] for r in rows), default=0)
        elif kind == "distinct":
            out[metric] = len({r[2][how[2]] for r in rows})
        elif kind == "ratio":
            den = sum(r[2][how[3]] for r in rows)
            out[metric] = sum(r[2][how[2]] for r in rows) / den if den else 0.0
    return out


def is_time(metric: str) -> bool:
    return PER_LAYER[metric][0] == "s"
