"""Command-line entry points.

Exit codes: 0 success, 2 usage error, 3 data error, 4 internal error.  Every
failure writes a single-line JSON record to stderr so callers can parse it.
The ``HYPOSCREEN_THREADS`` environment variable sets how many worker threads
run the repeated cross-validation of ``cv`` and ``sweep`` (default 1); all
outputs are byte-identical regardless of its value.  The work holds the
interpreter lock, so more threads make it slower, not faster.

A command imports only the modules it runs: every command loads
``dataset``, ``errors``, ``featurize``, ``ingest``, ``reports`` and
``util``, and the names this module takes from any other module are
imported on first use.  ``featurize`` never loads the model layers, and
``bias`` and ``project`` never load ``artifact`` or ``ensemble``.  ``predict``
and ``explain`` load ``artifact`` and no training module (``ensemble``,
``select``, ``evaluate`` or ``config``).

Of a feature table, ``predict`` and ``explain`` convert only the feature
columns the artifact uses, and ``bias`` none; the other commands convert
every column.  A cell that is not converted is not checked.

``bias`` takes each row's decision from the ``predicted_label`` column that
``predict`` writes at the artifact's threshold; the threshold is stated
nowhere else.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from importlib import import_module

import numpy as np

from . import dataset
from .dataset import CONTINUOUS_DEMOGRAPHICS, read_feature_table, write_feature_table
from .errors import DataError, HyposcreenError, UsageError
from .featurize import feature_names as canonical_feature_names
from .ingest import EXPRESSIONS, Column, CsvSpec, is_binary, parse_manifest, read_columns
from .reports import (
    write_json,
    write_json_lines,
    write_leaderboard_csv,
    write_predictions_csv,
    write_projection_csv,
    write_roc_csv,
    write_roc_svg,
    write_shap_csv,
)
from .util import child_seed, read_json

# Every other name is imported on first access (PEP 562), so a command
# compiles only the modules it runs.  name -> the module it comes from; a
# name equal to its module is the module itself.
_LAZY = {
    name: module
    for module, names in {
        "hashlib": ("hashlib",),
        ".artifact": ("ensemble_predict", "input_columns", "load_ensemble",
                      "save_ensemble"),
        ".config": ("PipelineConfig", "load_config"),
        ".ensemble": ("require_classes", "require_fold_plans", "run_cross_validation",
                      "train_pipeline"),
        ".evaluate": ("summarize_bootstrap",),
        ".explain": ("pca_project", "silhouette_score", "tree_shap"),
        ".parallel": ("parallel_map",),
        ".preprocess": ("apply_scaler",),
        ".stats": ("build_bias_report",),
        ".synth": ("generate_synthetic_dataset",),
    }.items()
    for name in names
}


class _Names:
    """This module's names, read at call time.  The handlers reach the lazy
    names through ``_cli``, never as bare globals: a global lookup does not
    consult the module's ``__getattr__``, and a wrapper set on the module (a
    tracer, a test spy) must intercept the call.  It reads ``globals()``
    rather than ``sys.modules[__name__]``, which under ``python -m cProfile
    -m`` is not this module."""

    def __getattr__(self, name):
        namespace = globals()
        return namespace[name] if name in namespace else __getattr__(name)


_cli = _Names()


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    source = import_module(_LAZY[name], __package__)
    value = source if _LAZY[name] == name else getattr(source, name)
    # Bind what the source module defines, as an import-time binding would:
    # a wrapper set on the source attribute since then (a tracer's span over
    # ``ensemble.train_pipeline``) serves that module's callers, and wrapping
    # it again here would count each call twice.
    while hasattr(value, "__wrapped__"):
        value = value.__wrapped__
    globals()[name] = value
    return value


EXPRESSION_SUBSETS = (
    ("smile",), ("disgust",), ("surprise",),
    ("smile", "disgust"), ("smile", "surprise"), ("disgust", "surprise"),
    ("smile", "disgust", "surprise"),
)


def _emit_error(kind: str, message) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": str(message)},
                                sort_keys=True) + "\n")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("UsageError", message)
        raise SystemExit(2)


# --- shared helpers --------------------------------------------------------------

def _expression_columns(feature_cols) -> dict:
    """Map expression -> its columns, for tables with canonical names."""
    out = {}
    for expr in EXPRESSIONS:
        cols = [c for c in feature_cols if c.startswith(expr + "_")]
        if cols:
            out[expr] = cols
    return out


def _apply_expression_filter(ds, config: PipelineConfig):
    """Reduce a canonical table to the configured expressions.  A table
    without canonical names passes through untouched when all three are
    configured; with fewer, there is nothing to subset, and it raises."""
    by_expr = _expression_columns(ds.feature_names)
    if not by_expr:
        if set(config.expressions) != set(EXPRESSIONS):
            raise DataError(f"expressions {config.expressions} select columns by "
                            f"their expression prefix, but no feature column of "
                            f"the table starts with one of {list(EXPRESSIONS)}")
        return ds
    wanted = canonical_feature_names(config.expressions)
    missing = [c for c in wanted if c not in ds.feature_names]
    if missing:
        raise DataError(f"table lacks expected feature columns {missing[:3]}...")
    return ds.column_subset(wanted)


_PREDICTIONS_SPEC = CsvSpec((
    Column("participant_id", number=False, unique="predictions row"),
    Column("score"),
    Column("predicted_label", rule=is_binary)))


def _read_predictions(path):
    """Participant ids, each listed once, finite scores, and the 0/1
    ``predicted_label`` column of a predictions csv."""
    _, block, cells = read_columns(path, _PREDICTIONS_SPEC)
    return cells["participant_id"], block[:, 0], block[:, 1]


def _parse_float_list(text: str) -> list:
    items = text.split(",")
    if any(v.strip() == "" for v in items):
        raise UsageError(f"numeric list {text!r} holds an empty item")
    try:
        values = [float(v) for v in items]
    except ValueError:
        raise UsageError(f"cannot parse numeric list {text!r}") from None
    if any(math.isnan(v) for v in values):
        raise UsageError(f"numeric list {text!r} holds a NaN")
    return values


def _check_counts(args, y) -> None:
    """Exit 2 unless ``--folds`` is at least 2 and ``--seeds`` at least 1, and 3
    when a class of ``y`` has fewer rows than ``--folds``, naming no entry."""
    for flag, value, lo in (("--folds", args.folds, 2), ("--seeds", args.seeds, 1)):
        if value < lo:
            raise UsageError(f"{flag} must be in [{lo}, inf), got {value}")
    _cli.require_classes(*np.unique(y, return_counts=True), "--folds", args.folds, "")


def _repeated_cv(ds, cfg: PipelineConfig, args):
    """One full ``--folds`` cross-validation per ``--seeds`` seed, and their
    bootstrap summary."""
    def one(s: int):
        return _cli.run_cross_validation(ds, cfg, k=args.folds,
                                         seed=child_seed(args.seed, "bootstrap", s))

    results = _cli.parallel_map(one, range(args.seeds))
    return results, _cli.summarize_bootstrap([r.pooled for r in results])


def _warn_n_target(cfg: PipelineConfig, ds, where: str) -> None:
    """One stderr line if selection is on and ``selection.n_target`` exceeds
    the feature count of ``ds``; ``where`` starts it."""
    n_target, width = cfg.selection.n_target, len(ds.feature_names)
    if cfg.selection.method != "none" and n_target > width:
        sys.stderr.write(f"warning: {where}selection.n_target={n_target} exceeds the "
                         f"table's {width} features; {cfg.selection.method} selection "
                         f"keeps at most all {width}\n")


def _warn_unconverged(results, where: str) -> None:
    """One stderr line if the meta-layer's fit did not converge in some
    training of the cross-validations ``results``; ``where`` starts it."""
    count = sum(r.unconverged for r in results)
    if count:
        total = sum(r.fold_plan.k for r in results)
        sys.stderr.write(f"warning: {where}the meta-layer's logistic fit did not "
                         f"converge in {count} of {total} trainings over "
                         f"{len(results)} seeds; each keeps its best iterate\n")


# --- subcommand handlers ------------------------------------------------------------

def _cmd_featurize(args) -> int:
    confidence = args.min_confidence
    if confidence is not None and not 0.0 <= confidence <= 1.0:  # also false for nan
        raise UsageError(f"--min-confidence must be a number in [0, 1], got {confidence}")
    manifest = parse_manifest(args.manifest)
    expressions = args.expressions.split(",") if args.expressions is not None else None
    ds = dataset.build_feature_table(manifest, expressions=expressions,
                                     index_map_path=args.index_map,
                                     min_confidence=args.min_confidence)
    write_feature_table(ds, args.out)
    print(f"featurized {ds.n_rows} participants x {len(ds.feature_names)} features"
          f" -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _cli.load_config(args.config)
    ds = _apply_expression_filter(read_feature_table(args.features), cfg)
    _warn_n_target(cfg, ds, "")
    ensemble = _cli.train_pipeline(ds, cfg, seed=args.seed)
    _cli.save_ensemble(ensemble, args.out)
    if not ensemble.meta.converged:
        sys.stderr.write(f"warning: the meta-layer's logistic fit did not converge "
                         f"in {ensemble.meta.n_iterations} Newton steps; the artifact "
                         f"keeps its best iterate\n")
    print(f"trained stacking ensemble: kept {len(ensemble.base_models)} of "
          f"{len(cfg.ensemble.grid)} candidates, "
          f"{len(ensemble.feature_names)} features -> {args.out}")
    return 0


def _cmd_cv(args) -> int:
    cfg = _cli.load_config(args.config)
    ds = _apply_expression_filter(read_feature_table(args.features), cfg)
    _warn_n_target(cfg, ds, "")
    _check_counts(args, ds.y)
    results, summary = _repeated_cv(ds, cfg, args)
    _warn_unconverged(results, "")
    report = {
        "n_rows": ds.n_rows,
        "n_features": len(ds.feature_names),
        "folds": args.folds,
        "seeds": args.seeds,
        "master_seed": args.seed,
        "config": cfg.to_dict(),
        "bootstrap": summary.to_dict(),
        "primary": results[0].report_dict(),
    }
    write_json(report, args.out)
    if args.roc_out:
        write_roc_csv(results[0].roc_points, args.roc_out)
    if args.roc_svg:
        write_roc_svg(results[0].roc_points, args.roc_svg)
    if args.audit_log:
        records = []
        for s, res in enumerate(results):
            for rec in res.audit:
                records.append({"seed_index": s, **rec})
        write_json_lines(records, args.audit_log)
    au = summary.metrics.get("auroc")
    if au:
        print(f"pooled AUROC {au['mean']:.4f} "
              f"[{au['ci_lo']:.4f}, {au['ci_hi']:.4f}] over {args.seeds} seeds")
    return 0


def _cmd_predict(args) -> int:
    ensemble = _cli.load_ensemble(args.model)
    ds = read_feature_table(args.features, features=ensemble.feature_names)
    scores = _cli.ensemble_predict(ensemble, ds.X, ds.feature_names)
    write_predictions_csv(ds.participant_ids, scores, ds.y, args.out,
                          ensemble.threshold)
    print(f"scored {ds.n_rows} rows -> {args.out}")
    return 0


def _cmd_bias(args) -> int:
    ids, _, predicted = _read_predictions(args.preds)
    ds = read_feature_table(args.features, features=())
    index = {pid: i for i, pid in enumerate(ds.participant_ids)}
    rows = []
    for pid in ids:
        if pid not in index:
            raise DataError(f"participant {pid!r} missing from features table")
        rows.append(index[pid])
    labels = ds.y[rows]
    demographics = {k: [v[i] for i in rows] for k, v in ds.demographics.items()}
    if args.group in CONTINUOUS_DEMOGRAPHICS:
        if not args.bins:
            raise UsageError(f"column {args.group!r} is continuous; pass --bins")
    elif args.bins and args.group in demographics:
        raise UsageError(f"column {args.group!r} is categorical; --bins applies "
                         f"only to {', '.join(CONTINUOUS_DEMOGRAPHICS)}")
    bins = _parse_float_list(args.bins) if args.bins else None
    if bins is not None and not (len(bins) >= 2
                                 and all(a < b for a, b in zip(bins, bins[1:]))):
        raise UsageError(f"--bins must hold at least 2 strictly increasing edges, "
                         f"got {args.bins!r}")
    report = _cli.build_bias_report(labels, predicted, demographics, args.group,
                                    bin_edges=bins)
    write_json(report.to_dict(), args.out)
    flagged = sum(1 for c in report.comparisons
                  if c["result"].get("p_value") is not None
                  and c["result"]["p_value"] < 0.05)
    print(f"bias report for {args.group!r}: {len(report.groups)} groups, "
          f"{len(report.comparisons)} comparisons, {flagged} with p < 0.05 "
          f"-> {args.out}")
    return 0


def _cmd_explain(args) -> int:
    if args.max_rows is not None and args.max_rows < 1:
        raise UsageError(f"--max-rows must be at least 1, got {args.max_rows}")
    ensemble = _cli.load_ensemble(args.model)
    ds = read_feature_table(args.features, features=ensemble.feature_names)
    raw = ds.X[:, _cli.input_columns(ensemble, ds.feature_names)]
    scaled = _cli.apply_scaler(ensemble.scaler, raw)
    model = ensemble.base_models[0]  # strongest candidate by inner-CV AUROC
    n_rows = ds.n_rows if args.max_rows is None else min(args.max_rows, ds.n_rows)
    rows = []
    memo = {}  # attributions per tree decision pattern, shared by the rows
    codes = model.bin(scaled[:n_rows])
    for i in range(n_rows):
        attribution = _cli.tree_shap(model, scaled[i], memo, codes[i])
        for j, nm in enumerate(ensemble.feature_names):
            rows.append((ds.participant_ids[i], nm,
                         attribution.phi[j], raw[i, j]))
    write_shap_csv(rows, args.out)
    weights = abs(ensemble.meta.weights)
    share = f"{weights[0] / weights.sum():.1%}" if weights.sum() else "none"
    print(f"explained {n_rows} rows x {len(ensemble.feature_names)} features with "
          f"the lead base model alone, not the ensemble: candidate "
          f"{ensemble.provenance['kept'][0]}, {share} of the meta-layer's "
          f"sum |w| -> {args.out}")
    return 0


def _cmd_project(args) -> int:
    ds = read_feature_table(args.features)
    proj = _cli.pca_project(ds.X)
    write_projection_csv(ds.participant_ids, proj.coords, ds.y, args.out)

    def sil(matrix) -> str:
        try:
            coords = _cli.pca_project(matrix).coords
            return f"{_cli.silhouette_score(coords, ds.y):.4f}"
        except HyposcreenError as exc:
            return f"undefined ({type(exc).__name__})"

    print(f"silhouette all: {sil(ds.X)}")
    for expr, cols in _expression_columns(ds.feature_names).items():
        idx = [ds.feature_names.index(c) for c in cols]
        print(f"silhouette {expr}: {sil(ds.X[:, idx])}")
    print(f"explained variance: "
          f"{', '.join(f'{v:.4f}' for v in proj.explained)} -> {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    if args.subgroup_column is None:
        if args.subgroup_value is not None or args.signal_scale != 1.0:
            raise UsageError("--subgroup-value and --signal-scale plant an effect "
                             "only with --subgroup-column")
    elif args.subgroup_value is None:
        raise UsageError("--subgroup-column needs --subgroup-value")
    ds = _cli.generate_synthetic_dataset(
        n_per_class=args.n, delta=args.delta, dims=args.dims,
        informative_dims=args.informative, seed=args.seed,
        subgroup_column=args.subgroup_column,
        subgroup_value=args.subgroup_value,
        signal_scale=args.signal_scale)
    write_feature_table(ds, args.out)
    print(f"simulated {ds.n_rows} rows x {args.dims} features -> {args.out}")
    return 0


def _config_id(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True).encode()
    return _cli.hashlib.sha256(blob).hexdigest()[:10]


def _merged(base: dict, over: dict) -> dict:
    """``base`` with ``over`` applied: an object merges key by key into the
    object it overrides, and any other value, a list included, replaces."""
    out = dict(base)
    for key, value in over.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            value = _merged(out[key], value)
        out[key] = value
    return out


def _cmd_sweep(args) -> int:
    base = _cli.load_config(args.config)
    if args.preset == "expressions":
        overrides = [{"expressions": list(sub)} for sub in EXPRESSION_SUBSETS]
    else:
        doc = read_json(args.grid, "grid")
        overrides = doc.get("configs") if isinstance(doc, dict) else doc
        if not isinstance(overrides, list):
            raise DataError("grid must be a list of config overrides, "
                            "or an object whose 'configs' is one")
        for i, over in enumerate(overrides):
            if not isinstance(over, dict):
                raise DataError(f"grid entry {i} must be an object, got {over!r}")
        if not overrides:
            raise DataError("grid has no entries")
    ds_full = read_feature_table(args.features)
    _check_counts(args, ds_full.y)

    # every entry is loaded and checked before the first one trains
    runs = []
    for i, over in enumerate(overrides):
        try:
            cfg = _cli.PipelineConfig.from_dict(_merged(base.to_dict(), over))
            ds = _apply_expression_filter(ds_full, cfg)
            _warn_n_target(cfg, ds, f"sweep entry {i}: ")
            _cli.require_fold_plans(ds.y, cfg, args.folds)
        except DataError as exc:
            exc.args = (f"sweep entry {i}: {exc}",)
            raise
        runs.append((over, cfg, ds))
    entries = []
    for i, (over, cfg, ds) in enumerate(runs):
        results, summary = _repeated_cv(ds, cfg, args)
        config_id = _config_id(cfg.to_dict())
        _warn_unconverged(results, f"sweep entry {i} ({config_id}): ")
        au = summary.metrics.get("auroc") or {}
        acc = summary.metrics.get("accuracy") or {}
        entries.append({
            "config_id": config_id,
            "override": json.dumps(over, sort_keys=True, separators=(",", ":")),
            "expressions": "+".join(cfg.expressions),
            "scaler": cfg.scaler,
            "selection": cfg.selection.method,
            "auroc_mean": au.get("mean"),
            "auroc_lo": au.get("ci_lo"),
            "auroc_hi": au.get("ci_hi"),
            "accuracy_mean": acc.get("mean"),
            "folds": args.folds,
            "seeds": args.seeds,
        })
    entries.sort(key=lambda e: (-(e["auroc_mean"] or 0.0), e["config_id"]))
    columns = ["config_id", "override", "expressions", "scaler", "selection",
               "auroc_mean", "auroc_lo", "auroc_hi", "accuracy_mean", "folds", "seeds"]
    write_leaderboard_csv(entries, args.out, columns)
    best = entries[0]
    print(f"best: {best['override']} (config_id {best['config_id']}, "
          f"auroc {best['auroc_mean']:.4f}) -> {args.out}")
    return 0


# --- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="hyposcreen",
                description="Facial-expression screening pipeline")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("featurize", help="manifest -> feature table csv")
    f.add_argument("--manifest", required=True)
    f.add_argument("--out", required=True)
    f.add_argument("--index-map", default=None,
                   help="landmark index map JSON (default: packaged map)")
    f.add_argument("--min-confidence", type=float, default=None,
                   help="drop frames below this confidence")
    f.add_argument("--expressions", default=None,
                   help="comma-separated subset, e.g. smile,disgust")
    f.set_defaults(func=_cmd_featurize)

    t = sub.add_parser("train", help="fit the stacking ensemble")
    t.add_argument("--features", required=True)
    t.add_argument("--config", default=None)
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, default=0)
    t.set_defaults(func=_cmd_train)

    c = sub.add_parser("cv", help="seeded stratified cross-validation")
    c.add_argument("--features", required=True)
    c.add_argument("--config", default=None)
    c.add_argument("--folds", type=int, default=10)
    c.add_argument("--seeds", type=int, default=40,
                   help="re-seeded repetitions of the full CV")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.add_argument("--roc-out", default=None, help="ROC csv path")
    c.add_argument("--roc-svg", default=None, help="ROC svg path")
    c.add_argument("--audit-log", default=None, help="JSON-lines audit path")
    c.set_defaults(func=_cmd_cv)

    pr = sub.add_parser("predict", help="score a feature table")
    pr.add_argument("--model", required=True)
    pr.add_argument("--features", required=True)
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=_cmd_predict)

    b = sub.add_parser("bias", help="subgroup error-rate report")
    b.add_argument("--preds", required=True)
    b.add_argument("--features", required=True)
    b.add_argument("--group", required=True)
    b.add_argument("--out", required=True)
    b.add_argument("--bins", default=None,
                   help="comma-separated edges for continuous columns; a list "
                        "that starts with '-' needs the = form, "
                        "e.g. --bins=-inf,60,inf")
    b.set_defaults(func=_cmd_bias)

    e = sub.add_parser("explain", help="per-row SHAP attributions")
    e.add_argument("--model", required=True)
    e.add_argument("--features", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--max-rows", type=int, default=None)
    e.set_defaults(func=_cmd_explain)

    pj = sub.add_parser("project", help="2-component PCA embedding")
    pj.add_argument("--features", required=True)
    pj.add_argument("--out", required=True)
    pj.set_defaults(func=_cmd_project)

    s = sub.add_parser("simulate", help="synthetic labeled feature table")
    s.add_argument("--n", type=int, required=True, help="rows per class")
    s.add_argument("--delta", type=float, default=1.0)
    s.add_argument("--dims", type=int, default=10)
    s.add_argument("--informative", type=int, default=1)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.add_argument("--subgroup-column", default=None)
    s.add_argument("--subgroup-value", default=None)
    s.add_argument("--signal-scale", type=float, default=1.0)
    s.set_defaults(func=_cmd_simulate)

    w = sub.add_parser("sweep", help="leaderboard over config overrides")
    w.add_argument("--features", required=True)
    w.add_argument("--config", default=None)
    entries = w.add_mutually_exclusive_group(required=True)
    entries.add_argument("--grid", default=None, help="JSON list of overrides")
    entries.add_argument("--preset", choices=["expressions"], default=None)
    w.add_argument("--folds", type=int, default=10)
    w.add_argument("--seeds", type=int, default=40)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--out", required=True)
    w.set_defaults(func=_cmd_sweep)
    return p


def _flag_paths(args, names) -> dict:
    """Flag -> path of the flags ``names`` that ``args`` sets."""
    return {f"--{name.replace('_', '-')}": getattr(args, name)
            for name in names if getattr(args, name, None) is not None}


def _check_outputs(args) -> None:
    """Before any work, raise :class:`UsageError` when an output flag names
    an input file or the file of another output flag, and :class:`DataError`
    when one names a path that cannot be written: a directory, or a file in
    a directory that does not exist.  The message of the latter is the one
    ``open_output`` gives."""
    paths = _flag_paths(args, ("out", "roc_out", "roc_svg", "audit_log"))
    inputs = {os.path.realpath(path): flag for flag, path in _flag_paths(
        args, ("features", "model", "config", "preds", "grid", "manifest",
               "index_map")).items()}
    seen = {}
    for flag, path in paths.items():
        real = os.path.realpath(path)
        if real in inputs:
            raise UsageError(f"{flag} names {path}, the {inputs[real]} input; "
                             f"an output must not overwrite an input")
        first = seen.setdefault(real, flag)
        if first != flag:
            raise UsageError(f"{first} and {flag} both name {path}; "
                             f"each output needs a file of its own")
    for path in paths.values():
        parent = os.path.dirname(path) or "."
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
        else:
            continue
        raise DataError(f"cannot write {path}: {os.strerror(code)}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_outputs(args)
        return args.func(args)
    except UsageError as exc:
        _emit_error("UsageError", exc)
        return 2
    except DataError as exc:
        _emit_error(type(exc).__name__, exc)
        return 3
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        _emit_error("InternalError", f"{type(exc).__name__}: {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
