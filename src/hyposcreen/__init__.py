"""Facial-expression screening pipeline.

Turns per-frame action-unit and landmark series into participant-level
feature vectors, trains a stacked gradient-boosting screen with leak-free
cross-validation, and reports screening metrics, subgroup bias statistics,
and exact tree attributions.

The names in ``__all__`` are imported from their submodule on first access
(PEP 562), so ``import hyposcreen`` compiles no submodule.
"""

import os
from importlib import import_module

# A threaded BLAS splits sums differently, so wide matrix products, solves
# and eigendecompositions would change in their last bits with the thread
# count.  One thread keeps outputs fixed; it cannot reach a process that
# imported numpy before this package.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    name: module
    for module, names in {
        "artifact": ("TrainedEnsemble", "ensemble_predict", "load_ensemble",
                     "save_ensemble"),
        "config": ("DEFAULT_GRID", "PipelineConfig", "load_config"),
        "dataset": ("LabeledDataset", "build_feature_table", "read_feature_table",
                    "write_feature_table"),
        "ensemble": ("run_cross_validation", "train_pipeline", "verify_no_leakage"),
        "errors": ("DataError", "HyposcreenError", "InternalError", "UsageError"),
        "evaluate": ("auroc", "classification_metrics", "confusion_counts",
                     "percentile_interval", "roc_curve", "summarize_bootstrap"),
        "explain": ("mean_abs_shap", "pca_project", "silhouette_score", "tree_shap"),
        "featurize": ("au_statistics", "feature_names", "featurize_recording",
                      "shannon_entropy"),
        "ingest": ("Manifest", "RecordingSeries", "load_recording", "parse_manifest"),
        "model.histboost": ("BoostParams", "fit_histgbm", "predict_proba"),
        "model.logistic": ("fit_logistic",),
        "preprocess": ("apply_scaler", "balance_training_set", "fit_scaler",
                       "smote_oversample", "stratified_kfold"),
        "select": ("select_features",),
        "stats": ("build_bias_report", "chi_square", "fisher_exact",
                  "normal_approx_ci", "rank_sum", "z_two_proportions"),
        "synth": ("generate_synthetic_dataset",),
    }.items()
    for name in names
}

__all__ = sorted(_SOURCES)


def __getattr__(name):
    if name not in _SOURCES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCES[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
