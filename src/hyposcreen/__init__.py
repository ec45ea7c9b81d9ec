"""Facial-expression screening pipeline.

Turns per-frame action-unit and landmark series into participant-level
feature vectors, trains a stacked gradient-boosting screen with leak-free
cross-validation, and reports screening metrics, subgroup bias statistics,
and exact tree attributions.
"""

import os

# A threaded BLAS splits sums differently, so wide matrix products, solves
# and eigendecompositions would change in their last bits with the thread
# count.  One thread keeps outputs fixed; it cannot reach a process that
# imported numpy before this package.
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

from .config import DEFAULT_GRID, PipelineConfig, load_config, save_config
from .dataset import (
    LabeledDataset,
    build_feature_table,
    read_feature_table,
    write_feature_table,
)
from .ensemble import (
    TrainedEnsemble,
    ensemble_predict,
    load_ensemble,
    save_ensemble,
    train_pipeline,
)
from .errors import DataError, HyposcreenError, InternalError, UsageError
from .evaluate import (
    auroc,
    classification_metrics,
    confusion_counts,
    percentile_interval,
    roc_curve,
    run_cross_validation,
    summarize_bootstrap,
    verify_no_leakage,
)
from .explain import (
    mean_abs_shap,
    pca_project,
    silhouette_score,
    tree_shap,
)
from .featurize import (
    au_statistics,
    feature_names,
    featurize_recording,
    shannon_entropy,
)
from .ingest import Manifest, RecordingSeries, load_recording, parse_manifest
from .model import BoostParams, fit_histgbm, fit_logistic, predict_proba
from .preprocess import (
    apply_scaler,
    balance_training_set,
    fit_scaler,
    smote_oversample,
    stratified_kfold,
)
from .select import select_features
from .stats import (
    build_bias_report,
    chi_square,
    fisher_exact,
    normal_approx_ci,
    spearman,
    z_two_proportions,
)
from .synth import generate_synthetic_dataset

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_GRID",
    "BoostParams",
    "DataError",
    "HyposcreenError",
    "InternalError",
    "LabeledDataset",
    "Manifest",
    "PipelineConfig",
    "RecordingSeries",
    "TrainedEnsemble",
    "UsageError",
    "apply_scaler",
    "au_statistics",
    "auroc",
    "balance_training_set",
    "build_bias_report",
    "build_feature_table",
    "chi_square",
    "classification_metrics",
    "confusion_counts",
    "ensemble_predict",
    "feature_names",
    "featurize_recording",
    "fisher_exact",
    "fit_histgbm",
    "fit_logistic",
    "fit_scaler",
    "generate_synthetic_dataset",
    "load_config",
    "load_ensemble",
    "load_recording",
    "mean_abs_shap",
    "normal_approx_ci",
    "parse_manifest",
    "pca_project",
    "percentile_interval",
    "predict_proba",
    "read_feature_table",
    "roc_curve",
    "run_cross_validation",
    "save_config",
    "save_ensemble",
    "select_features",
    "shannon_entropy",
    "silhouette_score",
    "smote_oversample",
    "spearman",
    "stratified_kfold",
    "summarize_bootstrap",
    "train_pipeline",
    "tree_shap",
    "verify_no_leakage",
    "write_feature_table",
    "z_two_proportions",
]
