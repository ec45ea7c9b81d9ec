from .logistic import LogisticModel, fit_logistic, logistic_objective, predict_proba_logistic
from .binning import BinMapper, bin_matrix, fit_bins
from .histboost import (
    BoostParams,
    BoostedModel,
    Tree,
    fit_histgbm,
    predict_proba,
    predict_raw,
)

__all__ = [
    "LogisticModel", "fit_logistic", "logistic_objective", "predict_proba_logistic",
    "BinMapper", "bin_matrix", "fit_bins",
    "BoostParams", "BoostedModel", "Tree", "fit_histgbm",
    "predict_raw", "predict_proba",
]
