"""Model layers: histogram binning, the gradient-boosted trees and the
L2-penalized logistic regression, each imported from its own module."""
