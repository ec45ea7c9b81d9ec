"""Model layers: quantile binning, the gradient-boosted trees grown by a
presorted scan of each node's rows, and the L2-penalized logistic
regression, each imported from its own module."""
