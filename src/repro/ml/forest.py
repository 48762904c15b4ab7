"""Random-forest regressor (bootstrap-aggregated CART trees).

MOELA's ``Eval`` function is a random forest (Section IV.B): an ensemble of
regression trees fitted on bootstrap resamples with per-split feature
subsampling, predicting the outcome of a local search from a design's
features and weight vector.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import DecisionTreeRegressor, DescentTable
from repro.utils.rng import RngLike, ensure_rng, spawn_rng
from repro.utils.validation import require_count


class RandomForestRegressor:
    """Ensemble of regression trees averaged for prediction.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_depth, min_samples_split, min_samples_leaf:
        Passed to every tree.
    max_features:
        Features considered per split; defaults to ``"sqrt"`` as is standard
        for random forests.
    bootstrap:
        Whether each tree is fitted on a bootstrap resample.
    rng:
        Seed or generator controlling resampling and feature subsampling.
    """

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int = 12,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: "int | float | str | None" = "sqrt",
        bootstrap: bool = True,
        rng: RngLike = None,
    ):
        self.n_estimators = require_count(n_estimators, "n_estimators", 1)
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.rng = ensure_rng(rng)
        self.trees_: list[DecisionTreeRegressor] = []
        self.n_features_: int | None = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        """Fit the forest on features ``X`` (n x d) and targets ``y`` (n,)."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if len(X) != len(y):
            raise ValueError("X and y must have the same number of samples")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_features_ = X.shape[1]
        self.trees_ = []
        tree_rngs = spawn_rng(self.rng, self.n_estimators)
        n_samples = len(X)
        for tree_rng in tree_rngs:
            if self.bootstrap:
                indices = tree_rng.integers(0, n_samples, size=n_samples)
                X_fit, y_fit = X[indices], y[indices]
            else:
                X_fit, y_fit = X, y
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_split=self.min_samples_split,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                rng=tree_rng,
            )
            tree.fit(X_fit, y_fit)
            self.trees_.append(tree)
        self._table = DescentTable(self.trees_)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Average prediction over all trees."""
        if not self.trees_:
            raise RuntimeError("the forest has not been fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, the forest was fitted with {self.n_features_}"
            )
        # Add the trees' predictions one after another, in tree order.
        predictions = np.zeros(len(X), dtype=np.float64)
        for tree_predictions in self._table.leaf_values(X):
            predictions += tree_predictions
        return predictions / len(self.trees_)

    @property
    def is_fitted(self) -> bool:
        """True when :meth:`fit` has been called."""
        return bool(self.trees_)
