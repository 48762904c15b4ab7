"""The per-node-sorting CART tree and its forest, as the presorted ones replaced them.

``repro.ml.tree.DecisionTreeRegressor`` sorts every feature column once per
tree, scores all of a node's candidate features in one 2-D pass and stores
its nodes as flat arrays, and ``repro.ml.forest.RandomForestRegressor``
descends all of its trees at once.  The original classes live on here,
verbatim apart from this docstring, as oracles:
``tests/ml/test_tree_equivalence.py`` checks that both grow the same nodes,
predict the same values and leave the generator in the same state.

A standard variance-reduction regression tree with support for maximum depth,
minimum samples per split/leaf, and per-split random feature subsampling
(needed by the random forest).  Splits are found with a sorted cumulative-sum
scan: each node stably sorts every candidate feature column of its samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import RngLike, ensure_rng, spawn_rng
from repro.utils.validation import require_count


@dataclass
class _Node:
    """A tree node; leaves have ``feature == -1``."""

    feature: int = -1
    threshold: float = 0.0
    value: float = 0.0
    left: "int | None" = None
    right: "int | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


class DecisionTreeRegressor:
    """Regression tree fitted by recursive variance-reduction splitting.

    Parameters
    ----------
    max_depth:
        Maximum depth of the tree (root has depth 0).
    min_samples_split:
        Minimum number of samples required to attempt a split.
    min_samples_leaf:
        Minimum number of samples required in each child.
    max_features:
        Number of features considered per split: ``None`` (all), an int, a
        float fraction, or ``"sqrt"``.
    rng:
        Seed or generator used for feature subsampling.
    """

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_split: int = 4,
        min_samples_leaf: int = 2,
        max_features: "int | float | str | None" = None,
        rng: RngLike = None,
    ):
        self.max_depth = require_count(max_depth, "max_depth", 1)
        self.min_samples_split = require_count(min_samples_split, "min_samples_split", 2)
        self.min_samples_leaf = require_count(min_samples_leaf, "min_samples_leaf", 1)
        self.max_features = max_features
        self.rng = ensure_rng(rng)
        self._nodes: list[_Node] = []
        self.n_features_: int | None = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        """Fit the tree on features ``X`` (n x d) and targets ``y`` (n,)."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2:
            raise ValueError("X must be a 2-D array")
        if len(X) != len(y):
            raise ValueError("X and y must have the same number of samples")
        if len(X) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_features_ = X.shape[1]
        self._nodes = []
        self._grow(X, y, depth=0)
        return self

    def _resolve_max_features(self) -> int:
        total = int(self.n_features_)
        if self.max_features is None:
            return total
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(total)))
        if isinstance(self.max_features, float):
            return max(1, min(total, int(round(self.max_features * total))))
        return max(1, min(total, int(self.max_features)))

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> int:
        node_index = len(self._nodes)
        node = _Node(value=float(y.mean()))
        self._nodes.append(node)

        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or np.allclose(y, y[0])
        ):
            return node_index

        split = self._best_split(X, y)
        if split is None:
            return node_index

        feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node_index

    def _best_split(self, X: np.ndarray, y: np.ndarray) -> "tuple[int, float] | None":
        n_samples = len(y)
        features = np.arange(self.n_features_)
        k = self._resolve_max_features()
        if k < self.n_features_:
            features = self.rng.choice(features, size=k, replace=False)

        parent_sse = float(((y - y.mean()) ** 2).sum())
        best_gain = 1e-12
        best: "tuple[int, float] | None" = None

        for feature in features:
            order = np.argsort(X[:, feature], kind="stable")
            x_sorted = X[order, feature]
            y_sorted = y[order]
            # candidate split positions: between distinct consecutive x values
            distinct = np.nonzero(np.diff(x_sorted) > 0)[0]
            if len(distinct) == 0:
                continue
            cumsum = np.cumsum(y_sorted)
            cumsum_sq = np.cumsum(y_sorted**2)
            total_sum = cumsum[-1]
            total_sq = cumsum_sq[-1]

            left_counts = distinct + 1
            right_counts = n_samples - left_counts
            valid = (left_counts >= self.min_samples_leaf) & (right_counts >= self.min_samples_leaf)
            if not np.any(valid):
                continue
            left_sum = cumsum[distinct]
            left_sq = cumsum_sq[distinct]
            right_sum = total_sum - left_sum
            right_sq = total_sq - left_sq
            left_sse = left_sq - left_sum**2 / left_counts
            right_sse = right_sq - right_sum**2 / right_counts
            gains = parent_sse - (left_sse + right_sse)
            gains[~valid] = -np.inf
            best_idx = int(np.argmax(gains))
            if gains[best_idx] > best_gain:
                best_gain = float(gains[best_idx])
                # Split on the left value itself ("x <= value") so both children
                # are guaranteed non-empty even under floating-point rounding.
                threshold = float(x_sorted[distinct[best_idx]])
                best = (int(feature), threshold)
        return best

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for feature matrix ``X``."""
        if not self._nodes:
            raise RuntimeError("the tree has not been fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, the tree was fitted with {self.n_features_}"
            )
        predictions = np.empty(len(X), dtype=np.float64)
        for row_idx, row in enumerate(X):
            node = self._nodes[0]
            while not node.is_leaf:
                node = self._nodes[node.left if row[node.feature] <= node.threshold else node.right]
            predictions[row_idx] = node.value
        return predictions

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        if not self._nodes:
            return 0

        def node_depth(index: int) -> int:
            node = self._nodes[index]
            if node.is_leaf:
                return 0
            return 1 + max(node_depth(node.left), node_depth(node.right))

        return node_depth(0)

    @property
    def num_nodes(self) -> int:
        """Number of nodes (internal + leaves) in the fitted tree."""
        return len(self._nodes)


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
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Average prediction over all trees."""
        if not self.trees_:
            raise RuntimeError("the forest has not been fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        predictions = np.zeros(len(X), dtype=np.float64)
        for tree in self.trees_:
            predictions += tree.predict(X)
        return predictions / len(self.trees_)

    @property
    def is_fitted(self) -> bool:
        """True when :meth:`fit` has been called."""
        return bool(self.trees_)
