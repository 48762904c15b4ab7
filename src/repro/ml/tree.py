"""CART regression tree.

A standard variance-reduction regression tree with support for maximum depth,
minimum samples per split/leaf, and per-split random feature subsampling
(needed by the random forest).

Fitting sorts every feature column once per tree, at the root, and hands each
node its samples' indices in every column's sorted order: a stable subset of a
stable sort is the stable sort of the subset, so no node sorts again (the
presorted attribute lists of SLIQ, Mehta et al., EDBT 1996).  A node scores
all of its candidate features in one ``(k x m)`` cumulative-sum pass and
splits its ``d`` index lists with one 2-D boolean compress, so a tree costs
one ``O(d n log n)`` sort plus ``O(d m)`` array work per node of ``m``
samples.  Nodes are stored as flat arrays; prediction descends all rows (and,
for a forest, all trees) at once, one tree level per step.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_count

#: A split must reduce the node's squared error by more than this.
_MIN_GAIN = 1e-12

#: ``np.allclose``'s default tolerances, for the constant-target test.
_RTOL, _ATOL = 1e-5, 1e-8


def _is_constant(y: np.ndarray) -> bool:
    """``np.allclose(y, y[0])``, without its per-call overhead on small nodes.

    ``allclose`` asks ``|y_i - y[0]| <= atol + rtol * |y[0]|`` of every
    element, and that holds for all of them exactly when it holds for the
    largest.  A NaN spread means ``y`` holds a NaN or an infinity, where
    ``allclose``'s own rules decide.
    """
    spread = np.abs(y - y[0]).max()
    if spread <= _ATOL + _RTOL * abs(y[0]):
        return True
    return bool(spread != spread and np.allclose(y, y[0]))


class DescentTable:
    """The nodes of fitted trees, laid out to descend many rows through all of them at once.

    The trees' nodes are concatenated.  Each leaf becomes its own two
    children, so every row can take exactly as many steps as the deepest
    tree has levels, with no per-step test for which rows are still moving.
    """

    def __init__(self, trees: "list[DecisionTreeRegressor]"):
        sizes = [tree.num_nodes for tree in trees]
        offsets = np.cumsum([0, *sizes[:-1]])
        shift = np.repeat(offsets, sizes)
        feature = np.concatenate([tree.feature_ for tree in trees])
        leaf = feature < 0
        index = np.arange(len(feature))
        self.roots = offsets
        self.feature = np.where(leaf, 0, feature)
        self.threshold = np.concatenate([tree.threshold_ for tree in trees])
        self.value = np.concatenate([tree.value_ for tree in trees])
        # Column 1 is where a row with ``x[feature] <= threshold`` goes.
        self.children = np.stack(
            [
                np.where(leaf, index, np.concatenate([tree.right_ for tree in trees]) + shift),
                np.where(leaf, index, np.concatenate([tree.left_ for tree in trees]) + shift),
            ],
            axis=1,
        )
        self.steps = max(tree.depth for tree in trees)

    def leaf_values(self, X: np.ndarray) -> np.ndarray:
        """``(trees x rows)`` values of the leaves the rows of ``X`` reach."""
        node = np.repeat(self.roots, len(X))
        rows = np.tile(np.arange(len(X)), len(self.roots))
        for _ in range(self.steps):
            goes_left = X[rows, self.feature[node]] <= self.threshold[node]
            node = self.children[node, goes_left.view(np.int8)]
        return self.value[node].reshape(len(self.roots), len(X))


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

    After :meth:`fit`, node ``i`` (the root is 0, numbered depth-first, left
    before right) is ``feature_[i]``, ``threshold_[i]``, ``value_[i]``,
    ``left_[i]`` and ``right_[i]``; leaves have ``feature_ == -1`` and no
    children (``-1``).  Rows with ``x[feature] <= threshold`` go left.
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
        self.n_features_: int | None = None
        self._store_nodes([], [], [], [], [])
        self._depth = 0

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
        self._num_candidates = self._resolve_max_features()
        self._all_features = np.arange(self.n_features_)
        # Row f < d: the samples sorted stably by feature f; row d: the
        # samples in their natural order, the order ``y.mean()`` sums them in.
        samples = np.vstack([np.argsort(X, axis=0, kind="stable").T, np.arange(len(X))])
        nodes: tuple[list, ...] = ([], [], [], [], [])
        self._depth = 0
        self._grow(nodes, np.ascontiguousarray(X.T), y, samples, depth=0)
        self._store_nodes(*nodes)
        return self

    def _store_nodes(self, feature, threshold, value, left, right) -> None:
        self.feature_ = np.asarray(feature, dtype=np.intp)
        self.threshold_ = np.asarray(threshold, dtype=np.float64)
        self.value_ = np.asarray(value, dtype=np.float64)
        self.left_ = np.asarray(left, dtype=np.intp)
        self.right_ = np.asarray(right, dtype=np.intp)
        # Built by the first predict: a forest descends its own joint table.
        self._table: DescentTable | None = None

    def _resolve_max_features(self) -> int:
        total = int(self.n_features_)
        if self.max_features is None:
            return total
        if self.max_features == "sqrt":
            return max(1, int(np.sqrt(total)))
        if isinstance(self.max_features, float):
            return max(1, min(total, int(round(self.max_features * total))))
        return max(1, min(total, int(self.max_features)))

    def _grow(
        self,
        nodes: tuple[list, ...],
        columns: np.ndarray,
        y: np.ndarray,
        samples: np.ndarray,
        depth: int,
    ) -> int:
        """Append the node over ``samples`` and its subtree to ``nodes``; return its index.

        ``nodes`` holds the growing feature, threshold, value, left and right
        lists, ``columns`` is ``X`` transposed (one contiguous row per
        feature) and ``samples`` the node's ``(d + 1) x m`` index lists
        described in :meth:`fit`.
        """
        features, thresholds, values, lefts, rights = nodes
        node_index = len(values)
        y_node = y[samples[-1]]
        # ``y_node.mean()``'s own summation, without its Python wrapper.
        mean = np.add.reduce(y_node) / len(y_node)
        features.append(-1)
        thresholds.append(0.0)
        values.append(float(mean))
        lefts.append(-1)
        rights.append(-1)
        self._depth = max(self._depth, depth)

        if depth >= self.max_depth or len(y_node) < self.min_samples_split or _is_constant(y_node):
            return node_index

        split = self._best_split(columns, y, samples, float(((y_node - mean) ** 2).sum()))
        if split is None:
            return node_index

        feature, threshold = split
        goes_left = (columns[feature] <= threshold)[samples]
        features[node_index] = feature
        thresholds[node_index] = threshold
        # Every row of ``samples`` holds the same samples, so each keeps the
        # same count and the compress reshapes back into index lists.
        lefts[node_index] = self._grow(
            nodes, columns, y, samples[goes_left].reshape(len(samples), -1), depth + 1
        )
        rights[node_index] = self._grow(
            nodes, columns, y, samples[~goes_left].reshape(len(samples), -1), depth + 1
        )
        return node_index

    def _best_split(
        self, columns: np.ndarray, y: np.ndarray, samples: np.ndarray, parent_sse: float
    ) -> "tuple[int, float] | None":
        n_samples = samples.shape[1]
        features = self._all_features
        if self._num_candidates < self.n_features_:
            features = self.rng.choice(features, size=self._num_candidates, replace=False)
        # Split after sorted position j (left holds j + 1 samples) for j in
        # [lo, hi): the positions that leave min_samples_leaf on each side.
        lo, hi = self.min_samples_leaf - 1, n_samples - self.min_samples_leaf
        if lo >= hi:
            return None

        order = samples[features]
        x_sorted = columns[features[:, None], order]
        y_sorted = y[order]
        # ``np.cumsum``'s own running sums, without its Python wrapper.
        cumsum = np.add.accumulate(y_sorted, axis=1)
        cumsum_sq = np.add.accumulate(y_sorted**2, axis=1)
        left_counts = np.arange(lo + 1, hi + 1)
        right_counts = n_samples - left_counts
        left_sum = cumsum[:, lo:hi]
        left_sq = cumsum_sq[:, lo:hi]
        right_sum = cumsum[:, -1:] - left_sum
        right_sq = cumsum_sq[:, -1:] - left_sq
        left_sse = left_sq - left_sum**2 / left_counts
        right_sse = right_sq - right_sum**2 / right_counts
        # Only split between distinct consecutive values.
        distinct = x_sorted[:, lo + 1 : hi + 1] > x_sorted[:, lo:hi]
        gains = np.where(distinct, parent_sse - (left_sse + right_sse), -np.inf)

        # Each feature's best gain (NaN if it has one: ``argmax`` picks a NaN
        # first), then the first feature whose best is largest and beats the
        # minimum, as a strict ``>`` scan in feature order picks it.
        best = np.maximum.reduce(gains, axis=1)
        best = np.where(best > _MIN_GAIN, best, -np.inf)
        winner = int(best.argmax())
        if best[winner] == -np.inf:
            return None
        position = lo + int(gains[winner].argmax())
        # Split on the left value itself ("x <= value") so both children are
        # guaranteed non-empty even under floating-point rounding.
        return int(features[winner]), float(x_sorted[winner, position])

    # ------------------------------------------------------------------ #
    # Prediction
    # ------------------------------------------------------------------ #
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict targets for feature matrix ``X``."""
        if not self.num_nodes:
            raise RuntimeError("the tree has not been fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, the tree was fitted with {self.n_features_}"
            )
        if self._table is None:
            self._table = DescentTable([self])
        return self._table.leaf_values(X)[0]

    @property
    def depth(self) -> int:
        """Actual depth of the fitted tree."""
        return self._depth

    @property
    def num_nodes(self) -> int:
        """Number of nodes (internal + leaves) in the fitted tree."""
        return len(self.value_)
