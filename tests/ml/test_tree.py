"""Tests for the CART regression tree."""

import numpy as np
import pytest

from repro.ml.tree import DecisionTreeRegressor


class TestFitting:
    def test_fits_piecewise_constant_function(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, size=(200, 1))
        y = np.where(X[:, 0] < 0.5, 1.0, 3.0)
        tree = DecisionTreeRegressor(max_depth=3, rng=0).fit(X, y)
        predictions = tree.predict(np.array([[0.1], [0.9]]))
        assert predictions[0] == pytest.approx(1.0)
        assert predictions[1] == pytest.approx(3.0)

    def test_perfectly_fits_training_data_with_enough_depth(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-1, 1, size=(60, 3))
        y = 2.0 * X[:, 0] - X[:, 1]
        tree = DecisionTreeRegressor(max_depth=20, min_samples_split=2, min_samples_leaf=1, rng=0)
        tree.fit(X, y)
        mse = float(((tree.predict(X) - y) ** 2).mean())
        assert mse < 0.01

    def test_constant_target_yields_single_leaf(self):
        X = np.arange(20, dtype=float).reshape(-1, 1)
        y = np.full(20, 7.0)
        tree = DecisionTreeRegressor(rng=0).fit(X, y)
        assert tree.num_nodes == 1
        assert np.allclose(tree.predict(X), 7.0)

    def test_max_depth_limits_tree(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, size=(200, 2))
        y = np.sin(6 * X[:, 0]) + X[:, 1]
        shallow = DecisionTreeRegressor(max_depth=2, rng=0).fit(X, y)
        assert shallow.depth <= 2

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(0, 1, size=(50, 1))
        y = rng.normal(size=50)
        tree = DecisionTreeRegressor(max_depth=10, min_samples_leaf=10, rng=0).fit(X, y)
        # With a 10-sample minimum per leaf, no more than 5 leaves are possible.
        leaves = sum(1 for node in tree._nodes if node.is_leaf)
        assert leaves <= 5

    def test_predictions_bounded_by_target_range(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(0, 1, size=(100, 2))
        y = rng.uniform(5.0, 9.0, size=100)
        tree = DecisionTreeRegressor(rng=0).fit(X, y)
        predictions = tree.predict(X)
        assert predictions.min() >= 5.0 - 1e-9
        assert predictions.max() <= 9.0 + 1e-9


class TestValidation:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(rng=0).fit(np.zeros((3, 2)), np.zeros(4))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(rng=0).fit(np.zeros((0, 2)), np.zeros(0))

    def test_one_dimensional_x_rejected(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(rng=0).fit(np.zeros(5), np.zeros(5))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DecisionTreeRegressor(rng=0).predict(np.zeros((1, 2)))

    def test_feature_count_mismatch_on_predict(self):
        tree = DecisionTreeRegressor(rng=0).fit(np.zeros((10, 2)), np.zeros(10))
        with pytest.raises(ValueError):
            tree.predict(np.zeros((1, 3)))

    def test_invalid_hyperparameters(self):
        with pytest.raises(ValueError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(ValueError):
            DecisionTreeRegressor(min_samples_leaf=0)

    def test_single_row_prediction_accepts_1d_input(self):
        tree = DecisionTreeRegressor(rng=0).fit(np.arange(10, dtype=float).reshape(-1, 1), np.arange(10, dtype=float))
        assert tree.predict(np.array([3.0])).shape == (1,)
