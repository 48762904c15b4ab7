"""Tests for the random-forest regressor."""

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor


def _r2(y, predictions):
    """Coefficient of determination of ``predictions`` against ``y``."""
    return 1.0 - np.sum((y - predictions) ** 2) / np.sum((y - y.mean()) ** 2)


class TestForest:
    def test_learns_smooth_function(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-1, 1, size=(300, 4))
        y = 3.0 * X[:, 0] + X[:, 1] ** 2 - 2.0 * X[:, 2]
        forest = RandomForestRegressor(n_estimators=25, max_depth=10, rng=0).fit(X, y)
        score = _r2(y, forest.predict(X))
        assert score > 0.8

    def test_prediction_shape(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(50, 3))
        y = X.sum(axis=1)
        forest = RandomForestRegressor(n_estimators=5, rng=0).fit(X, y)
        assert forest.predict(X).shape == (50,)
        assert forest.predict(X[0]).shape == (1,)

    def test_reproducible_with_seed(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(80, 3))
        y = X[:, 0] - X[:, 1]
        a = RandomForestRegressor(n_estimators=8, rng=42).fit(X, y).predict(X)
        b = RandomForestRegressor(n_estimators=8, rng=42).fit(X, y).predict(X)
        assert np.allclose(a, b)

    def test_without_bootstrap_uses_full_data(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(60, 2))
        y = 5.0 * X[:, 0]
        forest = RandomForestRegressor(n_estimators=4, bootstrap=False, max_features=None, rng=0)
        forest.fit(X, y)
        assert _r2(y, forest.predict(X)) > 0.9

    def test_ensemble_averages_trees(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(40, 2))
        y = X[:, 0]
        forest = RandomForestRegressor(n_estimators=3, rng=0).fit(X, y)
        manual = np.mean([tree.predict(X) for tree in forest.trees_], axis=0)
        assert np.allclose(manual, forest.predict(X))

    def test_is_fitted_flag(self):
        forest = RandomForestRegressor(n_estimators=2, rng=0)
        assert not forest.is_fitted
        forest.fit(np.zeros((10, 2)), np.zeros(10))
        assert forest.is_fitted


class TestValidation:
    def test_invalid_estimator_count(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=2, rng=0).fit(np.zeros((3, 2)), np.zeros(4))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            RandomForestRegressor(n_estimators=2, rng=0).fit(np.zeros((0, 2)), np.zeros(0))

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RandomForestRegressor(n_estimators=2, rng=0).predict(np.zeros((1, 2)))

    def test_feature_count_mismatch_on_predict(self):
        forest = RandomForestRegressor(n_estimators=2, rng=0).fit(np.zeros((10, 2)), np.zeros(10))
        with pytest.raises(ValueError, match="3 features"):
            forest.predict(np.zeros((1, 3)))
