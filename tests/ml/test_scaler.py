"""Tests for the standard scaler."""

import numpy as np
import pytest

from repro.ml.scaler import StandardScaler


class TestScaler:
    def test_transform_standardises(self):
        rng = np.random.default_rng(0)
        X = rng.normal(loc=5.0, scale=3.0, size=(200, 4))
        transformed = StandardScaler().fit_transform(X)
        assert np.allclose(transformed.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(transformed.std(axis=0), 1.0, atol=1e-9)

    def test_transform_round_trip(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 3)) * 7 + 2
        scaler = StandardScaler().fit(X)
        assert np.allclose(scaler.transform(X) * scaler.scale_ + scaler.mean_, X)

    def test_constant_feature_not_scaled(self):
        X = np.column_stack([np.full(10, 3.0), np.arange(10, dtype=float)])
        transformed = StandardScaler().fit_transform(X)
        assert np.allclose(transformed[:, 0], 0.0)

    def test_single_row_transform(self):
        X = np.arange(20, dtype=float).reshape(10, 2)
        scaler = StandardScaler().fit(X)
        row = scaler.transform(X[0])
        assert row.shape == (2,)

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(np.zeros((2, 2)))

    def test_empty_fit_rejected(self):
        with pytest.raises(ValueError):
            StandardScaler().fit(np.zeros((0, 2)))

    def test_non_2d_fit_rejected(self):
        with pytest.raises(ValueError):
            StandardScaler().fit(np.zeros(5))
