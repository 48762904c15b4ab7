"""Feature standardisation (zero mean, unit variance)."""

from __future__ import annotations

import numpy as np


class StandardScaler:
    """Standardise features to zero mean and unit variance.

    Constant features (zero variance) are left centred but unscaled, which
    avoids division by zero for one-hot or saturated features.
    """

    def __init__(self) -> None:
        self.mean_: np.ndarray | None = None
        self.scale_: np.ndarray | None = None

    def fit(self, X: np.ndarray) -> "StandardScaler":
        """Learn per-feature mean and standard deviation."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError("X must be a 2-D array")
        if len(X) == 0:
            raise ValueError("cannot fit a scaler on an empty dataset")
        self.mean_ = X.mean(axis=0)
        scale = X.std(axis=0)
        scale[scale == 0.0] = 1.0
        self.scale_ = scale
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Apply the learned standardisation."""
        if self.mean_ is None or self.scale_ is None:
            raise RuntimeError("the scaler has not been fitted")
        X = np.asarray(X, dtype=np.float64)
        single = X.ndim == 1
        if single:
            X = X.reshape(1, -1)
        transformed = (X - self.mean_) / self.scale_
        return transformed[0] if single else transformed

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Fit and transform in one call."""
        return self.fit(X).transform(X)
