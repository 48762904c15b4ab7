"""Minimal machine-learning substrate (scikit-learn substitute).

MOELA's ``Eval`` function (Algorithm 1, line 11) is a random-forest regressor
trained on local-search trajectories.  Since scikit-learn is unavailable
offline, this package implements the required pieces from scratch:

* :class:`~repro.ml.tree.DecisionTreeRegressor` — CART regression trees;
* :class:`~repro.ml.forest.RandomForestRegressor` — bootstrap-aggregated trees
  with per-split feature subsampling;
* :class:`~repro.ml.scaler.StandardScaler` — feature standardisation.
"""

from repro.ml.forest import RandomForestRegressor
from repro.ml.scaler import StandardScaler
from repro.ml.tree import DecisionTreeRegressor

__all__ = [
    "DecisionTreeRegressor",
    "RandomForestRegressor",
    "StandardScaler",
]
