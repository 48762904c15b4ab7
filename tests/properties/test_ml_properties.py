"""Property-based tests (hypothesis) for the ML substrate."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ml.forest import RandomForestRegressor
from repro.ml.scaler import StandardScaler
from repro.ml.tree import DecisionTreeRegressor

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

datasets = st.tuples(
    arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(min_value=6, max_value=40), st.integers(min_value=1, max_value=4)),
        elements=st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False),
    ),
    st.integers(min_value=0, max_value=1_000),
)


@given(data=datasets)
@SETTINGS
def test_tree_predictions_stay_within_target_range(data):
    X, seed = data
    rng = np.random.default_rng(seed)
    y = rng.uniform(-10.0, 10.0, size=len(X))
    tree = DecisionTreeRegressor(max_depth=6, rng=seed).fit(X, y)
    predictions = tree.predict(X)
    assert np.all(predictions >= y.min() - 1e-9)
    assert np.all(predictions <= y.max() + 1e-9)
    assert np.all(np.isfinite(predictions))


@given(data=datasets)
@SETTINGS
def test_forest_predictions_bounded_and_finite(data):
    X, seed = data
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.0, 5.0, size=len(X))
    forest = RandomForestRegressor(n_estimators=4, max_depth=5, rng=seed).fit(X, y)
    predictions = forest.predict(X)
    assert np.all(np.isfinite(predictions))
    assert np.all(predictions >= y.min() - 1e-9)
    assert np.all(predictions <= y.max() + 1e-9)


@given(data=datasets)
@SETTINGS
def test_scaler_round_trip_property(data):
    X, _ = data
    scaler = StandardScaler().fit(X)
    reconstructed = scaler.transform(X) * scaler.scale_ + scaler.mean_
    np.testing.assert_allclose(reconstructed, X, rtol=1e-9, atol=1e-6)


@given(data=datasets)
@SETTINGS
def test_constant_target_predicts_constant(data):
    X, seed = data
    y = np.full(len(X), 3.25)
    tree = DecisionTreeRegressor(rng=seed).fit(X, y)
    np.testing.assert_allclose(tree.predict(X), 3.25)
