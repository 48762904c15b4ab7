"""The presorted tree grows, predicts and draws exactly like the per-node-sorting oracle.

``tests/oracles/tree.py`` keeps the tree that sorted every candidate feature
at every node.  Over a seeded corpus (bootstrap duplicates, tied feature
values, constant targets and spreads at ``np.allclose``'s tolerance, every
``min_samples_leaf`` from 1 to 3 and every form of ``max_features``) both
trees must hold the same nodes bit for bit, predict the same bytes and leave
their generators in the same state; so must the forest and the oracle's
forest, which predicts tree by tree.
"""

import numpy as np
import pytest

from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor
from tests.oracles.tree import DecisionTreeRegressor as OracleTree
from tests.oracles.tree import RandomForestRegressor as OracleForest

#: ``np.allclose``'s tolerance around a target of 1.0.
_TOLERANCE = 1e-8 + 1e-5 * 1.0


def _bootstrap_duplicates(rng):
    X = rng.uniform(-1.0, 1.0, size=(40, 5))
    rows = rng.integers(0, len(X), size=len(X))
    return X[rows], (X[:, 0] - 2.0 * X[:, 3] + rng.normal(scale=0.1, size=len(X)))[rows]


def _tied_features(rng):
    X = rng.integers(0, 3, size=(60, 6)).astype(np.float64)
    return X, X[:, 1] * X[:, 2] + rng.integers(0, 2, size=len(X))


def _constant_target(rng):
    return rng.uniform(size=(30, 4)), np.full(30, 2.5)


def _spread_at_tolerance(rng):
    """Targets 1.0 apart by exactly the tolerance, one ulp under and one ulp over it."""
    offsets = [0.0, _TOLERANCE, np.nextafter(_TOLERANCE, 0.0), np.nextafter(_TOLERANCE, 1.0)]
    X = rng.uniform(size=(48, 3))
    blocks = np.repeat(np.arange(4), 12)
    y = 1.0 + np.where(X[:, 0] < 0.5, 0.0, np.take(offsets, blocks))
    return X, y


def _moela_sized(rng):
    """An Eval-model-sized fit: a few dozen samples of design features and weights."""
    X = rng.uniform(size=(70, 23))
    return X, np.sin(4.0 * X[:, 0]) + X[:, 5] * X[:, 9] + rng.normal(scale=0.05, size=len(X))


def _smooth(rng):
    X = rng.uniform(-2.0, 2.0, size=(120, 4))
    return X, X[:, 0] ** 2 - X[:, 1] + rng.normal(scale=0.2, size=len(X))


DATASETS = {
    "bootstrap-duplicates": _bootstrap_duplicates,
    "tied-features": _tied_features,
    "constant-target": _constant_target,
    "spread-at-tolerance": _spread_at_tolerance,
    "moela-sized": _moela_sized,
    "smooth": _smooth,
}

MAX_FEATURES = [None, 2, 0.5, "sqrt"]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same_tree(tree: DecisionTreeRegressor, oracle: OracleTree) -> None:
    """Every node, threshold and leaf value equal bit for bit, and the same draws."""
    nodes = oracle._nodes
    assert tree.num_nodes == len(nodes)
    assert tree.depth == oracle.depth
    assert tree.feature_.tolist() == [node.feature for node in nodes]
    assert _bits(tree.threshold_) == _bits([node.threshold for node in nodes])
    assert _bits(tree.value_) == _bits([node.value for node in nodes])
    assert tree.left_.tolist() == [-1 if node.left is None else node.left for node in nodes]
    assert tree.right_.tolist() == [-1 if node.right is None else node.right for node in nodes]
    assert tree.rng.bit_generator.state == oracle.rng.bit_generator.state


def _query(X: np.ndarray, seed: int) -> np.ndarray:
    """The training rows plus fresh rows spanning (and exceeding) their range."""
    rng = np.random.default_rng(seed)
    low, high = X.min(axis=0) - 0.5, X.max(axis=0) + 0.5
    return np.vstack([X, rng.uniform(low, high, size=(25, X.shape[1]))])


@pytest.mark.parametrize("max_features", MAX_FEATURES, ids=repr)
@pytest.mark.parametrize("min_samples_leaf", [1, 2, 3])
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_tree_matches_oracle(dataset, min_samples_leaf, max_features):
    X, y = DATASETS[dataset](np.random.default_rng(sorted(DATASETS).index(dataset)))
    settings = dict(
        max_depth=8,
        min_samples_split=2 * min_samples_leaf,
        min_samples_leaf=min_samples_leaf,
        max_features=max_features,
    )
    tree = DecisionTreeRegressor(**settings, rng=11).fit(X, y)
    oracle = OracleTree(**settings, rng=11).fit(X, y)
    assert_same_tree(tree, oracle)
    query = _query(X, 5)
    assert _bits(tree.predict(query)) == _bits(oracle.predict(query))


def test_seeded_corpus_matches_oracle():
    """Random shapes, depths and leaf sizes, each fitted by both trees."""
    corpus = np.random.default_rng(2024)
    for case in range(40):
        n, d = int(corpus.integers(4, 90)), int(corpus.integers(1, 12))
        X = np.round(corpus.normal(size=(n, d)), int(corpus.integers(0, 3)))
        y = np.round(corpus.normal(size=n), int(corpus.integers(0, 4)))
        settings = dict(
            max_depth=int(corpus.integers(1, 10)),
            min_samples_split=int(corpus.integers(2, 6)),
            min_samples_leaf=int(corpus.integers(1, 4)),
            max_features=MAX_FEATURES[case % len(MAX_FEATURES)],
        )
        tree = DecisionTreeRegressor(**settings, rng=case).fit(X, y)
        oracle = OracleTree(**settings, rng=case).fit(X, y)
        assert_same_tree(tree, oracle)
        query = _query(X, case)
        assert _bits(tree.predict(query)) == _bits(oracle.predict(query))


@pytest.mark.parametrize("bootstrap", [True, False])
def test_forest_matches_oracle_forest(bootstrap):
    """The forest equals the oracle's, tree by tree and prediction by prediction."""
    X, y = _moela_sized(np.random.default_rng(9))
    settings = dict(n_estimators=12, max_depth=8, bootstrap=bootstrap)
    forest = RandomForestRegressor(**settings, rng=3).fit(X, y)
    oracle = OracleForest(**settings, rng=3).fit(X, y)
    for tree, oracle_tree in zip(forest.trees_, oracle.trees_, strict=True):
        assert_same_tree(tree, oracle_tree)
    query = _query(X, 1)
    assert _bits(forest.predict(query)) == _bits(oracle.predict(query))
    assert forest.rng.bit_generator.state == oracle.rng.bit_generator.state


def test_forest_predicts_single_rows_and_deep_trees_like_the_oracle():
    """One-row queries and trees of unequal depth take the same leaves as the oracle's."""
    X, y = _smooth(np.random.default_rng(4))
    forest = RandomForestRegressor(n_estimators=7, max_depth=12, min_samples_leaf=1, rng=8)
    oracle = OracleForest(n_estimators=7, max_depth=12, min_samples_leaf=1, rng=8)
    forest.fit(X, y)
    oracle.fit(X, y)
    assert len({tree.depth for tree in forest.trees_}) > 1
    for row in _query(X, 2)[::9]:
        assert _bits(forest.predict(row)) == _bits(oracle.predict(row))
