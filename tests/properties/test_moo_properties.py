"""Property-based tests (hypothesis) for the MOO substrate invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.moo.archive import ParetoArchive
from repro.moo.dominance import dominates, fast_non_dominated_sort, non_dominated_mask
from repro.moo.hypervolume import hypervolume, hypervolume_contribution
from repro.moo.scalarization import tchebycheff, weighted_distance
from repro.moo.weights import uniform_weights
from tests.oracles import pareto as oracle

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

objective_matrices = arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(min_value=1, max_value=12), st.integers(min_value=2, max_value=4)),
    elements=st.floats(min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False),
)


@given(objectives=objective_matrices)
@SETTINGS
def test_non_dominated_points_are_mutually_incomparable(objectives):
    front = objectives[non_dominated_mask(objectives)]
    for i in range(len(front)):
        for j in range(len(front)):
            if i != j:
                assert not dominates(front[i], front[j])


@given(objectives=objective_matrices)
@SETTINGS
def test_fast_non_dominated_sort_partitions_indices(objectives):
    fronts = fast_non_dominated_sort(objectives)
    flat = sorted(i for front in fronts for i in front)
    assert flat == list(range(len(objectives)))


@given(objectives=objective_matrices)
@SETTINGS
def test_hypervolume_nonnegative_and_bounded_by_reference_box(objectives):
    reference = objectives.max(axis=0) + 1.0
    ideal = objectives.min(axis=0)
    value = hypervolume(objectives, reference)
    assert value >= 0.0
    assert value <= float(np.prod(reference - ideal)) + 1e-9


@given(objectives=objective_matrices)
@SETTINGS
def test_hypervolume_monotone_under_adding_a_dominating_point(objectives):
    reference = objectives.max(axis=0) + 1.0
    base = hypervolume(objectives, reference)
    better_point = objectives.min(axis=0) * 0.5
    extended = np.vstack([objectives, better_point])
    assert hypervolume(extended, reference) >= base - 1e-12


@given(objectives=objective_matrices)
@SETTINGS
def test_hypervolume_contribution_matches_set_difference(objectives):
    if len(objectives) < 2:
        return
    point, front = objectives[0], objectives[1:]
    reference = objectives.max(axis=0) + 1.0
    expected = hypervolume(np.vstack([front, point]), reference) - hypervolume(front, reference)
    np.testing.assert_allclose(
        hypervolume_contribution(point, front, reference), expected, rtol=1e-9, atol=1e-9
    )


@given(
    objectives=arrays(
        dtype=np.float64,
        shape=st.integers(min_value=2, max_value=5),
        elements=st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    ),
    weight_seed=st.integers(min_value=0, max_value=1_000),
)
@SETTINGS
def test_scalarizations_are_nonnegative_and_zero_at_reference(objectives, weight_seed):
    rng = np.random.default_rng(weight_seed)
    weight = rng.dirichlet(np.ones(len(objectives)))
    reference = objectives.copy()
    assert weighted_distance(objectives, weight, reference) == 0.0
    assert tchebycheff(objectives, weight, reference) >= 0.0
    shifted = objectives + 1.0
    assert weighted_distance(shifted, weight, reference) >= 0.0
    assert tchebycheff(shifted, weight, reference) >= 0.0


@given(num_objectives=st.integers(min_value=2, max_value=5), count=st.integers(min_value=2, max_value=40))
@SETTINGS
def test_uniform_weights_live_on_simplex(num_objectives, count):
    weights = uniform_weights(num_objectives, count, rng=0)
    assert weights.shape == (count, num_objectives)
    assert np.all(weights >= -1e-12)
    assert np.allclose(weights.sum(axis=1), 1.0)


@given(objectives=objective_matrices)
@SETTINGS
def test_archive_members_are_mutually_non_dominated(objectives):
    archive = ParetoArchive()
    for idx, row in enumerate(objectives):
        archive.add(idx, row)
    stored = archive.objectives
    for i in range(len(stored)):
        for j in range(len(stored)):
            if i != j:
                assert not dominates(stored[i], stored[j])


@st.composite
def tied_fronts(draw):
    """An ``n x M`` matrix (M in 2..5, n <= 16) with ties, duplicate rows and a
    reference point that some rows reach or exceed, plus a candidate point."""
    num_objectives = draw(st.integers(min_value=2, max_value=5))
    num_rows = draw(st.integers(min_value=1, max_value=16))
    # Small integers make ties; full-mantissa fractions make every float
    # rounding step of the hypervolume recursion visible to ``==``.
    values = st.one_of(
        st.integers(min_value=0, max_value=4).map(float),
        st.floats(min_value=0.0, max_value=4.0, allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=2**52).map(lambda k: 4.0 * k / 2**52),
    )
    rows = draw(arrays(np.float64, (num_rows, num_objectives), elements=values))
    row_index = st.integers(min_value=0, max_value=num_rows - 1)
    for source, target in draw(st.lists(st.tuples(row_index, row_index), max_size=4)):
        rows[target] = rows[source]
    offset = st.sampled_from([-1.0, 0.0, 0.5, 1.0])
    offsets = draw(arrays(np.float64, num_objectives, elements=offset))
    reference = rows.max(axis=0) + offsets
    point = draw(arrays(np.float64, num_objectives, elements=values))
    return rows, reference, point


@given(case=tied_fronts(), max_size=st.one_of(st.none(), st.integers(min_value=1, max_value=6)))
@SETTINGS
def test_array_pareto_bookkeeping_matches_per_pair_oracles_exactly(case, max_size):
    rows, reference, point = case
    assert non_dominated_mask(rows).tolist() == oracle.non_dominated_mask(rows).tolist()
    assert fast_non_dominated_sort(rows) == oracle.fast_non_dominated_sort(rows)

    archive, expected = ParetoArchive(max_size=max_size), oracle.ParetoArchive(max_size=max_size)
    for idx, row in enumerate(rows):
        assert archive.add(idx, row) == expected.add(idx, row)
    assert archive.designs == expected.designs
    assert archive.objectives.tolist() == expected.objectives.tolist()

    assert hypervolume(rows, reference) == oracle.hypervolume(rows, reference)
    assert hypervolume_contribution(point, rows, reference) == oracle.hypervolume_contribution(
        point, rows, reference
    )
