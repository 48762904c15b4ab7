"""Property-based tests (hypothesis) for the NoC substrate invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.noc.constraints import ConstraintChecker, is_connected, random_design
from repro.noc.crossover import crossover
from repro.noc.design import NocDesign
from repro.noc.geometry import Grid3D
from repro.noc.links import link_kind, link_length
from repro.noc.moves import MoveGenerator
from repro.noc.platform import PlatformConfig
from repro.noc.repair import repair_links

TINY = PlatformConfig.tiny_2x2x2()
CHECKER = ConstraintChecker(TINY)
MOVES = MoveGenerator(TINY)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(seed=st.integers(min_value=0, max_value=10_000))
@SETTINGS
def test_random_designs_always_feasible(seed):
    design = random_design(TINY, seed)
    assert CHECKER.violations(design) == []


@given(seed=st.integers(min_value=0, max_value=10_000), moves=st.integers(min_value=1, max_value=5))
@SETTINGS
def test_neighbor_chains_preserve_feasibility(seed, moves):
    rng = np.random.default_rng(seed)
    design = random_design(TINY, rng)
    for _ in range(moves):
        design = MOVES.random_neighbor(design, rng)
    assert CHECKER.is_feasible(design)
    assert is_connected(design)


@given(seed_a=st.integers(min_value=0, max_value=5_000), seed_b=st.integers(min_value=0, max_value=5_000))
@SETTINGS
def test_crossover_offspring_always_feasible(seed_a, seed_b):
    parent_a = random_design(TINY, seed_a)
    parent_b = random_design(TINY, seed_b)
    child = crossover(parent_a, parent_b, TINY, np.random.default_rng(seed_a + seed_b))
    assert CHECKER.is_feasible(child)


@given(seed=st.integers(min_value=0, max_value=5_000), drop=st.integers(min_value=0, max_value=6))
@SETTINGS
def test_repair_recovers_feasibility_after_link_loss(seed, drop):
    rng = np.random.default_rng(seed)
    design = random_design(TINY, rng)
    damaged = NocDesign(placement=design.placement, links=design.links[: len(design.links) - drop])
    repaired = repair_links(damaged, TINY, rng)
    assert CHECKER.is_feasible(repaired)
    assert repaired.placement == design.placement


@given(
    n=st.integers(min_value=2, max_value=4),
    layers=st.integers(min_value=1, max_value=3),
    x=st.integers(min_value=0, max_value=3),
    y=st.integers(min_value=0, max_value=3),
    z=st.integers(min_value=0, max_value=2),
)
@SETTINGS
def test_grid_round_trip_property(n, layers, x, y, z):
    grid = Grid3D(n, layers)
    x, y, z = x % n, y % n, z % layers
    from repro.noc.geometry import TileCoord

    tile_id = grid.tile_id(TileCoord(x, y, z))
    assert grid.coord(tile_id) == TileCoord(x, y, z)
    assert 0 <= tile_id < grid.num_tiles


@given(seed=st.integers(min_value=0, max_value=5_000))
@SETTINGS
def test_link_lengths_within_platform_limits(seed):
    design = random_design(TINY, seed)
    grid = TINY.grid
    for link in design.links:
        kind = link_kind(link, grid)
        length = link_length(link, grid)
        if kind.value == "planar":
            assert 1 <= length <= TINY.max_planar_length
        else:
            assert length == 1
