"""Table-driven link predicates equal the geometric rules on every tile pair.

``link_kind`` reads the grid's per-tile layer and column tuples and
``is_feasible_link`` is a lookup in the platform's candidate set.  On each
preset every pair ``a < b`` is checked against the coordinate rules kept in
``tests/oracles/links.py``: same kind (or the same ``ValueError`` for a
diagonal pair), same feasibility.  Ids outside the grid must raise
``ValueError`` rather than wrap around the tuples.
"""

import pytest

from repro.noc.links import Link, LinkKind, candidate_links, is_feasible_link, link_kind
from repro.noc.platform import PlatformConfig
from tests.oracles.links import geometric_is_feasible_link, geometric_link_kind

PRESETS = ("tiny_2x2x2", "small_3x3x3", "paper_4x4x4", "big_8x8x4")


def _kind_or_error(predicate, link, grid):
    try:
        return predicate(link, grid)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("preset", PRESETS)
def test_every_pair_matches_the_geometric_rules(preset):
    config = getattr(PlatformConfig, preset)()
    grid = config.grid
    kinds = {LinkKind.PLANAR: 0, LinkKind.VERTICAL: 0, ValueError: 0}
    feasible = 0
    for a in range(config.num_tiles):
        for b in range(a + 1, config.num_tiles):
            link = Link(a, b)
            kind = _kind_or_error(link_kind, link, grid)
            assert kind == _kind_or_error(geometric_link_kind, link, grid), link
            kinds[kind] += 1
            verdict = is_feasible_link(link, config)
            assert verdict == geometric_is_feasible_link(link, config), link
            feasible += verdict
    # Every outcome is exercised, and the feasible pairs are the candidate pools.
    assert all(kinds.values())
    assert feasible == len(candidate_links(config))


@pytest.mark.parametrize("preset", PRESETS)
def test_out_of_range_ids_raise(preset):
    config = getattr(PlatformConfig, preset)()
    n = config.num_tiles
    # Link(-1, n - 1) would alias tile n - 1 with itself if -1 wrapped.
    outside = [Link(-1, n - 1), Link(-1, 0), Link(-n, 0), Link(0, n), Link(n - 1, n), Link(n, n + 1)]
    for link in outside:
        with pytest.raises(ValueError):
            link_kind(link, config.grid)
        with pytest.raises(ValueError):
            is_feasible_link(link, config)
        with pytest.raises(ValueError):
            geometric_link_kind(link, config.grid)
        with pytest.raises(ValueError):
            geometric_is_feasible_link(link, config)
