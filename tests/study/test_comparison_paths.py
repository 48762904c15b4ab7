"""Inline and campaign-mode studies build the same Table I and Table II.

An inline study runs each (application, scenario) group on one shared
problem; a campaign runs every cell on its own problem and stores it as a
shard.  Each cell's seed depends only on the cell, so both paths must give
the same tables, cell for cell, and so must :func:`aggregate_campaign`
reading the campaign directory back.
"""

import numpy as np
import pytest

from repro import Study
from repro.experiments.tables import aggregate_campaign


def _study():
    return (
        Study(preset="smoke")
        .apps("BFS", "BP")
        .objectives(3, 5)
        .algorithms("MOELA", "MOEA/D")
        .evaluations(60)
    )


def _cells(table):
    keys = [(c.application, c.baseline, c.num_objectives) for c in table.cells]
    return keys, np.array([c.value for c in table.cells])


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    output_dir = tmp_path_factory.mktemp("campaign")
    return {
        "inline": _study().run(),
        "campaign": _study().campaign(output_dir).run(),
        "aggregate": aggregate_campaign(output_dir),
    }


@pytest.mark.parametrize("path", ["campaign", "aggregate"])
def test_tables_equal_the_inline_study_cell_for_cell(results, path):
    inline = results["inline"]
    other = results[path]
    assert other.algorithms == inline.algorithms == ("MOELA", "MOEA/D")
    for build in (lambda result: result.table1(measure="evaluations"), lambda result: result.table2()):
        expected_keys, expected = _cells(build(inline))
        keys, values = _cells(build(other))
        assert len(keys) == 4  # 2 applications x 2 objective counts x 1 baseline
        assert keys == expected_keys
        np.testing.assert_array_equal(values, expected)
