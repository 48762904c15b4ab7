"""Tests for the Pareto archive."""

import numpy as np
import pytest

from repro.moo.archive import ParetoArchive
from repro.moo.dominance import dominates


class TestArchiveUpdates:
    def test_add_non_dominated_points(self):
        archive = ParetoArchive()
        assert archive.add("a", [1.0, 3.0])
        assert archive.add("b", [3.0, 1.0])
        assert len(archive) == 2

    def test_dominated_candidate_rejected(self):
        archive = ParetoArchive()
        archive.add("a", [1.0, 1.0])
        assert not archive.add("b", [2.0, 2.0])
        assert len(archive) == 1

    def test_dominating_candidate_evicts_members(self):
        archive = ParetoArchive()
        archive.add("a", [2.0, 2.0])
        archive.add("b", [3.0, 1.0])
        # (1, 1) dominates both archived members, so it replaces them entirely.
        assert archive.add("c", [1.0, 1.0])
        assert len(archive) == 1
        assert archive.designs == ["c"]

    def test_duplicate_objectives_rejected(self):
        archive = ParetoArchive()
        archive.add("a", [1.0, 2.0])
        assert not archive.add("b", [1.0, 2.0])

    def test_archive_members_mutually_non_dominated(self):
        rng = np.random.default_rng(0)
        archive = ParetoArchive()
        for idx in range(100):
            archive.add(idx, rng.uniform(size=3))
        objectives = archive.objectives
        for i in range(len(objectives)):
            for j in range(len(objectives)):
                if i != j:
                    assert not dominates(objectives[i], objectives[j])

    def test_wrong_length_candidate_rejected_on_non_empty_archive(self):
        archive = ParetoArchive()
        archive.add("a", [1.0, 2.0])
        with pytest.raises(ValueError):
            archive.add("b", [0.5, 0.5, 0.5])
        with pytest.raises(ValueError):
            archive.add("c", [0.5])
        assert archive.designs == ["a"]

    def test_add_reports_insertion(self):
        archive = ParetoArchive()
        points = {"a": [1.0, 3.0], "b": [3.0, 1.0], "c": [4.0, 4.0]}
        assert [archive.add(design, point) for design, point in points.items()] == [True, True, False]


class TestRevision:
    def test_rejected_add_keeps_the_revision(self):
        archive = ParetoArchive()
        archive.add("a", [1.0, 1.0])
        revision = archive.revision
        assert not archive.add("b", [2.0, 2.0])
        assert not archive.add("c", [1.0, 1.0])
        assert archive.revision == revision

    def test_accepted_add_changes_the_revision(self):
        archive = ParetoArchive()
        seen = {archive.revision}
        for design, objectives in [("a", [1.0, 3.0]), ("b", [3.0, 1.0]), ("c", [0.5, 0.5])]:
            assert archive.add(design, objectives)
            assert archive.revision not in seen
            seen.add(archive.revision)

    def test_truncation_changes_the_revision(self):
        archive = ParetoArchive(max_size=2)
        archive.add("a", [0.0, 3.0])
        archive.add("b", [3.0, 0.0])
        revision = archive.revision
        # "c" is non-dominated; truncation then evicts the most crowded "a".
        assert archive.add("c", [-1.0, 5.0])
        assert archive.designs == ["b", "c"]
        assert archive.revision != revision


class TestTruncation:
    def test_max_size_enforced(self):
        rng = np.random.default_rng(1)
        archive = ParetoArchive(max_size=5)
        for idx in range(200):
            point = rng.uniform(size=2)
            archive.add(idx, [point[0], 1.0 - point[0]])
        assert len(archive) <= 5

    def test_extreme_points_survive_truncation(self):
        archive = ParetoArchive(max_size=3)
        points = [[0.0, 1.0], [0.25, 0.75], [0.5, 0.5], [0.75, 0.25], [1.0, 0.0]]
        for idx, point in enumerate(points):
            archive.add(idx, point)
        objectives = archive.objectives
        assert [0.0, 1.0] in objectives.tolist()
        assert [1.0, 0.0] in objectives.tolist()

    def test_invalid_max_size(self):
        with pytest.raises(ValueError):
            ParetoArchive(max_size=0)


class TestQueries:
    def test_ideal_point(self):
        archive = ParetoArchive()
        archive.add("a", [1.0, 3.0])
        archive.add("b", [3.0, 1.0])
        assert np.allclose(archive.ideal_point(), [1.0, 1.0])

    def test_ideal_point_empty_raises(self):
        with pytest.raises(ValueError):
            ParetoArchive().ideal_point()

    def test_iteration_yields_pairs(self):
        archive = ParetoArchive()
        archive.add("a", [1.0, 2.0])
        pairs = list(archive)
        assert pairs[0][0] == "a"
        assert np.allclose(pairs[0][1], [1.0, 2.0])

    def test_objectives_returns_copy(self):
        archive = ParetoArchive()
        archive.add("a", [1.0, 2.0])
        view = archive.objectives
        view[0, 0] = 99.0
        assert archive.objectives[0, 0] == pytest.approx(1.0)
