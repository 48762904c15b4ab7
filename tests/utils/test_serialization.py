"""Tests for JSON serialisation of designs and results."""

import json

import numpy as np
import pytest

from repro.moo.result import OptimizationResult, SearchSnapshot
from repro.noc.constraints import ConstraintChecker
from repro.utils.serialization import (
    design_from_dict,
    design_to_dict,
    load_design,
    platform_to_dict,
    result_from_dict,
    result_to_dict,
    save_design,
    write_json_atomic,
)


class TestDesignSerialization:
    def test_round_trip_in_memory(self, tiny_designs):
        design = tiny_designs[0]
        rebuilt = design_from_dict(design_to_dict(design))
        assert rebuilt == design

    def test_round_trip_via_file(self, tiny_config, tiny_designs, tmp_path):
        path = save_design(tiny_designs[1], tmp_path / "design.json")
        rebuilt = load_design(path)
        assert rebuilt == tiny_designs[1]
        assert ConstraintChecker(tiny_config).is_feasible(rebuilt)

    def test_payload_is_plain_json(self, tiny_designs):
        payload = design_to_dict(tiny_designs[0])
        assert json.loads(json.dumps(payload)) == payload

    def test_missing_fields_rejected(self):
        with pytest.raises(ValueError):
            design_from_dict({"placement": [0, 1]})


class TestPlatformSerialization:
    def test_platform_dict_fields(self, tiny_config):
        payload = platform_to_dict(tiny_config)
        assert payload["n"] == tiny_config.n
        assert payload["num_planar_links"] == tiny_config.num_planar_links
        json.dumps(payload)


class TestResultSerialization:
    def _result(self, designs):
        history = [SearchSnapshot(0, 5, 0.1, [[1.0, 2.0]]), SearchSnapshot(1, 10, 0.2, [[0.5, 1.5]])]
        return OptimizationResult(
            algorithm="MOELA",
            problem_name="toy",
            designs=list(designs),
            objectives=np.array([[1.0, 2.0], [2.0, 1.0]]),
            history=history,
            evaluations=10,
            elapsed_seconds=0.2,
        )

    def test_result_summary_fields(self, tiny_designs):
        payload = result_to_dict(self._result(tiny_designs[:2]))
        assert payload["algorithm"] == "MOELA"
        assert payload["evaluations"] == 10
        assert len(payload["history"]) == 2
        assert len(payload["designs"]) == 2
        json.dumps(payload)

    def test_result_with_reference_includes_hypervolume(self, tiny_designs):
        payload = result_to_dict(self._result(tiny_designs[:2]), reference=np.array([5.0, 5.0]))
        assert payload["hypervolume"] > 0
        assert payload["reference_point"] == [5.0, 5.0]

    def test_result_round_trips_in_memory(self, tiny_designs):
        result = self._result(tiny_designs[:2])
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.algorithm == result.algorithm
        assert rebuilt.problem_name == result.problem_name
        assert rebuilt.evaluations == result.evaluations
        np.testing.assert_array_equal(rebuilt.objectives, result.objectives)
        assert rebuilt.designs == result.designs
        assert [s.evaluations for s in rebuilt.history] == [s.evaluations for s in result.history]
        for snap_r, snap_o in zip(rebuilt.history, result.history):
            np.testing.assert_array_equal(snap_r.front, snap_o.front)

    def test_result_round_trips_via_file_exactly(self, tiny_designs, tmp_path):
        """JSON's repr-based float encoding preserves binary64 values losslessly."""
        result = self._result(tiny_designs[:2])
        result.objectives[0, 0] = 1.0 / 3.0  # a value with no short decimal form
        path = write_json_atomic(result_to_dict(result, np.array([5.0, 5.0])), tmp_path / "result.json")
        rebuilt = result_from_dict(json.loads(path.read_text()))
        np.testing.assert_array_equal(rebuilt.objectives, result.objectives)
        assert rebuilt.metadata["hypervolume"] == result.final_hypervolume(np.array([5.0, 5.0]))

    def test_result_from_dict_rejects_missing_fields(self):
        with pytest.raises(ValueError):
            result_from_dict({"algorithm": "MOELA"})


class TestAtomicWrite:
    def test_writes_payload_and_removes_temp(self, tmp_path):
        path = write_json_atomic({"a": 1}, tmp_path / "out.json")
        assert json.loads(path.read_text()) == {"a": 1}
        assert list(tmp_path.iterdir()) == [path]

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "out.json"
        write_json_atomic({"a": 1}, target)
        write_json_atomic({"a": 2}, target)
        assert json.loads(target.read_text()) == {"a": 2}
