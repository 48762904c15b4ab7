"""Smoke test of the benchmark at a tiny budget on the 27-tile platform.

Run from the repository root::

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import search_child  # noqa: E402

sys.path.insert(0, str(run.SRC))

SMOKE = "smoke-small27"


def _bench(*args: str, cwd: Path = run.REPO) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", SMOKE, "--seed", "1", "--seconds", "1", *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def _declared(kind: str) -> dict[str, str]:
    benchmark = json.loads(run.BENCHMARK.read_text())
    return {metric["name"]: metric["unit"] for metric in benchmark[kind]}


def _result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    return result


def test_every_end_to_end_metric_is_reported_with_its_unit():
    metrics = _result(_bench("--trace", "0"))["metrics"]
    assert {name: entry["unit"] for name, entry in metrics.items()} == _declared("end_to_end")
    assert all(entry["value"] > 0 for entry in metrics.values())


def test_every_layer_metric_is_reported_and_self_times_add_up():
    metrics = _result(_bench("--trace", "1"))["metrics"]
    assert {name: entry["unit"] for name, entry in metrics.items()} == _declared("per_layer")
    values = {name: entry["value"] for name, entry in metrics.items()}
    self_times = sum(values[f"{layer}.s"] for layer in run.LAYERS)
    assert abs(self_times - values["trace.s"]) <= 0.01 * values["trace.s"]
    for layer in ("noc.variation", "noc.routing", "objectives", "core.features", "ml.fit", "moo.archive"):
        assert values[f"{layer}.calls"] > 0, layer


def test_oracle_counts_a_corrupted_objective_row_as_a_failed_run():
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import make_problem, run_algorithm
    from repro.moo.termination import Budget
    from repro.noc.platform import PlatformConfig

    spec = json.loads(run.WORKLOADS.read_text())[SMOKE]
    budget = spec["budget"]
    experiment = replace(ExperimentConfig(), platform=PlatformConfig.small_3x3x3(), max_evaluations=budget, seed=1)
    problem = make_problem(experiment, spec["application"], spec["objectives"])
    result = run_algorithm(spec["algorithm"], problem, experiment, budget=Budget.evaluations(budget), seed=1)
    brood = experiment.population_size
    assert search_child.check_search(problem, result, budget, brood) == []

    corrupted = result.metadata["archive_objectives"].copy()
    corrupted[0, 0] *= 1.0 + 1e-6
    result.metadata["archive_objectives"] = corrupted
    failures = search_child.check_search(problem, result, budget, brood)
    assert failures == ["archived objectives differ from a fresh re-score"]
    assert run.count_failed([{"failures": []}, {"failures": failures}]) == 1


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(run.BENCHMARK, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
