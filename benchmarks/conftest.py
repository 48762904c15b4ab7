"""Shared fixtures for the benchmark harness.

The benchmarks regenerate the paper's tables and figure at a reduced scale so
the whole suite finishes in minutes on a laptop.  The scale can be adjusted
through environment variables without editing code:

* ``REPRO_BENCH_APPS``        comma-separated application list (default ``BFS,SRAD,HOT``)
* ``REPRO_BENCH_OBJECTIVES``  comma-separated objective counts (default ``3,5``)
* ``REPRO_BENCH_EVALS``       evaluation budget per run (default ``1200``)
* ``REPRO_BENCH_POPULATION``  population size (default ``16``)
* ``REPRO_BENCH_PLATFORM``    ``tiny`` / ``small`` / ``paper`` (default ``small``)

Running ``examples/reproduce_tables.py`` instead uses the full six-application
configuration of the paper.
"""

from __future__ import annotations

import os

import pytest

from repro import Study, StudyEvent, StudyResult
from repro.experiments.config import ExperimentConfig
from repro.experiments.tables import BASELINES


def _env_tuple(name: str, default: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in os.environ.get(name, default).split(",") if item.strip())


def bench_study() -> Study:
    """The benchmark-scale study (MOELA and the baselines) built from the environment."""
    return Study(
        platform=os.environ.get("REPRO_BENCH_PLATFORM", "small"),
        apps=_env_tuple("REPRO_BENCH_APPS", "BFS,SRAD,HOT"),
        objectives=[int(v) for v in _env_tuple("REPRO_BENCH_OBJECTIVES", "3,5")],
        evaluations=int(os.environ.get("REPRO_BENCH_EVALS", "1200")),
        population_size=int(os.environ.get("REPRO_BENCH_POPULATION", "16")),
    ).algorithms("MOELA", *BASELINES)


@pytest.fixture(scope="session")
def bench_experiment() -> ExperimentConfig:
    """The benchmark-scale experiment configuration."""
    return bench_study().experiment()


def save_artifact(name: str, text: str) -> None:
    """Write a regenerated table/figure to ``benchmarks/results/<name>.txt``.

    pytest captures stdout of passing tests, so besides printing, every bench
    persists its artefact to disk where it can be inspected after the run.
    """
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{name}.txt"), "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


@pytest.fixture(scope="session")
def bench_runs() -> StudyResult:
    """The shared search campaign consumed by the Table I/II and Fig. 3 benches.

    Running the campaign once and reusing it mirrors the paper, where the same
    searches feed every reported artefact.
    """

    def progress(event: StudyEvent) -> None:
        if event.kind == "run_started":
            print(f"[bench-runs] running {event.algorithm} on {event.application} / "
                  f"{event.num_objectives}-obj")

    return bench_study().on_event(progress).run()
