"""Golden front fingerprints: seeded searches must reproduce their recorded fronts bit for bit.

Each case runs one optimizer on one platform (BFS, 5 objectives, identity
scenario, small budget) through the public front door and hashes the final
archive: the exact bits of every objective value, every design key and the
evaluation count.  The recorded values in ``fronts.json`` pin the seeded
behaviour, so a refactor or speed-up that changes any RNG draw, candidate
order or objective bit fails here.

Regenerate the table only when a change is *meant* to move the fronts::

    PYTHONPATH=src python -m tests.golden.test_front_fingerprints --write
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import make_problem, run_algorithm
from repro.moo.termination import Budget
from repro.noc.platform import PlatformConfig

GOLDEN_PATH = Path(__file__).with_name("fronts.json")

ALGORITHMS = ("NSGA-II", "MOELA", "MOOS", "MOO-STAGE", "MOEA/D")
PLATFORMS = ("small_3x3x3", "paper_4x4x4")
APPLICATION = "BFS"
NUM_OBJECTIVES = 5
BUDGET = 120
POPULATION = 8
SEED = 2023

CASES = [f"{algorithm}@{platform}" for algorithm in ALGORITHMS for platform in PLATFORMS]


def front_fingerprint(result) -> str:
    """sha256 of the archived front: exact objective bits, design keys, evaluation count."""
    payload = {
        "objectives": [[value.hex() for value in row] for row in result.metadata["archive_objectives"].tolist()],
        "designs": [repr(design.key()) for design in result.metadata["archive_designs"]],
        "evaluations": int(result.evaluations),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def run_case(case: str) -> dict:
    """Run one golden case and return its fingerprint record."""
    algorithm, platform = case.split("@")
    experiment = replace(
        ExperimentConfig(),
        platform=getattr(PlatformConfig, platform)(),
        population_size=POPULATION,
        max_evaluations=BUDGET,
    )
    problem = make_problem(experiment, APPLICATION, NUM_OBJECTIVES)
    result = run_algorithm(
        algorithm, problem, experiment, budget=Budget.evaluations(BUDGET), seed=SEED
    )
    return {
        "fingerprint": front_fingerprint(result),
        "evaluations": int(result.evaluations),
        "front_size": len(result.metadata["archive_designs"]),
    }


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("case", CASES)
def test_front_fingerprint_matches_golden(case):
    expected = _golden()[case]
    assert run_case(case) == expected


def test_golden_table_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN_PATH.name}")
    args = parser.parse_args()
    table = {case: run_case(case) for case in CASES}
    text = json.dumps(table, indent=2, sort_keys=True) + "\n"
    if args.write:
        GOLDEN_PATH.write_text(text)
    print(text, end="")


if __name__ == "__main__":
    main()
