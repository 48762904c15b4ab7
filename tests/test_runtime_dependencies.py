"""numpy is the only runtime dependency: a whole search never imports scipy.

scipy stays a test dependency (``tests/oracles/routing.py`` keeps its
Dijkstra as the distance oracle), so the check runs in a fresh interpreter
that has imported nothing but the library.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SEARCH = """
import json, sys
from dataclasses import replace
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import make_problem, run_algorithm
from repro.noc.platform import PlatformConfig

experiment = replace(
    ExperimentConfig.smoke(), platform=PlatformConfig.paper_4x4x4(), max_evaluations=60
)
problem = make_problem(experiment, "BFS", 3)
front = run_algorithm("MOOS", problem, experiment).pareto_front()
print(json.dumps({
    "front": len(front),
    "repairs": problem.evaluator.routing_cache_stats()["incremental_repairs"],
    "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy"),
}))
"""


def test_a_seeded_search_imports_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", SEARCH], capture_output=True, text=True, env=env, check=True
    )
    report = json.loads(result.stdout)
    assert report["front"] > 0
    assert report["repairs"] > 0, "the search repaired no routing table"
    assert report["scipy"] == []
