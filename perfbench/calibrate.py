"""Derive a workload's fixed PHV reference point and target from calibration searches.

Usage, from the repository root::

    python3 perfbench/calibrate.py --workload moos-paper64 --seeds 1 2 3 4 5 6

Runs, in this process, the first search a benchmark run with each ``--seed``
makes, and prints the constants to copy into ``workloads.json``: the
reference point lies 10% of the span beyond the worst archived objective of
any final front, and the target is the median PHV the searches held once
``--target-fraction`` of the budget was spent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import SRC, WORKLOADS, sub_seed
from search_child import build_problem, search

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.moo.hypervolume import reference_point_from  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--target-fraction", type=float, default=0.4)
    args = parser.parse_args()
    spec = json.loads(WORKLOADS.read_text())[args.workload]

    results = []
    for seed in args.seeds:
        problem, experiment = build_problem(spec, sub_seed(seed, 0))
        results.append(search(spec, problem, experiment))

    reference = reference_point_from(np.vstack([result.final_front() for result in results]), margin=0.1)
    held = []
    for result in results:
        spent = next(s for s in result.history if s.evaluations >= args.target_fraction * spec["budget"])
        held.append(spent.hypervolume(reference))
    finals = [result.final_hypervolume(reference) for result in results]
    print(json.dumps({"reference": reference.tolist(), "phv_target": statistics.median(held), "final_phv": finals}))


if __name__ == "__main__":
    main()
