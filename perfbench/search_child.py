"""One seeded search in a fresh process: measure it, check it, report one JSON line.

Run by ``run.py`` as ``python3 perfbench/search_child.py --spec JSON --seed N
[--trace-out PATH]`` with ``src`` on ``PYTHONPATH``.  The parent notes the
monotonic clock just before starting this process, so ``ready_monotonic``
(taken once the problem is built) gives the set-up time including the
interpreter start and every import.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any

#: Relative tolerance of the fresh re-score check.
RESCORE_RTOL = 1e-9


def front_fingerprint(result: Any) -> str:
    """sha256 of the archived front: exact objective bits, design keys, evaluation count."""
    payload = {
        "objectives": [[value.hex() for value in row] for row in result.metadata["archive_objectives"].tolist()],
        "designs": [repr(design.key()) for design in result.metadata["archive_designs"]],
        "evaluations": int(result.evaluations),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def check_search(problem: Any, result: Any, budget: int, brood: int) -> list[str]:
    """Correctness oracle of one search; returns the failed checks (empty when correct).

    Every archived design must be feasible, the archived objective rows must
    match a fresh re-score without the routing cache, and the evaluation
    count must reach the budget without overshooting it by more than one
    brood while agreeing with the evaluator's own counters.
    """
    import numpy as np

    from repro.objectives.evaluator import ObjectiveEvaluator

    failures = []
    designs = result.metadata["archive_designs"]
    objectives = np.asarray(result.metadata["archive_objectives"], dtype=np.float64)
    if not designs:
        failures.append("empty archive")
    infeasible = sum(not problem.is_feasible(design) for design in designs)
    if infeasible:
        failures.append(f"{infeasible} archived designs are infeasible")
    fresh = ObjectiveEvaluator(problem.workload, problem.scenario, routing_cache=False)
    rescored = fresh.evaluate_many(designs)
    if rescored.shape != objectives.shape or not np.allclose(rescored, objectives, rtol=RESCORE_RTOL, atol=0.0):
        failures.append("archived objectives differ from a fresh re-score")
    if not budget <= result.evaluations <= budget + brood:
        failures.append(f"{result.evaluations} evaluations for a budget of {budget} (brood {brood})")
    evaluator = problem.evaluator
    if evaluator.evaluations + evaluator.cache_hits != result.evaluations:
        failures.append(
            f"evaluator served {evaluator.evaluations} + {evaluator.cache_hits} cached "
            f"evaluations but the search reports {result.evaluations}"
        )
    return failures


def build_problem(spec: dict[str, Any], seed: int) -> tuple[Any, Any]:
    """The workload's problem instance and the experiment settings of one search.

    The instance is the one the ``ExperimentConfig`` default seed generates,
    the same for every search of a workload, so the fixed PHV reference point
    and target describe it.  ``seed`` drives the search: it is the
    experiment's seed and the run seed given to ``run_algorithm``.
    """
    from dataclasses import replace

    from repro.experiments.config import ExperimentConfig
    from repro.experiments.runner import make_problem
    from repro.noc.platform import PlatformConfig

    instance = replace(
        ExperimentConfig(),
        platform=getattr(PlatformConfig, spec["platform"])(),
        max_evaluations=int(spec["budget"]),
    )
    problem = make_problem(instance, spec["application"], spec["objectives"])
    return problem, replace(instance, seed=seed)


def search(spec: dict[str, Any], problem: Any, experiment: Any, run: Any = None) -> Any:
    """Run the workload's optimizer on ``problem`` for its evaluation budget."""
    from repro.experiments.runner import run_algorithm
    from repro.moo.termination import Budget

    run = run or run_algorithm
    budget = Budget.evaluations(experiment.max_evaluations)
    return run(spec["algorithm"], problem, experiment, budget=budget, seed=experiment.seed)


def run_search(spec: dict[str, Any], seed: int, trace_out: "Path | None" = None) -> dict[str, Any]:
    """Build the problem, run the search and return its measurements and checks."""
    import numpy as np

    from repro.experiments.runner import run_algorithm
    from repro.moo.hypervolume import hypervolume

    problem, experiment = build_problem(spec, seed)
    ready = time.monotonic()

    tracer = None
    if trace_out is not None:
        from layer_trace import ROOT, LayerTracer, layer_entry_points

        tracer = LayerTracer()
        tracer.attach(layer_entry_points(problem))
    start = time.perf_counter()
    result = search(spec, problem, experiment, tracer.wrap(ROOT, run_algorithm) if tracer else None)
    search_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    routing = problem.routing_cache_stats()
    evaluator = problem.evaluator
    if tracer is not None:
        tracer.detach()
        tracer.dump(
            trace_out,
            {
                "routing": routing,
                "unique_evaluations": evaluator.evaluations,
                "evaluation_cache_hits": evaluator.cache_hits,
            },
        )

    reference = np.asarray(spec["reference"], dtype=np.float64)
    phv = hypervolume(result.final_front(), reference)
    time_to_target = result.effort_to_reach(spec["phv_target"], reference, measure="seconds")
    return {
        "seed": seed,
        "ready_monotonic": ready,
        "search_s": search_s,
        "evaluations": int(result.evaluations),
        "peak_rss_mb": peak_rss_mb,
        "phv": phv,
        "phv_root": phv ** (1.0 / len(reference)),
        "time_to_target_s": search_s if time_to_target is None else time_to_target,
        "reached_target": time_to_target is not None,
        "fingerprint": front_fingerprint(result),
        "failures": check_search(problem, result, experiment.max_evaluations, experiment.population_size),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="workload spec as a JSON object")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace-out", type=Path, default=None, help="write the span dump here")
    args = parser.parse_args()
    record = run_search(json.loads(args.spec), args.seed, args.trace_out)
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
