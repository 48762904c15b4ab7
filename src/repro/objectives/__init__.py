"""Cost models for the five design objectives of Section III.

The public objective functions (:func:`link_utilizations`,
:func:`cpu_llc_latency`, :func:`communication_energy`, and the thermal model)
are vectorized: they compute from the route-tree link loads and the dense
per-pair hop, length and router-port tables exposed by
:class:`repro.noc.routing.RoutingTables` and the workload's tile-pair
frequency vector, instead of per-pair Python loops.
The original per-pair loops live on as scalar oracles in
``tests/oracles/objectives.py``, used by equivalence tests and benchmarks.

:class:`ObjectiveEvaluator` adds LRU caching on top and exposes the batch
entry point ``evaluate_many(designs)`` — cache-aware partitioning into
hits/duplicates/misses, with serial evaluation of the misses.
"""

from repro.objectives.evaluator import (
    OBJECTIVE_NAMES,
    ObjectiveEvaluator,
    ObjectiveScenario,
    scenario_for,
)
from repro.objectives.energy import communication_energy
from repro.objectives.latency import cpu_llc_latency
from repro.objectives.thermal import ThermalModel
from repro.objectives.traffic import link_utilizations, traffic_mean, traffic_variance

__all__ = [
    "OBJECTIVE_NAMES",
    "ObjectiveEvaluator",
    "ObjectiveScenario",
    "ThermalModel",
    "communication_energy",
    "cpu_llc_latency",
    "link_utilizations",
    "scenario_for",
    "traffic_mean",
    "traffic_variance",
]
