"""Multi-objective optimisation substrate and baseline optimisers."""

from repro.moo.archive import ParetoArchive
from repro.moo.dominance import (
    crowding_distance,
    dominates,
    fast_non_dominated_sort,
    non_dominated_mask,
)
from repro.moo.hypervolume import hypervolume
from repro.moo.moead import MOEAD
from repro.moo.moos import MOOS
from repro.moo.moo_stage import MOOStage
from repro.moo.nsga2 import NSGA2
from repro.moo.problem import Problem
from repro.moo.result import OptimizationResult, SearchSnapshot
from repro.moo.scalarization import tchebycheff, weighted_distance
from repro.moo.termination import Budget
from repro.moo.weights import das_dennis_weights, uniform_weights

__all__ = [
    "Budget",
    "MOEAD",
    "MOOS",
    "MOOStage",
    "NSGA2",
    "OptimizationResult",
    "ParetoArchive",
    "Problem",
    "SearchSnapshot",
    "crowding_distance",
    "das_dennis_weights",
    "dominates",
    "fast_non_dominated_sort",
    "hypervolume",
    "non_dominated_mask",
    "tchebycheff",
    "uniform_weights",
    "weighted_distance",
]
