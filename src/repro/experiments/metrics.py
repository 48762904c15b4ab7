"""Comparison metrics of Section V.C: speed-up factor, PHV gain and EDP overhead."""

from __future__ import annotations

import numpy as np

from repro.moo.hypervolume import reference_point_from
from repro.moo.result import OptimizationResult
from repro.noc.design import NocDesign
from repro.simulation.simulator import NocSimulator
from repro.workloads.workload import Workload


def common_reference_point(results: list[OptimizationResult], margin: float = 0.1) -> np.ndarray:
    """A hypervolume reference point shared by several runs of the same problem.

    Built from the union of every snapshot front of every run, so each run's
    entire history lies inside the reference box and PHV values are directly
    comparable across algorithms.
    """
    if not results:
        raise ValueError("at least one result is required")
    fronts = []
    for result in results:
        for snapshot in result.history:
            if snapshot.front.size:
                fronts.append(snapshot.front)
        if result.objectives.size:
            fronts.append(result.objectives)
    if not fronts:
        raise ValueError("the results contain no objective vectors")
    return reference_point_from(np.vstack(fronts), margin=margin)


def speedup_factor(
    competitor: OptimizationResult,
    moela: OptimizationResult,
    reference: np.ndarray,
    measure: str = "evaluations",
) -> float:
    """Speed-up of MOELA over a competitor (Table I definition).

    ``T_convergence`` is the competitor's effort at the paper's convergence
    criterion (:meth:`~repro.moo.result.OptimizationResult.convergence_effort`:
    PHV improves by less than 0.5 % over five iterations); ``T_MOELA`` is the
    effort MOELA needs to reach the *same* PHV.  When MOELA never reaches the
    competitor's converged PHV, its full effort is used (the ratio then
    understates MOELA, mirroring the paper's conservative treatment).
    """
    competitor_effort, competitor_phv = competitor.convergence_effort(reference, measure=measure)
    moela_effort = moela.effort_to_reach(competitor_phv, reference, measure=measure)
    if moela_effort is None:
        if not moela.history:
            return 0.0
        last = moela.history[-1]
        moela_effort = float(
            last.evaluations
            if measure == "evaluations"
            else last.elapsed_seconds
            if measure == "seconds"
            else last.iteration
        )
    if moela_effort <= 0:
        moela_effort = 1.0
    return float(competitor_effort / moela_effort)


def phv_gain(
    moela: OptimizationResult, competitor: OptimizationResult, reference: np.ndarray
) -> float:
    """Relative PHV improvement of MOELA over a competitor at the stop budget (Table II)."""
    moela_phv = moela.final_hypervolume(reference)
    competitor_phv = competitor.final_hypervolume(reference)
    if competitor_phv <= 0:
        return float("inf") if moela_phv > 0 else 0.0
    return float((moela_phv - competitor_phv) / competitor_phv)


# ---------------------------------------------------------------------- #
# EDP selection (Fig. 3)
# ---------------------------------------------------------------------- #
def select_design_by_thermal_threshold(
    result: OptimizationResult,
    workload: Workload,
    threshold_fraction: float = 0.05,
    simulator: NocSimulator | None = None,
) -> tuple[NocDesign, dict[str, float]]:
    """Pick the design used for the Fig. 3 EDP comparison.

    From the run's final population, the design with the lowest peak
    temperature defines a temperature threshold 5 % above it; among designs
    within the threshold, the one with the lowest EDP is selected (falling
    back to the coolest design when none qualifies, per the paper).
    Returns the design and its simulation report.
    """
    if not result.designs:
        raise ValueError("the result contains no designs")
    simulator = simulator if simulator is not None else NocSimulator(workload)
    reports = [simulator.simulate(design) for design in result.designs]
    temperatures = np.array([r.peak_temperature for r in reports])
    coolest = float(temperatures.min())
    threshold = coolest * (1.0 + threshold_fraction)
    eligible = [i for i, t in enumerate(temperatures) if t <= threshold]
    if not eligible:
        eligible = [int(np.argmin(temperatures))]
    edps = np.array([reports[i].edp for i in eligible])
    chosen = eligible[int(np.argmin(edps))]
    return result.designs[chosen], reports[chosen].as_dict()


def edp_of_best_design(
    result: OptimizationResult,
    workload: Workload,
    threshold_fraction: float = 0.05,
    simulator: NocSimulator | None = None,
) -> float:
    """EDP of the design selected by :func:`select_design_by_thermal_threshold`."""
    _, report = select_design_by_thermal_threshold(
        result, workload, threshold_fraction=threshold_fraction, simulator=simulator
    )
    return float(report["edp"])


def edp_overhead(competitor_edp: float, moela_edp: float) -> float:
    """Relative EDP overhead of a competitor's design versus MOELA's (Fig. 3)."""
    if moela_edp <= 0:
        raise ValueError("MOELA EDP must be > 0")
    return float((competitor_edp - moela_edp) / moela_edp)
