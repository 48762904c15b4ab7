"""The simulate-everything Fig. 3 design selection the thermal pre-filter replaced.

``select_design_by_thermal_threshold`` used to run ``simulate()`` on every
design of a final population and read each peak temperature off the report,
then throw away the reports of every design above the 5 % threshold.  It now
takes the peak temperatures from the simulator's thermal model and simulates
only the designs it can pick.  The old rule lives on here as
:func:`select_design_by_thermal_threshold_reference`, so
``tests/experiments/test_fig3_selection_equivalence.py`` can pin the chosen
design and its report to it.
"""

from __future__ import annotations

import numpy as np

from repro.moo.result import OptimizationResult
from repro.noc.design import NocDesign
from repro.simulation.simulator import NocSimulator


def select_design_by_thermal_threshold_reference(
    result: OptimizationResult,
    simulator: NocSimulator,
    threshold_fraction: float = 0.05,
) -> tuple[NocDesign, dict[str, float]]:
    """Simulate every design, then pick the lowest EDP within the threshold."""
    if not result.designs:
        raise ValueError("the result contains no designs")
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
