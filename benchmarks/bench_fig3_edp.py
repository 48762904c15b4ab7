"""Benchmark regenerating Fig. 3: EDP overhead of baseline designs vs MOELA designs.

For the highest-objective scenario available, every algorithm's final
population is filtered by the paper's thermal rule (lowest-EDP design within
5 % of the coolest design's peak temperature) and the selected designs are
simulated with the queueing performance model to obtain EDP.  The figure
reports the baselines' EDP overhead relative to MOELA's design.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import save_artifact
from repro.experiments.tables import build_figure3, format_figure3


@pytest.mark.benchmark(group="fig3")
def test_fig3_edp_overhead(benchmark, bench_experiment, bench_runs):
    """Fig. 3: EDP overhead (%) of MOEA/D and MOOS designs relative to MOELA."""

    figure = benchmark.pedantic(
        lambda: build_figure3(bench_experiment, bench_runs.runs), rounds=1, iterations=1
    )
    text = format_figure3(figure)
    print()
    print(text)

    values = [cell.value for cell in figure.cells]
    assert all(np.isfinite(v) for v in values)
    note = f"average EDP overhead of baselines vs MOELA: {np.mean(values):.2f}%"
    print("\n" + note)
    save_artifact("fig3_edp_overhead", text + "\n\n" + note)
