"""The paper's evaluation artefacts: Table I, Table II and Fig. 3.

No builder runs a search.  :class:`StudyResult` holds the run map of one
comparison — ``(application, num_objectives)`` to ``{algorithm: result}`` —
and renders Table I and Table II from it (applications as rows,
``{baseline} x {3,4,5}-obj`` as columns); :func:`build_figure3` scores Fig. 3
from the same run map.  ``format_table`` / ``format_figure3`` render them as
text tables so the benchmark harness prints the same rows the paper reports.

There is one comparison path: :meth:`repro.study.Study.run` runs the searches
(inline, or as a sharded campaign) and returns a :class:`StudyResult`;
:func:`aggregate_campaign` loads the same result from a campaign directory's
finished shards *without re-running any cell* — transparently from loose
shard files or a compacted rollup
(:func:`repro.experiments.compaction.compact_campaign`), with identical
output either way.  The comparison target is MOELA when present (the first
algorithm otherwise), and cells missing either side of a comparison are
skipped instead of failing the whole table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from repro.experiments.config import ExperimentConfig
from repro.experiments.metrics import (
    common_reference_point,
    edp_of_best_design,
    edp_overhead,
    phv_gain,
    speedup_factor,
)
from repro.experiments.robustness import (
    RobustnessCertificate,
    SensitivityMap,
    robustness_certificate,
    sensitivity_map,
)
from repro.experiments.runner import (
    MANIFEST_NAME,
    CampaignCell,
    CampaignSummary,
    aggregate_routing_cache_stats,
    load_campaign_results,
    load_manifest,
)
from repro.moo.result import OptimizationResult
from repro.simulation.simulator import NocSimulator
from repro.study.registry import default_registry
from repro.workloads.registry import get_workload

#: Baselines MOELA is compared against in Tables I/II and Fig. 3.
BASELINES: tuple[str, ...] = ("MOEA/D", "MOOS")


@dataclass
class ComparisonCell:
    """One (application, baseline, scenario) cell of a table."""

    application: str
    baseline: str
    num_objectives: int
    value: float


@dataclass
class TableResult:
    """A full table: rows per application plus per-column averages."""

    name: str
    cells: list[ComparisonCell] = field(default_factory=list)

    def value(self, application: str, baseline: str, num_objectives: int) -> float:
        """Look up one cell value."""
        for cell in self.cells:
            if (
                cell.application == application
                and cell.baseline == baseline
                and cell.num_objectives == num_objectives
            ):
                return cell.value
        raise KeyError((application, baseline, num_objectives))

    def applications(self) -> list[str]:
        """Applications present, in insertion order."""
        seen: list[str] = []
        for cell in self.cells:
            if cell.application not in seen:
                seen.append(cell.application)
        return seen

    def columns(self) -> list[tuple[str, int]]:
        """Distinct ``(baseline, num_objectives)`` columns, in insertion order."""
        seen: list[tuple[str, int]] = []
        for cell in self.cells:
            key = (cell.baseline, cell.num_objectives)
            if key not in seen:
                seen.append(key)
        return seen

    def column_average(self, baseline: str, num_objectives: int) -> float:
        """Average over applications of one column."""
        values = [
            cell.value
            for cell in self.cells
            if cell.baseline == baseline and cell.num_objectives == num_objectives
        ]
        return float(np.mean(values)) if values else float("nan")


RunMap = dict[tuple[str, int], dict[str, OptimizationResult]]


def comparison_target(algorithms: "tuple[str, ...] | list[str]") -> str:
    """The algorithm the tables and Fig. 3 compare to: MOELA when present, else the first."""
    if not algorithms:
        raise ValueError("no completed runs to compare")
    return "MOELA" if "MOELA" in algorithms else algorithms[0]


def build_comparison_table(
    runs: RunMap,
    name: str,
    value_fn: Callable[[dict[str, OptimizationResult], str, str], float],
    target: str = "MOELA",
    baselines: tuple[str, ...] = BASELINES,
) -> TableResult:
    """Build one comparison table from a run map.

    ``value_fn(results, baseline, target)`` computes one cell.  Rows are the
    run map's applications in insertion order, columns every baseline at
    every objective count present (ascending).  A cell whose group lacks the
    target or the baseline is skipped, so a partially completed campaign
    still renders every comparable cell.
    """
    applications = tuple(dict.fromkeys(application for application, _ in runs))
    objective_counts = tuple(sorted({objectives for _, objectives in runs}))
    table = TableResult(name=name)
    for baseline in baselines:
        for num_objectives in objective_counts:
            for application in applications:
                results = runs.get((application, num_objectives))
                if results is None or target not in results or baseline not in results:
                    continue
                value = value_fn(results, baseline, target)
                table.cells.append(
                    ComparisonCell(application, baseline, num_objectives, value)
                )
    return table


def _speedup_value(measure: str) -> Callable[[dict[str, OptimizationResult], str, str], float]:
    def value_fn(results: dict[str, OptimizationResult], baseline: str, target: str) -> float:
        reference = common_reference_point(list(results.values()))
        return speedup_factor(results[baseline], results[target], reference, measure=measure)

    return value_fn


def _phv_gain_value(results: dict[str, OptimizationResult], baseline: str, target: str) -> float:
    reference = common_reference_point(list(results.values()))
    return 100.0 * phv_gain(results[target], results[baseline], reference)


# ---------------------------------------------------------------------- #
# The run map and its tables
# ---------------------------------------------------------------------- #
@dataclass
class StudyResult:
    """The runs of one comparison and the paper tables built from them.

    ``runs`` maps ``(application, num_objectives)`` to the per-algorithm
    :class:`~repro.moo.result.OptimizationResult` map.  ``algorithms`` lists
    the algorithms that ran, in run order; :attr:`target` is the one the
    tables compare *to* (MOELA when present) and :attr:`baselines` the rest.
    ``campaign`` carries the shard/manifest summary when the runs come from a
    campaign directory.  :meth:`repro.study.Study.run` (inline or campaign
    mode) and :func:`aggregate_campaign` both return one.
    """

    algorithms: tuple[str, ...]
    runs: RunMap
    campaign: "CampaignSummary | None" = None

    def __iter__(self) -> Iterator[tuple[str, int, str, OptimizationResult]]:
        """Yield ``(application, num_objectives, algorithm, result)`` rows."""
        for (application, num_objectives), group in self.runs.items():
            for algorithm, result in group.items():
                yield application, num_objectives, algorithm, result

    def result(
        self,
        algorithm: str,
        application: "str | None" = None,
        num_objectives: "int | None" = None,
    ) -> OptimizationResult:
        """One run's result; cell selectors may be omitted when unambiguous."""
        canonical = default_registry().canonical(algorithm)
        matches = [
            result
            for app, m, name, result in self
            if name == canonical
            and (application is None or app == application.upper())
            and (num_objectives is None or m == num_objectives)
        ]
        if not matches:
            raise KeyError(f"no result for {algorithm!r} ({application}, {num_objectives})")
        if len(matches) > 1:
            raise KeyError(
                f"{len(matches)} results match {algorithm!r}; pass application= and "
                "num_objectives= to disambiguate"
            )
        return matches[0]

    @property
    def target(self) -> str:
        """Comparison target of the tables: MOELA when present, else the first."""
        return comparison_target(self.algorithms)

    @property
    def baselines(self) -> tuple[str, ...]:
        """Every algorithm except the comparison target."""
        return tuple(name for name in self.algorithms if name != self.target)

    def table1(self, measure: str = "evaluations") -> TableResult:
        """Table I (speed-up of the target over each baseline)."""
        return build_comparison_table(
            self.runs,
            name=f"Table I: speed-up of {self.target}",
            value_fn=_speedup_value(measure),
            target=self.target,
            baselines=self.baselines,
        )

    def table2(self) -> TableResult:
        """Table II (PHV gain of the target over each baseline, %)."""
        return build_comparison_table(
            self.runs,
            name=f"Table II: PHV gain of {self.target} (%)",
            value_fn=_phv_gain_value,
            target=self.target,
            baselines=self.baselines,
        )

    def format_tables(self, measure: str = "evaluations") -> str:
        """Render Table I and Table II as text (needs >= 2 algorithms)."""
        return format_table(self.table1(measure)) + "\n\n" + format_table(self.table2())

    def robustness(self, quantiles: tuple[float, ...] = (0.5, 0.9)) -> RobustnessCertificate:
        """Robustness certificate over the campaign's fault-scenario grid.

        Campaign-mode only: the certificate is computed purely from the
        finished shards (see :mod:`repro.experiments.robustness`), so it
        never re-runs a cell.  Requires completed ``identity`` cells as the
        degradation baseline.
        """
        if self.campaign is None:
            raise ValueError(
                "robustness analyses read finished campaign shards; run the study "
                "in campaign mode (.campaign(output_dir)) with a scenarios axis"
            )
        return robustness_certificate(self.campaign.output_dir, quantiles=quantiles)

    def sensitivity(self) -> SensitivityMap:
        """Per-objective scenario sensitivity map from the campaign's shards."""
        if self.campaign is None:
            raise ValueError(
                "sensitivity maps read finished campaign shards; run the study "
                "in campaign mode (.campaign(output_dir)) with a scenarios axis"
            )
        return sensitivity_map(self.campaign.output_dir)

    def routing_cache_summary(self) -> dict[str, Any]:
        """Folded routing-engine counters across every run of the study.

        Inline runs share one problem (and therefore one routing engine) per
        ``(application, num_objectives)`` group and every result's metadata
        snapshot is *cumulative* over that engine, so the fold takes the last
        algorithm's snapshot per group — summing all snapshots would count
        earlier algorithms' requests once per later algorithm.  Campaign runs
        read the manifest's ``routing_cache`` record; when a campaign died
        before writing it, every cell's shard counters are summed instead,
        since each cell owns its engine.
        """
        if self.campaign is not None:
            if self.campaign.routing_cache is not None:
                return dict(self.campaign.routing_cache)
            output_dir = self.campaign.output_dir
            rollup = load_manifest(output_dir).get("rollup")
            return aggregate_routing_cache_stats(output_dir, self.campaign.cells, rollup)
        totals = {"hits": 0, "misses": 0, "incremental_repairs": 0}
        for group in self.runs.values():
            snapshots = [
                result.metadata.get("routing_cache")
                for result in group.values()
                if isinstance(result.metadata.get("routing_cache"), Mapping)
            ]
            if not snapshots:
                continue
            for key in totals:
                totals[key] += int(snapshots[-1].get(key, 0))
        requests = sum(totals.values())
        return {
            **totals,
            "requests": requests,
            "hit_rate": totals["hits"] / requests if requests else 0.0,
        }


def aggregate_campaign(output_dir: "str | Path", scenario: str = "identity") -> StudyResult:
    """Fold a campaign directory's finished shards into a :class:`StudyResult`.

    Loads every completed shard once (lazily, one at a time) and groups the
    results by ``(application, num_objectives)``; the tables render from the
    stored histories — no cell is ever re-run.  ``algorithms`` lists the
    algorithms with a completed cell, in manifest order, and ``campaign``
    summarises the directory as a resume that found every completed cell
    done (nothing executed, the manifest's routing-cache counters).

    ``scenario`` selects one fault-scenario slice of the grid (canonical
    scenario-model key; the default keeps the tables on the nominal
    ``"identity"`` cells, so faulted cells never mix into — or overwrite —
    the paper artefacts).  Cross-scenario comparisons live in
    :mod:`repro.experiments.robustness`.
    """
    output_dir = Path(output_dir)
    runs: RunMap = {}
    algorithms: dict[str, None] = {}
    completed: list[str] = []
    for cell, result in load_campaign_results(output_dir):
        completed.append(cell.key)
        if cell.scenario != scenario:
            continue
        runs.setdefault((cell.application, cell.num_objectives), {})[cell.algorithm] = result
        algorithms[cell.algorithm] = None
    manifest = load_manifest(output_dir)
    summary = CampaignSummary(
        output_dir=output_dir,
        manifest_path=output_dir / MANIFEST_NAME,
        cells=[CampaignCell.from_dict(entry) for entry in manifest["cells"]],
        executed=[],
        skipped=completed,
        routing_cache=manifest.get("routing_cache"),
    )
    return StudyResult(algorithms=tuple(algorithms), runs=runs, campaign=summary)


# ---------------------------------------------------------------------- #
# Fig. 3 — EDP overhead of the baselines relative to the target (5-obj)
# ---------------------------------------------------------------------- #
def build_figure3(
    experiment: ExperimentConfig,
    runs: RunMap,
    num_objectives: int = 5,
) -> TableResult:
    """Fig. 3: EDP overhead (%) of each baseline's designs vs the target's.

    The target and baselines are those of :class:`StudyResult`: MOELA when it
    ran (the first algorithm otherwise) against every other algorithm of the
    run map.  Uses the 5-objective runs (or the largest available scenario)
    and the paper's thermal-threshold design-selection rule; a cell whose
    group lacks the target or the baseline is skipped, as in the tables.
    """
    available = sorted({objectives for _, objectives in runs})
    if num_objectives not in available:
        num_objectives = available[-1]
    algorithms = tuple(dict.fromkeys(name for group in runs.values() for name in group))
    target = comparison_target(algorithms)
    figure = TableResult(name=f"Fig. 3: EDP overhead vs {target} ({num_objectives}-obj, %)")
    for application in dict.fromkeys(application for application, _ in runs):
        results = runs.get((application, num_objectives), {})
        if target not in results:
            continue
        workload = get_workload(application, experiment.platform, seed=experiment.seed)
        simulator = NocSimulator(workload)
        target_edp = edp_of_best_design(results[target], workload, simulator=simulator)
        for baseline in algorithms:
            if baseline == target or baseline not in results:
                continue
            baseline_edp = edp_of_best_design(results[baseline], workload, simulator=simulator)
            figure.cells.append(
                ComparisonCell(
                    application,
                    baseline,
                    num_objectives,
                    100.0 * edp_overhead(baseline_edp, target_edp),
                )
            )
    return figure


# ---------------------------------------------------------------------- #
# Text rendering
# ---------------------------------------------------------------------- #
def format_table(table: TableResult, value_format: str = "{:8.2f}") -> str:
    """Render a table with applications as rows and (baseline, scenario) columns."""
    columns = table.columns()
    header_cells = [f"{baseline} {objectives}-obj" for baseline, objectives in columns]
    width = max(12, max((len(h) for h in header_cells), default=12) + 2)
    lines = [table.name, ""]
    lines.append("App".ljust(10) + "".join(h.rjust(width) for h in header_cells))
    for application in table.applications():
        row = [application.ljust(10)]
        for baseline, objectives in columns:
            row.append(value_format.format(table.value(application, baseline, objectives)).rjust(width))
        lines.append("".join(row))
    average_row = ["Average".ljust(10)]
    for baseline, objectives in columns:
        average_row.append(value_format.format(table.column_average(baseline, objectives)).rjust(width))
    lines.append("".join(average_row))
    return "\n".join(lines)


def format_figure3(figure: TableResult) -> str:
    """Render the Fig. 3 data as a text table (EDP overhead in %)."""
    return format_table(figure, value_format="{:8.2f}")
