"""In-memory span tracer that wraps each layer's public entry points at runtime.

The program itself carries no instrumentation: :meth:`LayerTracer.attach`
replaces the entry points listed by :func:`layer_entry_points` with wrappers
that record one span per call (name, start, end, parent) and
:meth:`LayerTracer.detach` restores the originals.  Spans stay in memory until
:meth:`LayerTracer.dump` writes them as JSON; :func:`layer_totals` turns the
spans back into per-layer call counts and self times (a span's duration minus
the part its child spans cover).
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

#: Name of the root span around one search.  Its self time is everything the
#: wrapped layers do not cover: selection, decomposition, loop bookkeeping.
ROOT = "moo.optimizer"

#: Every layer the traced run reports, in report order (the root last).
LAYERS: tuple[str, ...] = (
    "noc.variation",
    "noc.link_repair",
    "noc.routing",
    "objectives",
    "core.features",
    "ml.fit",
    "ml.predict",
    "moo.hypervolume",
    "moo.archive",
    "moo.sort",
    ROOT,
)


def layer_entry_points(problem: Any) -> list[tuple[Any, str, str]]:
    """``(owner, attribute, layer)`` for every entry point wrapped for ``problem``.

    Instance attributes shadow the bound methods of this one problem, module
    attributes replace a name where the optimisers bind it, and class
    attributes cover objects the optimisers construct themselves.
    """
    import repro.moo.moo_stage as moo_stage
    import repro.moo.moos as moos
    import repro.moo.nsga2 as nsga2
    import repro.noc.crossover as crossover
    from repro.ml.forest import RandomForestRegressor
    from repro.moo.archive import ParetoArchive

    evaluator = problem.evaluator
    points: list[tuple[Any, str, str]] = [
        (problem, name, "noc.variation")
        for name in ("crossover", "mutate", "neighbor", "random_design")
    ]
    points.append((crossover, "repair_links", "noc.link_repair"))
    if evaluator.routing_engine is not None:
        points.append((evaluator.routing_engine, "tables", "noc.routing"))
    points += [
        (evaluator, "evaluate", "objectives"),
        (evaluator, "evaluate_many", "objectives"),
        (problem.featurizer, "features", "core.features"),
        (RandomForestRegressor, "fit", "ml.fit"),
        (RandomForestRegressor, "predict", "ml.predict"),
    ]
    points += [
        (module, name, "moo.hypervolume")
        for module in (moos, moo_stage)
        for name in ("hypervolume", "hypervolume_contribution")
    ]
    points += [
        (ParetoArchive, "add", "moo.archive"),
        (nsga2, "fast_non_dominated_sort", "moo.sort"),
    ]
    return points


class LayerTracer:
    """Records nested spans around wrapped callables, single-threaded."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index]`` per span, in start order.
        self.spans: list[list[Any]] = []
        self._open: list[int] = []
        # (owner, attribute, original or None when it was not set on owner)
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recording one ``name`` span per call."""
        spans, open_spans = self.spans, self._open

        def traced(*args: Any, **kwargs: Any) -> Any:
            record = [name, perf_counter(), 0.0, open_spans[-1] if open_spans else -1]
            open_spans.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                open_spans.pop()

        return traced

    def attach(self, points: list[tuple[Any, str, str]]) -> None:
        """Replace every ``owner.attribute`` by its traced wrapper."""
        for owner, attribute, layer in points:
            self._patches.append((owner, attribute, vars(owner).get(attribute)))
            setattr(owner, attribute, self.wrap(layer, getattr(owner, attribute)))

    def detach(self) -> None:
        """Restore every wrapped attribute, last patch first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def dump(self, path: Path, counters: dict[str, Any]) -> None:
        """Write the spans and end-of-run counters as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"fields": ["name", "start", "end", "parent"], "spans": self.spans, "counters": counters}
        path.write_text(json.dumps(payload))


def layer_totals(spans: list[list[Any]]) -> dict[str, dict[str, float]]:
    """Per-layer ``{"calls", "s"}`` with ``s`` the summed self time.

    Spans nest strictly (one thread, wrappers close in LIFO order), so the
    part of a span its children cover is the sum of its direct children's
    durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = {layer: {"calls": 0, "s": 0.0} for layer in LAYERS}
    for (name, start, end, _), child_time in zip(spans, covered):
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start - child_time
    return totals
