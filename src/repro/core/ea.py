"""MOELA's decomposition-based EA step (Section IV.C).

One EA pass visits every sub-problem, mates two parents drawn from the
sub-problem's weight-vector neighbourhood (with probability ``delta``; the
whole population otherwise), applies crossover and mutation, and updates the
parent pool by Tchebycheff value (Eq. 9/10) — the MOEA/D machinery, so the
hybrid's gain over the MOEA/D baseline mostly isolates the effect of the
ML-guided local search.

Unlike the steady-state :class:`repro.moo.moead.MOEAD` baseline (which stays
faithful to Zhang & Li), this pass runs *generationally* so the whole brood
of offspring can be scored through one batch-evaluation call (see
:meth:`DecompositionEA.evolve`), which is what lets the vectorized objective
engine amortise routing and caching across the population.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.moo.problem import Problem
from repro.moo.scalarization import tchebycheff
from repro.utils.rng import RngLike, ensure_rng
from repro.utils.validation import require_count, require_probability


class DecompositionEA:
    """Neighbourhood-mating, Tchebycheff-updating EA pass over a population."""

    def __init__(
        self,
        problem: Problem,
        weights: np.ndarray,
        neighbor_index: np.ndarray,
        delta: float = 0.9,
        replacement_limit: int = 2,
        mutation_probability: float = 0.3,
    ):
        self.problem = problem
        self.weights = np.asarray(weights, dtype=np.float64)
        self.neighbor_index = np.asarray(neighbor_index, dtype=np.int64)
        self.delta = require_probability(delta, "delta")
        self.replacement_limit = require_count(replacement_limit, "replacement_limit", 1)
        self.mutation_probability = require_probability(
            mutation_probability, "mutation_probability"
        )

    def evolve(
        self,
        designs: list[Any],
        objectives: np.ndarray,
        reference: np.ndarray,
        scale: np.ndarray | None = None,
        rng: RngLike = None,
        evaluate_many: Callable[[list[Any]], np.ndarray] | None = None,
        should_stop: Callable[[], bool] | None = None,
        max_children: int | None = None,
    ) -> np.ndarray:
        """One EA generation; mutates ``designs``/``objectives`` in place.

        ``scale`` is the per-objective normalisation span used inside the
        Tchebycheff update.  Returns the (possibly improved) reference point.

        The pass is generational: every sub-problem's offspring is mated from
        the start-of-generation population, then the whole brood is scored in
        one ``evaluate_many`` call (default ``problem.evaluate_many``), and
        finally the Tchebycheff pool updates are applied with the brood-wide
        updated reference point.  All random draws (mating pools, parents,
        variation, update permutations) happen during offspring generation,
        so a per-child evaluation loop would consume the RNG identically.

        ``should_stop`` is consulted once, before the generation starts.  To
        keep evaluation-budget comparisons fair against the sequential
        baselines, pass ``max_children`` (the remaining evaluation budget):
        the brood is trimmed to it, so the pass never overshoots.  Without it,
        a budget that exhausts mid-generation overshoots by at most
        ``population - 1`` evaluations (the price of scoring the brood in one
        batch call).
        """
        rng = ensure_rng(rng)
        if evaluate_many is None:
            evaluate_many = self.problem.evaluate_many
        reference = np.asarray(reference, dtype=np.float64).copy()
        population = len(designs)
        brood_size = population if max_children is None else min(population, max(0, max_children))
        if brood_size == 0 or (should_stop is not None and should_stop()):
            return reference

        children: list[Any] = []
        pools: list[np.ndarray] = []
        update_orders: list[np.ndarray] = []
        for sub_problem in range(brood_size):
            pool = self._mating_pool(sub_problem, population, rng)
            parent_a, parent_b = rng.choice(pool, size=2, replace=False)
            child = self.problem.crossover(designs[int(parent_a)], designs[int(parent_b)], rng)
            if rng.random() < self.mutation_probability:
                child = self.problem.mutate(child, rng)
            children.append(child)
            pools.append(pool)
            update_orders.append(rng.permutation(len(pool)))

        child_objs = np.asarray(evaluate_many(children), dtype=np.float64)
        reference = np.minimum(reference, child_objs.min(axis=0))

        for child, child_obj, pool, order in zip(children, child_objs, pools, update_orders):
            self._update_pool(
                pool, child, child_obj, designs, objectives, reference, scale, order
            )
        return reference

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _mating_pool(self, sub_problem: int, population: int, rng) -> np.ndarray:
        if rng.random() < self.delta:
            return self.neighbor_index[sub_problem]
        return np.arange(population)

    def _update_pool(
        self,
        pool: np.ndarray,
        child: Any,
        child_obj: np.ndarray,
        designs: list[Any],
        objectives: np.ndarray,
        reference: np.ndarray,
        scale: np.ndarray | None,
        order: np.ndarray,
    ) -> None:
        replaced = 0
        for idx in order:
            member = int(pool[int(idx)])
            incumbent_value = tchebycheff(objectives[member], self.weights[member], reference, scale)
            child_value = tchebycheff(child_obj, self.weights[member], reference, scale)
            if child_value < incumbent_value:
                designs[member] = child
                objectives[member] = child_obj
                replaced += 1
                if replaced >= self.replacement_limit:
                    break
