"""MOELA hyper-parameters (Section V.B of the paper).

The paper's published settings are ``N = 50`` designs, ``iter_early = 2``,
``gen = 1000`` generations, ``delta = 0.9`` and a training-set cap of 10 000
samples, with a 48-hour wall-clock stop.  :meth:`MOELAConfig.paper` returns
exactly those values; :meth:`MOELAConfig.reduced` is a laptop-scale setting
used by the benchmark harness and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import require, require_count, require_probability


@dataclass(frozen=True)
class MOELAConfig:
    """Hyper-parameters of the MOELA framework (Algorithm 1).

    Parameters
    ----------
    population_size:
        ``N`` — number of designs / decomposition sub-problems.
    generations:
        ``gen`` — number of MOELA iterations (each runs local searches, Eval
        training and one EA pass).
    iter_early:
        Iterations during which local-search starting points are chosen at
        random (not enough training data for the Eval model yet).
    n_local:
        Number of local searches launched per iteration.
    delta:
        Probability of drawing EA parents from the sub-problem neighbourhood
        rather than the whole population.
    neighborhood_size:
        ``T`` — number of closest weight vectors forming a neighbourhood.
    replacement_limit:
        Maximum number of neighbours an offspring may replace during the
        population update (standard MOEA/D setting).
    mutation_probability:
        Probability that an EA offspring additionally receives a random
        mutation move after crossover.
    local_search_steps, local_search_neighbors, local_search_patience:
        Greedy-descent budget of each Eq.-8 local search.
    max_training_samples:
        Cap on the aggregated trajectory training set ``|S_train|``.
    forest_size, forest_depth:
        Random-forest hyper-parameters of the Eval model.
    seed:
        Base RNG seed for the whole run.
    """

    population_size: int = 50
    generations: int = 1000
    iter_early: int = 2
    n_local: int = 5
    delta: float = 0.9
    neighborhood_size: int = 10
    replacement_limit: int = 2
    mutation_probability: float = 0.3
    local_search_steps: int = 25
    local_search_neighbors: int = 4
    local_search_patience: int = 3
    max_training_samples: int = 10_000
    forest_size: int = 30
    forest_depth: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        for name, minimum in (
            ("population_size", 4),
            ("generations", 1),
            ("iter_early", 0),
            ("n_local", 1),
            ("neighborhood_size", 2),
            ("replacement_limit", 1),
            ("local_search_steps", 1),
            ("local_search_neighbors", 1),
            ("local_search_patience", 1),
            ("max_training_samples", 1),
            ("forest_size", 1),
            ("forest_depth", 1),
            ("seed", 0),
        ):
            object.__setattr__(self, name, require_count(getattr(self, name), name, minimum))
        require(
            self.n_local <= self.population_size,
            "n_local cannot exceed the population size",
        )
        require_probability(self.delta, "delta")
        require_probability(self.mutation_probability, "mutation_probability")

    @classmethod
    def paper(cls, seed: int = 0) -> "MOELAConfig":
        """The published parameter set of Section V.B."""
        return cls(
            population_size=50,
            generations=1000,
            iter_early=2,
            n_local=5,
            delta=0.9,
            neighborhood_size=10,
            max_training_samples=10_000,
            seed=seed,
        )

    @classmethod
    def reduced(cls, seed: int = 0) -> "MOELAConfig":
        """Laptop-scale parameters used by the benchmark harness."""
        return cls(
            population_size=16,
            generations=1_000,
            iter_early=2,
            n_local=2,
            delta=0.9,
            neighborhood_size=6,
            local_search_steps=6,
            local_search_neighbors=2,
            max_training_samples=2_000,
            forest_size=12,
            forest_depth=8,
            seed=seed,
        )

    @classmethod
    def smoke(cls, seed: int = 0) -> "MOELAConfig":
        """Minimal parameters for unit tests."""
        return cls(
            population_size=6,
            generations=3,
            iter_early=1,
            n_local=2,
            delta=0.9,
            neighborhood_size=3,
            local_search_steps=3,
            local_search_neighbors=2,
            max_training_samples=500,
            forest_size=5,
            forest_depth=5,
            seed=seed,
        )
