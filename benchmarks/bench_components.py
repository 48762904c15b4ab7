"""Micro-benchmarks of the substrate components.

These do not map to a paper artefact directly; they document where the search
time goes (objective evaluation, routing, hypervolume, the Eval forest) and
guard against performance regressions in the pieces every optimiser calls in
its inner loop.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.features import DesignFeaturizer
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import make_problem, run_algorithm
from repro.ml.forest import RandomForestRegressor
from repro.ml.scaler import StandardScaler
from repro.moo.hypervolume import hypervolume, hypervolume_contribution
from repro.moo.termination import Budget
from repro.noc.constraints import is_connected, random_design, random_link_placement
from repro.noc.crossover import crossover, crossover_links, crossover_placement
from repro.noc.design import NocDesign, move_delta_of
from repro.noc.moves import MoveGenerator
from repro.noc.platform import PlatformConfig
from repro.noc.repair import repair_links
from repro.noc.routing import RoutingTables
from repro.noc.routing_engine import RoutingEngine
from repro.objectives.evaluator import ObjectiveEvaluator, scenario_for
from repro.simulation.simulator import NocSimulator
from repro.workloads.registry import get_workload
from tests.golden.test_front_fingerprints import front_fingerprint
from tests.oracles import pareto as pareto_oracle
from tests.oracles.constraints import random_link_placement_reference, repair_links_reference
from tests.oracles.objectives import evaluate_reference
from tests.oracles.routing import scipy_distances, tree_link_loads
from tests.oracles.simulation import simulate_reference
from tests.oracles.tree import RandomForestRegressor as OracleForest

PLATFORM = PlatformConfig.small_3x3x3()
WORKLOAD = get_workload("BFS", PLATFORM, seed=0)
DESIGNS = [random_design(PLATFORM, seed) for seed in range(8)]
#: Population-sized batch used by the batch-evaluation benches (32 designs,
#: matching a typical optimiser population).
POPULATION = [random_design(PLATFORM, seed) for seed in range(100, 132)]


@pytest.mark.benchmark(group="components")
def test_objective_evaluation_5obj(benchmark):
    """Full 5-objective evaluation of one design (routing + Eqs. 1-7)."""
    evaluator = ObjectiveEvaluator(WORKLOAD, scenario_for(5), cache_size=0)
    index = {"i": 0}

    def evaluate_next():
        index["i"] = (index["i"] + 1) % len(DESIGNS)
        return evaluator.evaluate(DESIGNS[index["i"]])

    values = benchmark(evaluate_next)
    assert np.all(values >= 0)


@pytest.mark.benchmark(group="components")
def test_batch_evaluation_5obj_population(benchmark):
    """Vectorized 5-objective batch evaluation of a 32-design population."""
    evaluator = ObjectiveEvaluator(WORKLOAD, scenario_for(5), cache_size=0)
    matrix = benchmark(lambda: evaluator.evaluate_many(POPULATION))
    assert matrix.shape == (len(POPULATION), 5)
    assert np.all(matrix >= 0)


@pytest.mark.benchmark(group="components")
def test_scalar_reference_evaluation_5obj_population(benchmark):
    """Looped scalar-reference 5-objective evaluation of the same population."""
    evaluator = ObjectiveEvaluator(WORKLOAD, scenario_for(5), cache_size=0)
    matrix = benchmark(
        lambda: np.array([evaluate_reference(evaluator, d) for d in POPULATION])
    )
    assert matrix.shape == (len(POPULATION), 5)


@pytest.mark.perf
def test_batch_evaluation_speedup_and_equivalence():
    """The batch engine is >= 3x faster than the looped scalar reference and exact.

    Not a pytest-benchmark case on purpose: it asserts the acceptance
    criterion (3x throughput on a 32-design 5-objective population) directly.
    Marked ``perf`` so noisy environments can deselect it structurally with
    ``-m "not perf"`` (the CI smoke job does).
    """
    import time

    evaluator = ObjectiveEvaluator(WORKLOAD, scenario_for(5), cache_size=0)
    # Warm-up outside the timed sections (imports, allocator, BLAS threads).
    evaluator.evaluate_many(POPULATION[:2])
    evaluate_reference(evaluator, POPULATION[0])

    start = time.perf_counter()
    batch = evaluator.evaluate_many(POPULATION)
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    scalar = np.array([evaluate_reference(evaluator, d) for d in POPULATION])
    scalar_seconds = time.perf_counter() - start

    np.testing.assert_allclose(batch, scalar, rtol=1e-12)
    speedup = scalar_seconds / batch_seconds
    print(f"batch {batch_seconds * 1e3:.1f} ms vs scalar {scalar_seconds * 1e3:.1f} ms "
          f"-> {speedup:.1f}x")
    assert speedup >= 3.0, f"batch evaluation only {speedup:.2f}x faster than scalar loop"


@pytest.mark.perf
def test_batched_nsga2_brood_scoring_speedup_and_equivalence():
    """Batched NSGA-II offspring scoring is >= 3x faster than the looped scalar path.

    Mates one 32-design offspring brood exactly as the batched
    :meth:`NSGA2.step` does, then scores it once through ``evaluate_many``
    and once through the looped scalar-reference evaluation the pre-batch
    implementation used per child.  Marked ``perf`` (structural deselect with
    ``-m "not perf"``) because shared CI runners are too noisy for wall-clock
    thresholds — same pattern as the batch-engine test above.
    """
    import time

    from repro.core.problem import NocDesignProblem
    from repro.moo.nsga2 import NSGA2

    problem = NocDesignProblem(WORKLOAD, scenario=5, cache_size=0)
    optimizer = NSGA2(problem, population_size=32, rng=11)
    optimizer.initialize()
    brood = [optimizer._mate_one() for _ in range(optimizer.population_size)]

    evaluator = problem.evaluator
    evaluator.evaluate_many(brood[:2])  # warm-up
    evaluate_reference(evaluator, brood[0])

    start = time.perf_counter()
    batch = evaluator.evaluate_many(brood)
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    scalar = np.array([evaluate_reference(evaluator, design) for design in brood])
    scalar_seconds = time.perf_counter() - start

    np.testing.assert_allclose(batch, scalar, rtol=1e-12)
    speedup = scalar_seconds / batch_seconds
    print(f"brood batch {batch_seconds * 1e3:.1f} ms vs scalar {scalar_seconds * 1e3:.1f} ms "
          f"-> {speedup:.1f}x")
    assert speedup >= 3.0, f"batched brood scoring only {speedup:.2f}x faster than scalar loop"


@pytest.mark.benchmark(group="campaign")
def test_campaign_two_cell_grid(benchmark, tmp_path):
    """End-to-end 2-cell sharded campaign (manifest + shards + resume check)."""
    from repro.experiments.config import CampaignConfig, ExperimentConfig
    from repro.experiments.runner import campaign_status, run_campaign

    campaign = CampaignConfig(
        experiment=ExperimentConfig.smoke(),
        algorithms=("MOEA/D", "NSGA-II"),
        max_evaluations=40,
        resume=False,
    )
    runs = {"i": 0}

    def run_once():
        runs["i"] += 1
        return run_campaign(campaign, tmp_path / str(runs["i"]))

    summary = benchmark(run_once)
    assert len(summary.executed) == 2
    assert all(campaign_status(summary.output_dir).values())


@pytest.mark.benchmark(group="campaign")
def test_campaign_resume_scan(benchmark, tmp_path):
    """Resuming a fully completed campaign is a cheap manifest/shard scan."""
    from repro.experiments.config import CampaignConfig, ExperimentConfig
    from repro.experiments.runner import run_campaign

    campaign = CampaignConfig(
        experiment=ExperimentConfig.smoke(),
        algorithms=("MOEA/D", "NSGA-II"),
        max_evaluations=40,
    )
    run_campaign(campaign, tmp_path)
    summary = benchmark(lambda: run_campaign(campaign, tmp_path))
    assert not summary.executed and len(summary.skipped) == 2


# ---------------------------------------------------------------------- #
# Routing-cache benchmark (RoutingEngine): fresh vs cached vs incremental
# ---------------------------------------------------------------------- #
#: Where the routing-cache benchmark records its numbers (perf trajectory).
BENCH_ROUTING_PATH = Path(__file__).resolve().parent.parent / "BENCH_routing.json"

#: Format tag of ``BENCH_routing.json`` (v2: one flat ``runs`` list, each run
#: self-describing with ``name``/``platform`` — v1 embedded the 64-tile
#: worker sweep inside the 27-tile routing-cache record).
BENCH_ROUTING_FORMAT = "repro-bench-routing/2"


def _update_bench_json(run: dict) -> None:
    """Insert or replace one named run in ``BENCH_routing.json``.

    Every bench writes a self-describing run dict (``name`` key required);
    runs are merged by name so the benches execute in any order (or alone)
    and keep each other's numbers.  A v1 file (no ``format`` tag) is
    replaced wholesale — its sections did not carry names to merge on.
    """
    payload: dict = {"format": BENCH_ROUTING_FORMAT, "runs": []}
    if BENCH_ROUTING_PATH.exists():
        try:
            existing = json.loads(BENCH_ROUTING_PATH.read_text())
        except json.JSONDecodeError:
            existing = {}
        if existing.get("format") == BENCH_ROUTING_FORMAT:
            payload["runs"] = [
                entry for entry in existing.get("runs", []) if entry.get("name") != run["name"]
            ]
    payload["runs"].append(run)
    payload["runs"].sort(key=lambda entry: entry["name"])
    BENCH_ROUTING_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def _neighbor_broods(size: int = 64, seed: int = 42, platform=None, workload=None):
    """One parent plus four neighbour broods of ``size`` designs each.

    ``placement`` holds placement-only moves (swap_pe / swap_llc /
    pull_communicating_pair — the cache-hit tier), ``mixed`` the natural
    ``random_neighbor`` mix a local search generates, ``rewire`` pure
    link rewires (the incremental-repair tier) and ``crossover`` the
    children of the parent and a random mate whose link delta points at the
    parent, as an EA's offspring brood does (tens of changed links: built
    fresh).
    """
    platform = platform if platform is not None else PLATFORM
    workload = workload if workload is not None else WORKLOAD
    moves = MoveGenerator(platform, workload)
    parent = random_design(platform, 0)
    rng = np.random.default_rng(seed)
    placement_ops = [moves.swap_pe, moves.swap_llc, moves.pull_communicating_pair]
    placement: list = []
    while len(placement) < size:
        candidate = placement_ops[int(rng.integers(len(placement_ops)))](parent, rng)
        if candidate is not None:
            placement.append(candidate)
    mixed = [moves.random_neighbor(parent, rng) for _ in range(size)]
    rewire: list = []
    while len(rewire) < size:
        candidate = moves.rewire_link(parent, rng)
        if candidate is not None:
            rewire.append(candidate)
    mates = [random_design(platform, rng) for _ in range(4)]
    offspring: list = []
    while len(offspring) < size:
        child = crossover(parent, mates[int(rng.integers(len(mates)))], platform, rng)
        if move_delta_of(child).parent_links == parent.links:
            offspring.append(child)
    return parent, {
        "placement": placement,
        "mixed": mixed,
        "rewire": rewire,
        "crossover": offspring,
    }


def _time_brood(routing_cache: bool, parent, brood, workload=None) -> tuple[float, np.ndarray, dict]:
    """Seconds to batch-evaluate ``brood`` with the engine on or off.

    The parent is evaluated first (outside the timed section) so the engine
    starts with the parent topology cached — exactly the state a local search
    is in when it scores a neighbour brood.
    """
    workload = workload if workload is not None else WORKLOAD
    evaluator = ObjectiveEvaluator(
        workload, scenario_for(5), cache_size=0, routing_cache=routing_cache
    )
    evaluator.evaluate(parent)
    start = time.perf_counter()
    matrix = evaluator.evaluate_many(brood)
    return time.perf_counter() - start, matrix, evaluator.routing_cache_stats()


def run_routing_cache_bench(size: int = 64, repeats: int = 3) -> dict:
    """Measure the routing cache on the three brood kinds and build the payload.

    Each (brood, mode) pair is timed ``repeats`` times and the best time kept
    (standard micro-benchmark practice: the minimum is the least noisy
    estimator).  Equivalence (engine on == engine off, bit-identical) is
    asserted as part of the run.
    """
    parent, broods = _neighbor_broods(size=size)
    payload: dict = {
        "platform": PLATFORM.name,
        "workload": WORKLOAD.name,
        "scenario": "5-obj",
        "brood_size": size,
        "broods": {},
    }
    for name, brood in broods.items():
        fresh_best = cached_best = float("inf")
        stats: dict = {}
        for _ in range(repeats):
            fresh_seconds, fresh_matrix, _ = _time_brood(False, parent, brood)
            cached_seconds, cached_matrix, stats = _time_brood(True, parent, brood)
            np.testing.assert_array_equal(fresh_matrix, cached_matrix)
            fresh_best = min(fresh_best, fresh_seconds)
            cached_best = min(cached_best, cached_seconds)
        payload["broods"][name] = {
            "fresh_seconds": fresh_best,
            "cached_seconds": cached_best,
            "speedup": fresh_best / cached_best,
            "engine": {
                key: stats[key]
                for key in ("hits", "misses", "incremental_repairs", "hit_rate")
            },
        }
    return payload


def test_routing_cache_bench_writes_json():
    """Routing-cache bench: record fresh/cached/incremental timings to disk.

    No wall-clock thresholds here (runs on noisy CI); the assertion half
    lives in :func:`test_routing_cache_speedup_placement_brood` behind the
    ``perf`` marker.  Writes ``BENCH_routing.json`` at the repo root, seeding
    the perf trajectory with the engine's numbers.
    """
    payload = run_routing_cache_bench()
    _update_bench_json({"name": "routing_cache", **payload})
    for name, entry in payload["broods"].items():
        print(f"{name}: fresh {entry['fresh_seconds'] * 1e3:.1f} ms vs "
              f"cached {entry['cached_seconds'] * 1e3:.1f} ms -> {entry['speedup']:.2f}x "
              f"(hits={entry['engine']['hits']} repairs={entry['engine']['incremental_repairs']})")
    placement = payload["broods"]["placement"]["engine"]
    assert placement["hits"] > 0 and placement["misses"] <= 1
    rewire = payload["broods"]["rewire"]["engine"]
    assert rewire["incremental_repairs"] > 0


@pytest.mark.perf
def test_routing_cache_speedup_placement_brood():
    """The engine is >= 2x faster on a placement-move-dominated neighbour brood.

    This is the acceptance criterion of the RoutingEngine work: placement
    moves dominate local-search broods, their children share the parent's
    link set, and the engine serves them from the cache without building a
    single table.  Marked ``perf`` so noisy environments can deselect it
    structurally with ``-m "not perf"`` (the CI test job does).
    """
    payload = run_routing_cache_bench()
    speedup = payload["broods"]["placement"]["speedup"]
    print(f"placement-brood routing-cache speedup: {speedup:.2f}x")
    assert speedup >= 2.0, f"routing cache only {speedup:.2f}x on a placement brood"


# ---------------------------------------------------------------------- #
# Big-grid trajectory: 27/64/256 tiles x brood kinds
# ---------------------------------------------------------------------- #
#: Platforms of the big-grid trajectory, smallest to largest.
BIG_GRID_PLATFORMS = {
    "small-3x3x3": PlatformConfig.small_3x3x3,
    "paper-4x4x4": PlatformConfig.paper_4x4x4,
    "big-8x8x4": PlatformConfig.big_8x8x4,
}

#: Brood size of the big-grid benches.  ``BENCH_BIG_GRID_BROOD`` overrides it
#: (the CI perf-smoke job runs a reduced brood to bound runner time).
BIG_GRID_BROOD = int(os.environ.get("BENCH_BIG_GRID_BROOD", "32"))

_BIG_GRID_RESULTS: dict[str, dict] = {}


def run_big_grid_bench(
    platform_name: str,
    brood_size: int = BIG_GRID_BROOD,
    repeats: int = 2,
) -> dict:
    """One platform's slice of the big-grid trajectory.

    Serial batch evaluation of neighbour broods of a common parent (the
    state a local search is in) with the routing engine off (fresh builds)
    vs on (hits / incremental repairs), per brood kind.  The rewire brood is
    the pair-granular repair's gate.  ``table_bytes`` is the array
    memory of the parent's routing table once every objective has read it:
    what each cached topology costs the engine.
    """
    platform = BIG_GRID_PLATFORMS[platform_name]()
    workload = get_workload("BFS", platform, seed=0)
    parent, broods = _neighbor_broods(
        size=brood_size, platform=platform, workload=workload
    )
    evaluator = ObjectiveEvaluator(workload, scenario_for(5), cache_size=0)
    evaluator.evaluate(parent)
    entry: dict = {
        "name": f"big_grid/{platform.name}",
        "platform": platform.name,
        "tiles": platform.num_tiles,
        "workload": workload.name,
        "scenario": "5-obj",
        "brood_size": brood_size,
        "table_bytes": evaluator.routing_engine.tables(parent).nbytes,
        "broods": {},
    }
    for name, brood in broods.items():
        fresh_best = cached_best = float("inf")
        stats: dict = {}
        for _ in range(repeats):
            fresh_seconds, fresh_matrix, _ = _time_brood(False, parent, brood, workload)
            cached_seconds, cached_matrix, stats = _time_brood(True, parent, brood, workload)
            np.testing.assert_array_equal(fresh_matrix, cached_matrix)
            fresh_best = min(fresh_best, fresh_seconds)
            cached_best = min(cached_best, cached_seconds)
        entry["broods"][name] = {
            "fresh_seconds": fresh_best,
            "cached_seconds": cached_best,
            "speedup": fresh_best / cached_best,
            "engine": {
                key: stats[key]
                for key in ("hits", "misses", "incremental_repairs", "hit_rate")
            },
        }
    return entry


def _big_grid_entry(platform_name: str) -> dict:
    """Memoised :func:`run_big_grid_bench` so the gates share one measurement."""
    if platform_name not in _BIG_GRID_RESULTS:
        _BIG_GRID_RESULTS[platform_name] = run_big_grid_bench(platform_name)
    return _BIG_GRID_RESULTS[platform_name]


def _print_big_grid_entry(entry: dict) -> None:
    print(f"{entry['platform']} ({entry['tiles']} tiles, brood {entry['brood_size']}, "
          f"table {entry['table_bytes'] / 2**20:.2f} MiB):")
    for name, brood in entry["broods"].items():
        print(f"  {name}: fresh {brood['fresh_seconds'] * 1e3:.1f} ms vs "
              f"cached {brood['cached_seconds'] * 1e3:.1f} ms -> {brood['speedup']:.2f}x")


@pytest.mark.perf
def test_big_grid_trajectory_writes_json():
    """Record the 27/64/256-tile trajectory into ``BENCH_routing.json``.

    Perf-marked (it spends minutes of wall clock at 256 tiles) and selected
    by the CI perf-smoke job via ``-m perf -k big_grid``.  The wall-clock
    gate assertion lives in the companion test below; this one only
    measures, checks bit-identity (inside :func:`run_big_grid_bench`) and
    writes the refreshed trajectory.
    """
    for platform_name in BIG_GRID_PLATFORMS:
        entry = _big_grid_entry(platform_name)
        _update_bench_json(entry)
        _print_big_grid_entry(entry)


@pytest.mark.perf
def test_big_grid_rewire_repair_speedup():
    """Pair-granular repair gate: rewire-brood engine >= 1.5x fresh at 256 tiles.

    The v1 trajectory measured 0.83x here — canonical pair-table assembly
    swamped the saved Dijkstra re-runs — and row-block adoption lifted it to
    1.06-1.30x.  A repair now re-derives only the distances and
    predecessors a rewire changes, then builds the child's route-tree
    levels as a fresh table does, so it must clearly beat a fresh build on
    the repair-heaviest brood at the scale that motivated it.
    """
    entry = _big_grid_entry("big-8x8x4")
    speedup = entry["broods"]["rewire"]["speedup"]
    print(f"256-tile rewire-brood repair speedup: {speedup:.2f}x")
    assert speedup >= 1.5, f"rewire repair only {speedup:.2f}x vs fresh at 256 tiles"


@pytest.mark.perf
def test_crossover_brood_built_fresh():
    """Crossover children are built fresh, and at 64 tiles the engine keeps pace (>= 0.95x).

    A crossover child changes 60 or more of a 64-tile design's 144 links in
    this brood, where a repair costs more than a fresh build (about 0.7x
    from 12 changed links on).  The engine's ``max_repair_fraction`` stops
    at the break-even, so these children are built fresh at 64 and 256
    tiles and the engine only adds its lookup.  Engine and fresh builds are
    then nearly equal, so the 64-tile gate takes the median ratio of eleven
    rounds, each timing both sides back to back in alternating order.  At 256 tiles the wall
    clock is not gated: the engine keeps the tables it builds up to its byte
    budget (a brood's 1.5 MB tables all fit the default), and the fresh
    pages those tables need cost a miss-only brood about 10-15% against
    fresh builds whose memory is reused, whatever the repair budget.
    """
    for platform_name in ("paper-4x4x4", "big-8x8x4"):
        brood = _big_grid_entry(platform_name)["broods"]["crossover"]
        print(f"{platform_name} crossover brood: {brood['speedup']:.2f}x fresh "
              f"(repairs={brood['engine']['incremental_repairs']})")
        assert brood["engine"]["incremental_repairs"] == 0
    platform = BIG_GRID_PLATFORMS["paper-4x4x4"]()
    workload = get_workload("BFS", platform, seed=0)
    parent, broods = _neighbor_broods(size=BIG_GRID_BROOD, platform=platform, workload=workload)
    ratios = []
    for round_index in range(11):
        seconds = {}
        for engine in (True, False) if round_index % 2 == 0 else (False, True):
            seconds[engine], _, _ = _time_brood(engine, parent, broods["crossover"], workload)
        ratios.append(seconds[False] / seconds[True])
    speedup = float(np.median(ratios))
    print(f"paper-4x4x4 crossover brood, median of 11 rounds: {speedup:.2f}x fresh "
          f"(range {min(ratios):.2f}-{max(ratios):.2f})")
    assert speedup >= 0.95, f"crossover brood {speedup:.2f}x vs fresh at 64 tiles"


@pytest.mark.perf
def test_random_link_placement_speedup():
    """Bulk-drawn link placement is >= 2x the scalar-draw oracle at 64 tiles, and exact.

    ``random_link_placement`` reads its frontier indices from bulk-drawn
    words; the oracle makes one ``rng.integers`` call per frontier pop.
    Rounds alternate which side runs first, and each round gives both sides
    the same seed, so they build the same placements; both run in this
    process, so the gate needs no particular CPU count.
    """
    config = PlatformConfig.paper_4x4x4()
    random_link_placement(config, 0)  # warm-up: per-platform candidate tables
    sides = {"bulk": random_link_placement, "scalar": random_link_placement_reference}
    seconds: dict[str, list[float]] = {name: [] for name in sides}
    for round_index in range(6):
        order = list(sides) if round_index % 2 == 0 else list(reversed(sides))
        outputs = {}
        for name in order:
            rng = np.random.default_rng(round_index)
            start = time.perf_counter()
            outputs[name] = [sides[name](config, rng) for _ in range(10)]
            seconds[name].append(time.perf_counter() - start)
            outputs[name].append(rng.bit_generator.state)
        assert outputs["bulk"] == outputs["scalar"]
    bulk, scalar = np.median(seconds["bulk"]), np.median(seconds["scalar"])
    speedup = scalar / bulk
    print(f"paper-4x4x4 link placement: bulk {bulk * 100:.2f} ms vs scalar "
          f"{scalar * 100:.2f} ms per placement -> {speedup:.2f}x")
    assert speedup >= 2.0, f"bulk link placement only {speedup:.2f}x the scalar-draw oracle"


@pytest.mark.perf
def test_big_grid_link_repair_speedup():
    """Link repair is >= 3x its oracle on disconnected 256-tile crossover children, and exact.

    The retired ``repair_links`` scanned every link of the bridge's kind for
    redundancy (one connectivity search each) on every bridging swap, though
    no link of a disconnected network is redundant.  The operator list skips
    the scan.  Rounds alternate which side runs first, each round gives both
    sides the same seed, and both run in this process, so the gate needs no
    particular CPU count.
    """
    config = PlatformConfig.big_8x8x4()
    rng = np.random.default_rng(1)
    parents = [random_design(config, rng) for _ in range(8)]
    children = []
    for i in range(32):
        a, b = parents[i % 8], parents[(3 * i + 1) % 8]
        placement = crossover_placement(a, b, config, rng)
        child = NocDesign(placement, crossover_links(a, b, config, rng))
        if not is_connected(child):
            children.append(child)
    assert len(children) >= 3
    sides = {"pipeline": repair_links, "oracle": repair_links_reference}
    seconds: dict[str, list[float]] = {name: [] for name in sides}
    for round_index in range(4):
        order = list(sides) if round_index % 2 == 0 else list(reversed(sides))
        outputs = {}
        for name in order:
            rng = np.random.default_rng(round_index)
            start = time.perf_counter()
            outputs[name] = [sides[name](child, config, rng).links for child in children]
            seconds[name].append((time.perf_counter() - start) / len(children))
            outputs[name].append(rng.bit_generator.state)
        assert outputs["pipeline"] == outputs["oracle"]
    pipeline, oracle = np.median(seconds["pipeline"]), np.median(seconds["oracle"])
    speedup = oracle / pipeline
    print(f"big-8x8x4 link repair ({len(children)} disconnected children): pipeline "
          f"{pipeline * 1e3:.2f} ms vs oracle {oracle * 1e3:.2f} ms per call -> {speedup:.2f}x")
    assert speedup >= 3.0, f"link repair only {speedup:.2f}x the oracle at 256 tiles"


@pytest.mark.benchmark(group="components")
def test_routing_table_construction(benchmark):
    """All-pairs deterministic routing for one design."""
    routing = benchmark(lambda: RoutingTables(DESIGNS[0], PLATFORM.grid))
    assert routing.reachable_matrix()[0, -1]


def test_link_loads_match_tree_oracle_smoke():
    """Link loads give the tree-walk oracle's bits on a miss, a repair and a hit (no timing).

    At 64 and 256 tiles: a fresh table's first loads (miss), the loads of a
    rewired child repaired from it (repair), and a second call on the
    fresh table once it is built (hit), each under its design's traffic.
    """
    for platform in (PlatformConfig.paper_4x4x4(), PlatformConfig.big_8x8x4()):
        workload = get_workload("BFS", platform, seed=0)
        parent = random_design(platform, 0)
        rng = np.random.default_rng(1)
        child = None
        while child is None:
            child = MoveGenerator(platform, workload).rewire_link(parent, rng)
        fresh = RoutingTables(parent, platform.grid)
        cases = [("miss", fresh, parent)]
        cases.append(("repair", fresh.incremental_update(child.links), child))
        cases.append(("hit", fresh, parent))
        for label, tables, design in cases:
            frequencies = workload.pair_frequencies(design.placement_array())
            loads = tables.link_loads(frequencies)
            expected = tree_link_loads(tables, frequencies)
            assert loads.tobytes() == expected.tobytes(), f"{platform.name} {label}"


def _best_seconds(call, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def test_all_pairs_kernel_smoke():
    """Integer all-pairs distances give scipy Dijkstra's bytes (timings printed, not gated).

    At 64 and 256 tiles: the float32 distances of a fresh table and of a
    rewired child repaired from it, against ``scipy_distances``.  Prints the
    best of five fresh kernel runs and of five oracle runs.
    """
    for platform in (PlatformConfig.paper_4x4x4(), PlatformConfig.big_8x8x4()):
        parent = random_design(platform, 0)
        rng = np.random.default_rng(1)
        child = None
        while child is None:
            child = MoveGenerator(platform).rewire_link(parent, rng)
        fresh = RoutingTables(parent, platform.grid)
        repaired = fresh.incremental_update(child.links)
        for label, tables in (("fresh", fresh), ("repair", repaired)):
            expected = scipy_distances(tables)
            assert tables._distance.tobytes() == expected.tobytes(), f"{platform.name} {label}"
        kernel = _best_seconds(fresh._fresh_distances)
        oracle = _best_seconds(lambda: scipy_distances(fresh))
        print(f"\n{platform.name}: all-pairs kernel {kernel * 1e3:.2f} ms, "
              f"scipy Dijkstra {oracle * 1e3:.2f} ms")


def test_route_cache_retention_smoke():
    """The default table cap keeps a 64-tile search's front (no timing).

    A 150-evaluation NSGA-II search on paper-4x4x4 builds about twice as
    many tables as the default cap keeps; under the default and an
    unbounded cap it must give the same front fingerprint, with the
    default engine holding no more tables than its cap.
    """
    experiment = replace(
        ExperimentConfig(), platform=PlatformConfig.paper_4x4x4(), max_evaluations=150
    )
    engines = {}
    fingerprints = {}
    for label, max_tables in (("default", None), ("unbounded", 10**6)):
        problem = make_problem(experiment, "BFS", 5)
        if max_tables is not None:
            problem.evaluator.routing_engine = RoutingEngine(
                experiment.platform.grid, max_tables=max_tables
            )
        result = run_algorithm(
            "NSGA-II", problem, experiment, budget=Budget.evaluations(150), seed=3
        )
        engines[label] = problem.evaluator.routing_engine
        fingerprints[label] = front_fingerprint(result)
    default, unbounded = engines["default"], engines["unbounded"]
    assert fingerprints["default"] == fingerprints["unbounded"]
    assert len(default) <= default.max_tables < len(unbounded)
    print(f"\nretention: {len(default)} of {len(unbounded)} tables kept, {default.stats()}")


def test_packet_latency_matches_oracle_smoke():
    """The simulator's packet latency and EDP agree with the per-pair oracle (no timing).

    At 64 and 256 tiles, on one random design under BFS traffic: the
    table-based latency and the full ``simulate()`` result against the
    retired per-pair loop, at ``rtol=1e-12``.
    """
    for platform in (PlatformConfig.paper_4x4x4(), PlatformConfig.big_8x8x4()):
        simulator = NocSimulator(get_workload("BFS", platform, seed=0))
        design = random_design(platform, 0)
        expected = simulate_reference(simulator, design)
        latency = simulator.average_packet_latency(design)
        assert latency == pytest.approx(expected.average_packet_latency_cycles, rel=1e-12, abs=0)
        assert simulator.simulate(design).edp == pytest.approx(expected.edp, rel=1e-12, abs=0)


@pytest.mark.benchmark(group="components")
def test_random_design_generation(benchmark):
    """Feasible random design generation (spanning tree + budget fill)."""
    rng = np.random.default_rng(123)
    design = benchmark(lambda: random_design(PLATFORM, rng))
    assert design.num_links == PLATFORM.num_links


@pytest.mark.benchmark(group="components")
def test_crossover_with_repair(benchmark):
    """Crossover of two feasible parents including constraint repair."""
    rng = np.random.default_rng(7)
    child = benchmark(lambda: crossover(DESIGNS[0], DESIGNS[1], PLATFORM, rng))
    assert child.num_links == PLATFORM.num_links


@pytest.mark.benchmark(group="components")
def test_neighbor_move(benchmark):
    """One random feasible neighbourhood move."""
    moves = MoveGenerator(PLATFORM)
    rng = np.random.default_rng(11)
    neighbor = benchmark(lambda: moves.random_neighbor(DESIGNS[0], rng))
    assert neighbor.num_tiles == PLATFORM.num_tiles


@pytest.mark.benchmark(group="components")
def test_hypervolume_5obj_50_points(benchmark):
    """Exact WFG hypervolume of a 50-point 5-objective front (MOOS's inner cost)."""
    rng = np.random.default_rng(3)
    points = rng.uniform(0.0, 1.0, size=(50, 5))
    reference = np.full(5, 1.1)
    value = benchmark(lambda: hypervolume(points, reference))
    assert value > 0


def _hypervolume_brood(fronts: int = 4, size: int = 16, neighbors: int = 6):
    """MOOS-shaped PHV work: 16-point 5-objective archive fronts and their neighbours.

    Each front is mutually non-dominated (rows on the unit sphere's positive
    orthant), as a MOOS archive is; each neighbour is a perturbed member, so
    some contribute volume and some are dominated.  One front is one local
    search's full-archive PHV plus its brood's ``hypervolume_contribution``
    calls against that front.
    """
    rng = np.random.default_rng(29)
    reference = np.full(5, 1.2)
    brood = []
    for _ in range(fronts):
        weights = rng.dirichlet(np.ones(5), size)
        front = weights / np.linalg.norm(weights, axis=1, keepdims=True)
        members = front[rng.integers(size, size=neighbors)]
        brood.append((front, members + rng.normal(scale=0.05, size=members.shape)))
    return reference, brood


#: (hypervolume, hypervolume_contribution) of the kernel and of its oracle.
PHV_SIDES = {
    "kernel": (hypervolume, hypervolume_contribution),
    "oracle": (pareto_oracle.hypervolume, pareto_oracle.hypervolume_contribution),
}


def _score_hypervolume_brood(side: str, reference, brood) -> list[str]:
    """Every PHV value of the brood under one side's functions, as ``float.hex``."""
    phv, contribution = PHV_SIDES[side]
    values = []
    for front, neighbours in brood:
        values.append(phv(front, reference))
        values += [contribution(n, front, reference) for n in neighbours]
    return [value.hex() for value in values]


def test_hypervolume_matches_oracle_smoke():
    """The PHV kernel gives the oracle's bits on the MOOS-shaped brood (no timing)."""
    reference, brood = _hypervolume_brood()
    assert _score_hypervolume_brood("kernel", reference, brood) == _score_hypervolume_brood(
        "oracle", reference, brood
    )


@pytest.mark.perf
def test_hypervolume_speedup():
    """The sorted-list WFG kernel is >= 1.6x the per-pair oracle on the MOOS-shaped brood.

    Rounds alternate which side runs first and the median round counts;
    both run in this process, so the gate needs no particular CPU count.
    """
    reference, brood = _hypervolume_brood()
    seconds: dict[str, list[float]] = {name: [] for name in PHV_SIDES}
    for round_index in range(6):
        order = list(PHV_SIDES) if round_index % 2 == 0 else list(reversed(PHV_SIDES))
        values = {}
        for name in order:
            start = time.perf_counter()
            values[name] = _score_hypervolume_brood(name, reference, brood)
            seconds[name].append(time.perf_counter() - start)
        assert values["kernel"] == values["oracle"]
    kernel, oracle = np.median(seconds["kernel"]), np.median(seconds["oracle"])
    speedup = oracle / kernel
    print(f"MOOS-shaped PHV brood ({len(brood)} fronts): kernel {kernel * 1e3:.1f} ms vs "
          f"oracle {oracle * 1e3:.1f} ms -> {speedup:.2f}x")
    assert speedup >= 1.6, f"hypervolume kernel only {speedup:.2f}x the oracle"


@pytest.mark.benchmark(group="components")
def test_eval_forest_training(benchmark):
    """Training MOELA's random-forest Eval model on 2000 trajectory samples."""
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(2_000, 21))
    y = X[:, 0] * 3.0 + X[:, 1] ** 2 + rng.normal(scale=0.05, size=2_000)

    def train():
        return RandomForestRegressor(n_estimators=10, max_depth=8, rng=0).fit(X, y)

    forest = benchmark(train)
    assert forest.is_fitted


# ---------------------------------------------------------------------- #
# MOELA's Eval forest: presorted tree vs the per-node-sorting oracle
# ---------------------------------------------------------------------- #
#: Training-set sizes of the four forest fits of a moela-paper64 search.
MOELA_FIT_SIZES = (26, 48, 74, 94)


def _eval_training_sets() -> list[tuple[np.ndarray, np.ndarray]]:
    """Standardised (features + weight, outcome) sets shaped like MOELA's ``S_train``.

    Rows are the paper-4x4x4 featurizer's vectors of random designs next to
    random weight vectors, standardised as ``EvalModel`` does; the outcomes
    are a noisy function of a few features.
    """
    config = PlatformConfig.paper_4x4x4()
    featurizer = DesignFeaturizer(config, get_workload("BFS", config, seed=0))
    rng = np.random.default_rng(17)
    designs = [random_design(config, rng) for _ in range(max(MOELA_FIT_SIZES))]
    features = np.array([featurizer.features(design) for design in designs])
    weights = rng.dirichlet(np.ones(5), size=len(designs))
    X = StandardScaler().fit_transform(np.hstack([features, weights]))
    y = X[:, 0] - 0.5 * X[:, 3] * X[:, -1] + rng.normal(scale=0.1, size=len(X))
    return [(X[:size], y[:size]) for size in MOELA_FIT_SIZES]


def _fit_forests(forest_class, training_sets) -> tuple[list, float]:
    """Fit one reduced-config MOELA forest per set; return them and the seconds it took."""
    start = time.perf_counter()
    forests = [
        forest_class(n_estimators=12, max_depth=8, rng=index).fit(X, y)
        for index, (X, y) in enumerate(training_sets)
    ]
    return forests, time.perf_counter() - start


def _assert_same_forests(forests, oracles, training_sets) -> None:
    for forest, oracle, (X, _) in zip(forests, oracles, training_sets, strict=True):
        for tree, oracle_tree in zip(forest.trees_, oracle.trees_, strict=True):
            nodes = oracle_tree._nodes
            assert tree.feature_.tolist() == [node.feature for node in nodes]
            assert tree.threshold_.tolist() == [node.threshold for node in nodes]
            assert tree.value_.tolist() == [node.value for node in nodes]
        assert forest.predict(X).tobytes() == oracle.predict(X).tobytes()
        assert forest.rng.bit_generator.state == oracle.rng.bit_generator.state


def test_forest_fit_matches_oracle_smoke():
    """The presorted forest equals the oracle's on moela-paper64-sized fits (no timing)."""
    training_sets = _eval_training_sets()
    forests, _ = _fit_forests(RandomForestRegressor, training_sets)
    oracles, _ = _fit_forests(OracleForest, training_sets)
    _assert_same_forests(forests, oracles, training_sets)


@pytest.mark.perf
def test_forest_fit_speedup():
    """Presorted forest fitting is >= 1.8x the per-node-sorting oracle at moela-paper64 sizes.

    The four fits of a moela-paper64 search, timed as one block per side.
    Rounds alternate which side runs first and the median round counts;
    both run in this process, so the gate needs no particular CPU count.
    """
    training_sets = _eval_training_sets()
    sides = {"presorted": RandomForestRegressor, "oracle": OracleForest}
    seconds: dict[str, list[float]] = {name: [] for name in sides}
    for round_index in range(6):
        order = list(sides) if round_index % 2 == 0 else list(reversed(sides))
        fitted = {}
        for name in order:
            fitted[name], elapsed = _fit_forests(sides[name], training_sets)
            seconds[name].append(elapsed)
        _assert_same_forests(fitted["presorted"], fitted["oracle"], training_sets)
    presorted, oracle = np.median(seconds["presorted"]), np.median(seconds["oracle"])
    speedup = oracle / presorted
    print(f"moela-paper64 forest fits: presorted {presorted * 1e3:.1f} ms vs oracle "
          f"{oracle * 1e3:.1f} ms -> {speedup:.2f}x")
    assert speedup >= 1.8, f"presorted forest fit only {speedup:.2f}x the oracle"
