"""Equivalence tests: vectorized/batch objective paths vs. scalar references.

The vectorized engine (compact route tables, batch evaluation)
must reproduce the original per-pair scalar loops of
``tests/oracles/objectives.py`` exactly (up to summation order) across random
designs, all three paper scenarios and disconnected error cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.noc.constraints import random_design
from repro.noc.design import NocDesign
from repro.noc.mesh import mesh_design
from repro.noc.routing import RoutingTables
from repro.objectives.energy import communication_energy
from repro.objectives.evaluator import ObjectiveEvaluator, scenario_for
from repro.objectives.latency import cpu_llc_latency
from repro.objectives.thermal import ThermalModel
from repro.objectives.traffic import link_utilizations
from repro.workloads.registry import get_workload
from repro.workloads.workload import Workload
from tests.oracles.objectives import (
    column_powers_reference,
    communication_energy_reference,
    cpu_llc_latency_reference,
    evaluate_reference,
    link_utilizations_reference,
    objective_reference,
    temperatures_reference,
)
from tests.oracles.routing import (
    pair_link_incidence,
    pair_tile_incidence,
    route_links,
    route_tiles,
    router_ports,
    tree_link_loads,
)

RTOL = 1e-12


def _all_pairs_workload(config, rate=1.5):
    """Every distinct PE pair communicates (exercises every route)."""
    traffic = np.full((config.num_tiles, config.num_tiles), rate)
    np.fill_diagonal(traffic, 0.0)
    return Workload("all-pairs", config, traffic, np.ones(config.num_tiles))


def _disconnected_design(config, isolated=None):
    """A mesh with one tile fully cut off."""
    design = mesh_design(config)
    if isolated is None:
        isolated = config.num_tiles - 1
    links = tuple(l for l in design.links if isolated not in l.endpoints())
    return NocDesign(placement=design.placement, links=links), isolated


class TestObjectiveFunctionEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_link_utilizations_match(self, small_config, small_workload, seed):
        design = random_design(small_config, seed)
        routing = RoutingTables(design, small_config.grid)
        fast = link_utilizations(design, small_workload, routing)
        reference = link_utilizations_reference(design, small_workload, routing)
        np.testing.assert_allclose(fast, reference, rtol=RTOL)
        # The loads add up the route trees in the scalar tree walk's order;
        # the sparse product adds in pair order, so it agrees to rounding.
        frequencies = small_workload.pair_frequencies(design.placement_array())
        assert fast.tobytes() == tree_link_loads(routing, frequencies).tobytes()
        oracle = pair_link_incidence(routing).T @ frequencies
        np.testing.assert_allclose(fast, oracle, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_cpu_llc_latency_matches(self, small_config, small_workload, seed):
        design = random_design(small_config, seed)
        routing = RoutingTables(design, small_config.grid)
        assert cpu_llc_latency(design, small_workload, routing) == pytest.approx(
            cpu_llc_latency_reference(design, small_workload, routing), rel=RTOL
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_communication_energy_matches(self, small_config, small_workload, seed):
        design = random_design(small_config, seed)
        routing = RoutingTables(design, small_config.grid)
        assert communication_energy(design, small_workload, routing) == pytest.approx(
            communication_energy_reference(design, small_workload, routing), rel=RTOL
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_thermal_field_matches(self, small_config, small_workload, seed):
        design = random_design(small_config, seed)
        model = ThermalModel(small_config)
        np.testing.assert_allclose(
            model.column_powers(design, small_workload),
            column_powers_reference(model, design, small_workload),
            rtol=RTOL,
        )
        np.testing.assert_allclose(
            model.temperatures(design, small_workload),
            temperatures_reference(model, design, small_workload),
            rtol=RTOL,
        )
        assert model.objective(design, small_workload) == pytest.approx(
            objective_reference(model, design, small_workload), rel=1e-9
        )

    def test_all_pairs_workload_equivalence(self, small_config):
        workload = _all_pairs_workload(small_config)
        design = random_design(small_config, 3)
        routing = RoutingTables(design, small_config.grid)
        np.testing.assert_allclose(
            link_utilizations(design, workload, routing),
            link_utilizations_reference(design, workload, routing),
            rtol=RTOL,
        )
        assert communication_energy(design, workload, routing) == pytest.approx(
            communication_energy_reference(design, workload, routing), rel=RTOL
        )


class TestScenarioEquivalence:
    @pytest.mark.parametrize("num_objectives", [3, 4, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_evaluate_matches_reference(self, small_config, num_objectives, seed):
        workload = get_workload("BFS", small_config, seed=0)
        evaluator = ObjectiveEvaluator(workload, scenario_for(num_objectives), cache_size=0)
        design = random_design(small_config, seed)
        np.testing.assert_allclose(
            evaluator.evaluate(design), evaluate_reference(evaluator, design), rtol=RTOL
        )

    @pytest.mark.parametrize("num_objectives", [3, 4, 5])
    def test_evaluate_many_matches_looped_evaluate(self, small_config, num_objectives):
        workload = get_workload("BFS", small_config, seed=0)
        batch_eval = ObjectiveEvaluator(workload, scenario_for(num_objectives), cache_size=0)
        loop_eval = ObjectiveEvaluator(workload, scenario_for(num_objectives), cache_size=0)
        designs = [random_design(small_config, seed) for seed in range(8)]
        batch = batch_eval.evaluate_many(designs)
        looped = np.array([loop_eval.evaluate(d) for d in designs])
        np.testing.assert_array_equal(batch, looped)


class TestDisconnectedEquivalence:
    def test_both_paths_raise_on_disconnected_utilization(self, tiny_config):
        design, _ = _disconnected_design(tiny_config)
        workload = _all_pairs_workload(tiny_config)
        routing = RoutingTables(design, tiny_config.grid)
        with pytest.raises(ValueError, match="disconnected"):
            link_utilizations(design, workload, routing)
        with pytest.raises(ValueError, match="disconnected"):
            link_utilizations_reference(design, workload, routing)

    def test_both_paths_raise_on_disconnected_latency(self, tiny_config):
        # Cut off the tile hosting the first CPU so a CPU-LLC route is missing.
        cpu_tile = int(mesh_design(tiny_config).tile_of(int(tiny_config.cpu_ids[0])))
        design, _ = _disconnected_design(tiny_config, isolated=cpu_tile)
        workload = _all_pairs_workload(tiny_config)
        routing = RoutingTables(design, tiny_config.grid)
        with pytest.raises(ValueError, match="no route"):
            cpu_llc_latency(design, workload, routing)
        with pytest.raises(ValueError, match="no route"):
            cpu_llc_latency_reference(design, workload, routing)

    def test_both_paths_raise_on_disconnected_energy(self, tiny_config):
        design, _ = _disconnected_design(tiny_config)
        workload = _all_pairs_workload(tiny_config)
        routing = RoutingTables(design, tiny_config.grid)
        with pytest.raises(ValueError, match="disconnected"):
            communication_energy(design, workload, routing)
        with pytest.raises(ValueError, match="disconnected"):
            communication_energy_reference(design, workload, routing)

    def test_unreachable_pairs_without_traffic_do_not_raise(self, tiny_config):
        design, isolated = _disconnected_design(tiny_config)
        # Traffic only between PEs hosted on still-connected tiles.
        connected_pes = [design.pe_at(t) for t in range(design.num_tiles) if t != isolated]
        traffic = np.zeros((tiny_config.num_tiles, tiny_config.num_tiles))
        traffic[connected_pes[0], connected_pes[1]] = 2.0
        workload = Workload("partial", tiny_config, traffic, np.ones(tiny_config.num_tiles))
        routing = RoutingTables(design, tiny_config.grid)
        np.testing.assert_allclose(
            link_utilizations(design, workload, routing),
            link_utilizations_reference(design, workload, routing),
            rtol=RTOL,
        )


class TestRoutingBatchTables:
    def test_incidence_rows_match_walked_paths(self, small_config):
        design = random_design(small_config, 1)
        routing = RoutingTables(design, small_config.grid)
        incidence = pair_link_incidence(routing)
        tiles_incidence = pair_tile_incidence(routing)
        for src in range(0, design.num_tiles, 4):
            for dst in range(0, design.num_tiles, 3):
                pair = src * design.num_tiles + dst
                row = incidence.getrow(pair)
                assert set(row.indices) == set(route_links(routing, src, dst))
                tile_row = tiles_incidence.getrow(pair)
                assert set(tile_row.indices) == set(route_tiles(routing, src, dst))

    def test_pair_hops_and_lengths_match_walked_routes(self, small_config):
        design = random_design(small_config, 2)
        routing = RoutingTables(design, small_config.grid)
        hops = routing.pair_hops()
        lengths = routing.pair_lengths()
        for src in range(0, design.num_tiles, 5):
            for dst in range(0, design.num_tiles, 2):
                links = route_links(routing, src, dst)
                pair = src * design.num_tiles + dst
                assert hops[pair] == len(links)
                assert lengths[pair] == routing.link_lengths[links].sum()

    def test_reachability_flags_disconnected_pairs(self, tiny_config):
        design, isolated = _disconnected_design(tiny_config)
        routing = RoutingTables(design, tiny_config.grid)
        reachable = routing.reachable_matrix()
        assert not reachable[0, isolated]
        assert reachable[isolated, isolated]
        assert reachable[0, 1]
        # Unreachable pairs carry empty incidence rows instead of garbage.
        pair = 0 * routing.num_tiles + isolated
        assert pair_link_incidence(routing).getrow(pair).nnz == 0
        assert routing.pair_hops()[pair] == 0
        assert routing.pair_lengths()[pair] == 0
        assert pair not in routing._tree_pairs
        assert routing.pair_router_ports()[pair] == 0
        np.testing.assert_array_equal(routing.pair_router_ports(), router_ports(routing))
