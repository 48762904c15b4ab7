"""The coordinate-decoding design featuriser the table-driven one replaced.

``repro.core.features.DesignFeaturizer`` reads the grid's tile-distance
matrix and layer/column tables, built once per grid, instead of decoding
``grid.coord`` per tile and rebuilding the layer and column arrays on every
call.  The original class lives on here, verbatim, as an oracle:
``tests/core/test_features.py`` checks that both return byte-identical
feature vectors at 27, 64 and 256 tiles.
"""

from __future__ import annotations

import numpy as np

from repro.noc.design import NocDesign
from repro.noc.links import LinkKind
from repro.noc.platform import PlatformConfig
from repro.workloads.workload import Workload


class DesignFeaturizer:
    """Computes structural feature vectors for designs of one platform/workload."""

    def __init__(self, config: PlatformConfig, workload: Workload):
        self.config = config
        self.workload = workload
        self.grid = config.grid
        # Pre-compute traffic class weights used for distance features.
        self._cpu_llc_traffic = self._pair_traffic(config.cpu_ids, config.llc_ids)
        self._gpu_llc_traffic = self._pair_traffic(config.gpu_ids, config.llc_ids)

    def _pair_traffic(self, src_ids: np.ndarray, dst_ids: np.ndarray) -> np.ndarray:
        traffic = self.workload.traffic
        return traffic[np.ix_(src_ids, dst_ids)] + traffic[np.ix_(dst_ids, src_ids)].T

    # ------------------------------------------------------------------ #
    # Feature extraction
    # ------------------------------------------------------------------ #
    @property
    def num_features(self) -> int:
        """Length of the feature vector."""
        return len(self.feature_names)

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Names of the features, in output order."""
        return (
            "cpu_llc_weighted_distance",
            "gpu_llc_weighted_distance",
            "all_traffic_weighted_distance",
            "llc_spread",
            "cpu_mean_layer",
            "gpu_mean_layer",
            "power_top_layer_fraction",
            "column_power_max",
            "column_power_std",
            "link_length_mean",
            "link_length_std",
            "link_length_max",
            "degree_mean",
            "degree_std",
            "degree_max",
            "vertical_per_column_std",
        )

    def features(self, design: NocDesign) -> np.ndarray:
        """Structural feature vector of a design."""
        config = self.config
        grid = self.grid
        tile_of_pe = design.tile_of_pe()
        coords = np.array(
            [(grid.coord(int(t)).x, grid.coord(int(t)).y, grid.coord(int(t)).z) for t in tile_of_pe],
            dtype=np.float64,
        )

        cpu_coords = coords[config.cpu_ids]
        gpu_coords = coords[config.gpu_ids]
        llc_coords = coords[config.llc_ids]

        cpu_llc = self._weighted_distance(cpu_coords, llc_coords, self._cpu_llc_traffic)
        gpu_llc = self._weighted_distance(gpu_coords, llc_coords, self._gpu_llc_traffic)
        all_dist = self._total_weighted_distance(coords)

        llc_spread = self._mean_pairwise_distance(llc_coords)
        cpu_mean_layer = float(cpu_coords[:, 2].mean()) if len(cpu_coords) else 0.0
        gpu_mean_layer = float(gpu_coords[:, 2].mean()) if len(gpu_coords) else 0.0

        tile_power = self.workload.tile_power(design.placement_array())
        layers = np.array([grid.coord(t).z for t in range(config.num_tiles)])
        top_power = float(tile_power[layers == config.layers - 1].sum())
        total_power = float(tile_power.sum())
        top_fraction = top_power / total_power if total_power > 0 else 0.0
        columns = np.array([_column_id(grid, t) for t in range(config.num_tiles)])
        column_power = np.array(
            [tile_power[columns == c].sum() for c in range(grid.num_columns)], dtype=np.float64
        )

        lengths = design.link_lengths(grid)
        degrees = design.degrees().astype(np.float64)
        partition = design.links_by_kind(grid)
        vertical_columns = np.array(
            [_column_id(grid, link.a) for link in partition[LinkKind.VERTICAL]], dtype=np.int64
        )
        vertical_counts = np.bincount(vertical_columns, minlength=grid.num_columns).astype(np.float64)

        return np.array(
            [
                cpu_llc,
                gpu_llc,
                all_dist,
                llc_spread,
                cpu_mean_layer,
                gpu_mean_layer,
                top_fraction,
                float(column_power.max()),
                float(column_power.std()),
                float(lengths.mean()) if len(lengths) else 0.0,
                float(lengths.std()) if len(lengths) else 0.0,
                float(lengths.max()) if len(lengths) else 0.0,
                float(degrees.mean()),
                float(degrees.std()),
                float(degrees.max()),
                float(vertical_counts.std()),
            ],
            dtype=np.float64,
        )

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _manhattan(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)

    def _weighted_distance(
        self, src_coords: np.ndarray, dst_coords: np.ndarray, weights: np.ndarray
    ) -> float:
        if len(src_coords) == 0 or len(dst_coords) == 0:
            return 0.0
        distances = self._manhattan(src_coords, dst_coords)
        total_weight = weights.sum()
        if total_weight == 0:
            return float(distances.mean())
        return float((distances * weights).sum() / total_weight)

    def _total_weighted_distance(self, coords: np.ndarray) -> float:
        traffic = self.workload.traffic
        distances = self._manhattan(coords, coords)
        total = traffic.sum()
        if total == 0:
            return 0.0
        return float((distances * traffic).sum() / total)

    @staticmethod
    def _mean_pairwise_distance(coords: np.ndarray) -> float:
        if len(coords) < 2:
            return 0.0
        distances = np.abs(coords[:, None, :] - coords[None, :, :]).sum(axis=2)
        n = len(coords)
        return float(distances.sum() / (n * (n - 1)))


def _column_id(grid, tile_id: int) -> int:
    """The single-tile-stack (column) index of a tile."""
    coord = grid.coord(tile_id)
    return coord.y * grid.n + coord.x
