"""Design featuriser for the learned evaluation function.

MOELA's ``Eval`` model predicts local-search outcomes from "each design's
parameters and weight" (Section IV.B).  The featuriser turns a design into a
fixed-length vector of cheap structural statistics — no routing or objective
evaluation is required, so scoring the whole population with ``Eval`` costs a
negligible fraction of one objective evaluation.
"""

from __future__ import annotations

import numpy as np

from repro.noc.design import NocDesign
from repro.noc.links import link_ends
from repro.noc.platform import PlatformConfig
from repro.workloads.workload import Workload


class DesignFeaturizer:
    """Computes structural feature vectors for designs of one platform/workload."""

    def __init__(self, config: PlatformConfig, workload: Workload):
        self.config = config
        self.workload = workload
        self.grid = grid = config.grid
        # Per-grid tables, read on every call instead of decoding coordinates.
        self._distances = grid.tile_distances
        self._layers = np.asarray(grid.tile_layers, dtype=np.float64)
        self._columns = np.asarray(grid.tile_columns, dtype=np.int64)
        self._top_layer = self._layers == config.layers - 1
        self._column_tiles = np.argsort(self._columns, kind="stable").reshape(grid.num_columns, -1)
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
        tile_of_pe = design.tile_of_pe()
        cpu_tiles = tile_of_pe[config.cpu_ids]
        gpu_tiles = tile_of_pe[config.gpu_ids]
        llc_tiles = tile_of_pe[config.llc_ids]

        cpu_llc = self._weighted_distance(cpu_tiles, llc_tiles, self._cpu_llc_traffic)
        gpu_llc = self._weighted_distance(gpu_tiles, llc_tiles, self._gpu_llc_traffic)
        all_dist = self._total_weighted_distance(tile_of_pe)

        llc_spread = self._mean_pairwise_distance(llc_tiles)
        cpu_mean_layer = float(self._layers[cpu_tiles].mean()) if len(cpu_tiles) else 0.0
        gpu_mean_layer = float(self._layers[gpu_tiles].mean()) if len(gpu_tiles) else 0.0

        tile_power = self.workload.tile_power(design.placement_array())
        top_power = float(tile_power[self._top_layer].sum())
        total_power = float(tile_power.sum())
        top_fraction = top_power / total_power if total_power > 0 else 0.0
        # One row per column, its tiles in ascending order: each row sum adds
        # exactly like summing that column's tiles on their own.
        column_power = tile_power[self._column_tiles].sum(axis=1)

        ends = link_ends(design.links)
        lengths = self._distances[ends[:, 0], ends[:, 1]]
        degrees = np.bincount(ends.ravel(), minlength=config.num_tiles).astype(np.float64)
        vertical = self._layers[ends[:, 0]] != self._layers[ends[:, 1]]
        vertical_counts = np.bincount(
            self._columns[ends[vertical, 0]], minlength=self.grid.num_columns
        ).astype(np.float64)

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
    def _weighted_distance(
        self, src_tiles: np.ndarray, dst_tiles: np.ndarray, weights: np.ndarray
    ) -> float:
        if len(src_tiles) == 0 or len(dst_tiles) == 0:
            return 0.0
        distances = self._distances[np.ix_(src_tiles, dst_tiles)]
        total_weight = weights.sum()
        if total_weight == 0:
            return float(distances.mean())
        return float((distances * weights).sum() / total_weight)

    def _total_weighted_distance(self, tiles: np.ndarray) -> float:
        traffic = self.workload.traffic
        distances = self._distances[np.ix_(tiles, tiles)]
        total = traffic.sum()
        if total == 0:
            return 0.0
        return float((distances * traffic).sum() / total)

    def _mean_pairwise_distance(self, tiles: np.ndarray) -> float:
        if len(tiles) < 2:
            return 0.0
        distances = self._distances[np.ix_(tiles, tiles)]
        n = len(tiles)
        return float(distances.sum() / (n * (n - 1)))
