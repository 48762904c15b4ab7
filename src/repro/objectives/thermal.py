"""Thermal objective (Eqs. 5-7), using the fast resistive-stack model of Cong et al.

The platform is viewed as ``N x N`` single-tile stacks (columns) of ``Y``
layers.  The steady-state temperature rise of the tile ``k`` layers away from
the heat sink in column ``n`` is

``T_{n,k} = sum_{i=1..k} ( P_{n,i} * sum_{j=1..i} R_j ) + R_b * sum_{i=1..k} P_{n,i}``

where ``P_{n,i}`` is the average power of the PE ``i`` layers from the sink,
``R_j`` the vertical thermal resistance of layer ``j`` and ``R_b`` the base
(heat-spreader) resistance.  Horizontal heat flow is approximated by the
maximum same-layer temperature difference ``dT(k)``, and the scalar objective
combines vertical and horizontal effects as ``T = max_{n,k} T_{n,k} * max_k dT(k)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.noc.design import NocDesign
from repro.noc.platform import PlatformConfig
from repro.workloads.workload import Workload


@dataclass(frozen=True)
class ThermalModel:
    """Resistive-stack thermal model of the 3D platform.

    The per-layer vertical resistances default to the platform's uniform
    ``vertical_resistance``; a custom per-layer profile can be supplied to
    model, e.g., thinned upper dies.
    """

    config: PlatformConfig
    layer_resistances: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.layer_resistances is not None:
            if len(self.layer_resistances) != self.config.layers:
                raise ValueError(
                    f"layer_resistances must have {self.config.layers} entries, "
                    f"got {len(self.layer_resistances)}"
                )
            if any(r <= 0 for r in self.layer_resistances):
                raise ValueError("layer resistances must be positive")

    @property
    def resistances(self) -> np.ndarray:
        """Vertical resistance ``R_j`` of every layer (index 0 = closest to sink)."""
        if self.layer_resistances is not None:
            return np.asarray(self.layer_resistances, dtype=np.float64)
        return np.full(self.config.layers, self.config.vertical_resistance, dtype=np.float64)

    @cached_property
    def _tile_columns_and_layers(self) -> tuple[np.ndarray, np.ndarray]:
        """Column and layer index of every tile (vectorized grid decode)."""
        grid = self.config.grid
        x, y, z = grid.coords_arrays(np.arange(self.config.num_tiles, dtype=np.int64))
        return y * grid.n + x, z

    # ------------------------------------------------------------------ #
    # Temperature fields
    # ------------------------------------------------------------------ #
    def column_powers(self, design: NocDesign, workload: Workload) -> np.ndarray:
        """Per-column per-layer power matrix ``P[n, k]`` (column x layer-from-sink)."""
        tile_power = workload.tile_power(design.placement_array())
        powers = np.zeros((self.config.grid.num_columns, self.config.layers), dtype=np.float64)
        columns, layers = self._tile_columns_and_layers
        powers[columns, layers] = tile_power
        return powers

    def temperatures(self, design: NocDesign, workload: Workload) -> np.ndarray:
        """Temperature rise ``T[n, k]`` of every tile (column x layer-from-sink), Eq. 5.

        Vectorized over both columns and layers: the layer-k temperature is a
        prefix sum over source layers ``i <= k`` of ``P[:, i] * sum_{j<=i} R_j``
        plus the base-resistance term, so both reduce to ``cumsum`` along the
        layer axis.
        """
        powers = self.column_powers(design, workload)
        cumulative_resistance = np.cumsum(self.resistances)
        return np.cumsum(powers * cumulative_resistance[None, :], axis=1) + (
            self.config.base_resistance * np.cumsum(powers, axis=1)
        )

    def layer_spread(self, temperatures: np.ndarray) -> np.ndarray:
        """Same-layer temperature spread ``dT(k)`` for every layer, Eq. 6."""
        return temperatures.max(axis=0) - temperatures.min(axis=0)

    def peak_temperature(self, design: NocDesign, workload: Workload) -> float:
        """Peak tile temperature rise ``max_{n,k} T_{n,k}`` (kelvin above ambient)."""
        return float(self.temperatures(design, workload).max())

    def objective(self, design: NocDesign, workload: Workload) -> float:
        """Combined thermal objective ``T`` (Eq. 7)."""
        temperatures = self.temperatures(design, workload)
        peak = float(temperatures.max())
        spread = float(self.layer_spread(temperatures).max())
        return peak * spread
