"""Workload container: communication frequencies and PE power profile.

:meth:`Workload.pair_frequencies` flattens a placement's tile-to-tile traffic
into the ``src * num_tiles + dst`` pair order of the routing tables, the
vector ``f`` that link utilisation (``P.T @ f``, computed by
:meth:`repro.noc.routing.RoutingTables.link_loads`) and the energy objective
contract with per-pair route data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.noc.platform import PEType, PlatformConfig


@dataclass(frozen=True)
class Workload:
    """Application workload for one platform configuration.

    Attributes
    ----------
    name:
        Application name (e.g. ``"BFS"``).
    config:
        The platform the workload was generated for.
    traffic:
        ``A x A`` matrix of communication frequencies ``f_ij`` between logical
        PEs (flits per kilo-cycle).  The matrix is non-negative with a zero
        diagonal; it need not be symmetric (requests vs. responses).
    power:
        Length-``A`` vector of average PE power draw (watts), indexed by
        logical PE id.
    compute_cycles:
        Baseline (zero-contention) execution time of the application in
        CPU-clock kilo-cycles; used by the performance simulator to convert
        network delay into end-to-end delay.
    """

    name: str
    config: PlatformConfig
    traffic: np.ndarray
    power: np.ndarray
    compute_cycles: float = 1_000.0
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        traffic = np.asarray(self.traffic, dtype=np.float64)
        power = np.asarray(self.power, dtype=np.float64)
        num = self.config.num_tiles
        if traffic.shape != (num, num):
            raise ValueError(f"traffic matrix must be {num}x{num}, got {traffic.shape}")
        if power.shape != (num,):
            raise ValueError(f"power vector must have length {num}, got {power.shape}")
        if np.any(traffic < 0):
            raise ValueError("traffic frequencies must be non-negative")
        if np.any(np.diag(traffic) != 0):
            raise ValueError("traffic matrix must have a zero diagonal (no self traffic)")
        if np.any(power < 0):
            raise ValueError("PE power must be non-negative")
        if self.compute_cycles <= 0:
            raise ValueError("compute_cycles must be > 0")
        object.__setattr__(self, "traffic", traffic)
        object.__setattr__(self, "power", power)

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    def total_traffic(self) -> float:
        """Total communication volume (sum of all ``f_ij``)."""
        return float(self.traffic.sum())

    def traffic_by_class(self) -> dict[str, float]:
        """Traffic volume aggregated by (source type -> destination type)."""
        config = self.config
        totals: dict[str, float] = {}
        type_ids = {
            PEType.CPU: config.cpu_ids,
            PEType.GPU: config.gpu_ids,
            PEType.LLC: config.llc_ids,
        }
        for src_type, src_ids in type_ids.items():
            for dst_type, dst_ids in type_ids.items():
                key = f"{src_type.value}->{dst_type.value}"
                totals[key] = float(self.traffic[np.ix_(src_ids, dst_ids)].sum())
        return totals

    def tile_power(self, placement: np.ndarray) -> np.ndarray:
        """Per-tile power for a given placement array (tile -> PE)."""
        return self.power[np.asarray(placement, dtype=np.int64)]

    def tile_traffic(self, placement: np.ndarray) -> np.ndarray:
        """Tile-to-tile frequency matrix ``F[s, t] = f_{placement[s], placement[t]}``.

        Flattened row-major, this is the pair-frequency vector consumed by the
        vectorized objective engine: its order matches the flat
        ``src * num_tiles + dst`` pair indexing of the routing tables' pair
        structures (:meth:`repro.noc.routing.RoutingTables.link_loads`,
        :meth:`~repro.noc.routing.RoutingTables.pair_lengths`, ...).
        """
        placement = np.asarray(placement, dtype=np.int64)
        # Two ``take`` gathers give the bytes of ``traffic[np.ix_(p, p)]``
        # faster (docs/performance.md, "Route cache counted in tables").
        return self.traffic.take(placement, 0).take(placement, 1)

    def pair_frequencies(self, placement: np.ndarray) -> np.ndarray:
        """Flat per-tile-pair frequency vector (length ``num_tiles**2``)."""
        return self.tile_traffic(placement).ravel()

    def scaled(self, factor: float) -> "Workload":
        """Return a copy with traffic uniformly scaled by ``factor``."""
        if factor <= 0:
            raise ValueError("scale factor must be > 0")
        return Workload(
            name=self.name,
            config=self.config,
            traffic=self.traffic * factor,
            power=self.power,
            compute_cycles=self.compute_cycles,
            metadata=dict(self.metadata),
        )
