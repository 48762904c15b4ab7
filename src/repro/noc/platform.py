"""Platform configuration: processing elements, link budgets and technology constants.

The paper's experimental platform (Section V.A) is a 4x4x4 tile system with
40 NVIDIA Maxwell-class GPU cores, 8 x86 CPU cores and 16 LLC tiles, connected
by 96 planar links and 48 TSVs.  :meth:`PlatformConfig.paper_4x4x4` builds that
configuration; smaller factory methods exist for fast tests and the reduced
benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from repro.noc.geometry import Grid3D
from repro.utils.validation import require, require_count, require_positive


@lru_cache(maxsize=None)
def _shared_grid(n: int, layers: int) -> Grid3D:
    """The one :class:`Grid3D` of an ``n x n x layers`` stack (grids are never mutated)."""
    return Grid3D(n, layers)


class PEType(str, Enum):
    """Type of the processing element hosted by a tile."""

    CPU = "CPU"
    GPU = "GPU"
    LLC = "LLC"


@dataclass(frozen=True)
class PlatformConfig:
    """Static description of the 3D heterogeneous manycore platform.

    Parameters
    ----------
    n:
        Per-layer grid dimension (the platform is ``n x n`` tiles per layer).
    layers:
        Number of stacked layers (``Y`` in the paper).
    num_cpus, num_gpus, num_llcs:
        Number of processing elements of each type.  They must sum to the
        total tile count ``n * n * layers``.
    num_planar_links, num_vertical_links:
        Link budget.  The paper allocates the same number of planar links as
        an equivalent 3D mesh (``2 n (n-1) layers``) and one TSV per vertical
        tile pair (``n^2 (layers-1)``).
    max_planar_length:
        Maximum Manhattan length of a planar link, in units of inter-tile
        spacing (5 in the paper).
    max_router_degree:
        Maximum number of links attached to any single router (7 in the
        paper).
    router_stages:
        Router pipeline depth ``r`` used by the latency objective.
    link_energy_per_flit, router_energy_per_port:
        ``E_link`` and ``E_r`` of the energy objective (picojoules).
    vertical_resistance, base_resistance:
        ``R_j`` and ``R_b`` of the thermal model (K/W); stand-ins for the
        3D-ICE-derived constants of the paper.
    cpu_frequency_ghz, gpu_frequency_ghz:
        Operating frequencies used by the performance simulator.
    """

    n: int = 4
    layers: int = 4
    num_cpus: int = 8
    num_gpus: int = 40
    num_llcs: int = 16
    num_planar_links: int = 96
    num_vertical_links: int = 48
    max_planar_length: int = 5
    max_router_degree: int = 7
    router_stages: int = 4
    link_energy_per_flit: float = 0.98
    router_energy_per_port: float = 1.37
    vertical_resistance: float = 0.8
    base_resistance: float = 2.0
    cpu_frequency_ghz: float = 2.5
    gpu_frequency_ghz: float = 0.7
    name: str = field(default="custom", compare=False)

    def __post_init__(self) -> None:
        for name, minimum in (
            ("n", 1),
            ("layers", 1),
            ("num_cpus", 0),
            ("num_gpus", 0),
            ("num_llcs", 1),  # memory access is required
            ("num_planar_links", 1),
            ("num_vertical_links", 0),
            ("max_planar_length", 1),
            ("max_router_degree", 3),  # connectivity headroom
            ("router_stages", 1),
        ):
            object.__setattr__(self, name, require_count(getattr(self, name), name, minimum))
        total = self.num_cpus + self.num_gpus + self.num_llcs
        require(
            total == self.num_tiles,
            f"PE count {total} must equal tile count {self.num_tiles} "
            f"({self.n}x{self.n}x{self.layers})",
        )
        require(
            self.num_vertical_links <= self.max_vertical_candidates,
            f"num_vertical_links {self.num_vertical_links} exceeds the number of "
            f"vertical tile pairs {self.max_vertical_candidates}",
        )
        require(
            self.num_planar_links <= self.max_planar_candidates,
            f"num_planar_links {self.num_planar_links} exceeds the number of "
            f"feasible planar tile pairs {self.max_planar_candidates}",
        )
        require(
            self.num_links <= self.max_router_degree * self.num_tiles // 2,
            f"total link budget {self.num_links} exceeds the {self.max_router_degree} "
            f"ports of each of the {self.num_tiles} routers "
            f"(at most {self.max_router_degree * self.num_tiles // 2} links)",
        )
        require_positive(self.link_energy_per_flit, "link_energy_per_flit")
        require_positive(self.router_energy_per_port, "router_energy_per_port")
        require_positive(self.vertical_resistance, "vertical_resistance")
        require_positive(self.base_resistance, "base_resistance")
        require_positive(self.cpu_frequency_ghz, "cpu_frequency_ghz")
        require_positive(self.gpu_frequency_ghz, "gpu_frequency_ghz")
        require(
            self.num_links >= self.num_tiles - 1,
            "total link budget must allow a connected network (>= num_tiles - 1 links)",
        )
        require(
            self.num_llcs <= len(self.grid.edge_tiles()),
            "there must be enough edge tiles to host every LLC",
        )

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def grid(self) -> Grid3D:
        """The tile grid of this platform, shared by every platform of the same shape.

        The grid lives in a module cache keyed on ``(n, layers)``, not on the
        instance, so it takes no part in equality, hashing or pickling.
        """
        return _shared_grid(self.n, self.layers)

    @property
    def num_tiles(self) -> int:
        """Total number of tiles (== number of PEs)."""
        return self.n * self.n * self.layers

    @property
    def num_links(self) -> int:
        """Total number of links (planar + vertical)."""
        return self.num_planar_links + self.num_vertical_links

    @property
    def max_vertical_candidates(self) -> int:
        """Number of possible TSV positions (one per vertical tile pair)."""
        return self.n * self.n * (self.layers - 1)

    @property
    def max_planar_candidates(self) -> int:
        """Number of possible planar links (same-layer tile pairs within ``max_planar_length``)."""
        n = self.n
        per_layer = 0
        for dx in range(n):
            for dy in range(n):
                if 1 <= dx + dy <= self.max_planar_length:
                    # A diagonal offset fits the grid in two mirror orientations.
                    orientations = 2 if dx and dy else 1
                    per_layer += orientations * (n - dx) * (n - dy)
        return per_layer * self.layers

    # ------------------------------------------------------------------ #
    # PE catalogue
    # ------------------------------------------------------------------ #
    @property
    def cpu_ids(self) -> np.ndarray:
        """Logical PE ids of the CPUs."""
        return np.arange(0, self.num_cpus, dtype=np.int64)

    @property
    def gpu_ids(self) -> np.ndarray:
        """Logical PE ids of the GPUs."""
        return np.arange(self.num_cpus, self.num_cpus + self.num_gpus, dtype=np.int64)

    @property
    def llc_ids(self) -> np.ndarray:
        """Logical PE ids of the LLC tiles."""
        return np.arange(self.num_cpus + self.num_gpus, self.num_tiles, dtype=np.int64)

    def pe_type(self, pe_id: int) -> PEType:
        """Return the type of logical PE ``pe_id``."""
        if not 0 <= pe_id < self.num_tiles:
            raise ValueError(f"pe_id {pe_id} out of range [0, {self.num_tiles})")
        if pe_id < self.num_cpus:
            return PEType.CPU
        if pe_id < self.num_cpus + self.num_gpus:
            return PEType.GPU
        return PEType.LLC

    # ------------------------------------------------------------------ #
    # Factory configurations
    # ------------------------------------------------------------------ #
    @classmethod
    def paper_4x4x4(cls) -> "PlatformConfig":
        """The 64-tile platform used in the paper's evaluation (Section V.A)."""
        return cls(
            n=4,
            layers=4,
            num_cpus=8,
            num_gpus=40,
            num_llcs=16,
            num_planar_links=96,
            num_vertical_links=48,
            name="paper-4x4x4",
        )

    @classmethod
    def big_8x8x4(cls) -> "PlatformConfig":
        """A 256-tile platform for big-grid profiling (8x8 per layer, 4 layers).

        Scales the paper platform 4x in tile count while keeping its flavour:
        1/8 of the tiles are CPUs, a quarter are LLCs placed on edge tiles,
        and the link budgets keep the same links-per-tile density (~1.75
        planar, ~0.6 vertical).  The vertical budget stays well below the 192
        single-column candidates so the degree-capped random fill always
        terminates.
        """
        return cls(
            n=8,
            layers=4,
            num_cpus=32,
            num_gpus=160,
            num_llcs=64,
            num_planar_links=448,
            num_vertical_links=160,
            name="big-8x8x4",
        )

    @classmethod
    def small_3x3x3(cls) -> "PlatformConfig":
        """A 27-tile platform matching the Fig. 1 illustration; used by the reduced benchmarks."""
        return cls(
            n=3,
            layers=3,
            num_cpus=4,
            num_gpus=15,
            num_llcs=8,
            num_planar_links=36,
            num_vertical_links=18,
            name="small-3x3x3",
        )

    @classmethod
    def tiny_2x2x2(cls) -> "PlatformConfig":
        """An 8-tile platform for unit tests."""
        return cls(
            n=2,
            layers=2,
            num_cpus=2,
            num_gpus=3,
            num_llcs=3,
            num_planar_links=8,
            num_vertical_links=4,
            name="tiny-2x2x2",
        )

    @classmethod
    def flat_4x4x1(cls) -> "PlatformConfig":
        """A single-layer 16-tile platform (2D NoC corner case)."""
        return cls(
            n=4,
            layers=1,
            num_cpus=2,
            num_gpus=8,
            num_llcs=6,
            num_planar_links=24,
            num_vertical_links=0,
            name="flat-4x4x1",
        )
