"""Synthetic application workloads (traffic + power) for the DSE problem.

The paper extracts the communication frequencies ``f_ij`` and per-PE power
profiles from gem5-GPU/GPGPU-Sim, McPAT and GPUWattch runs of seven Rodinia
benchmarks.  Those simulators are unavailable offline, so this package
provides seeded synthetic generators that reproduce the qualitative traffic
and power structure of each benchmark (documented in DESIGN.md).
"""

from repro.workloads.registry import WorkloadRegistry, get_workload
from repro.workloads.rodinia import RODINIA_APPLICATIONS, RodiniaProfile, generate_rodinia_workload
from repro.workloads.workload import Workload

__all__ = [
    "RODINIA_APPLICATIONS",
    "RodiniaProfile",
    "Workload",
    "WorkloadRegistry",
    "generate_rodinia_workload",
    "get_workload",
]
