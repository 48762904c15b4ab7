"""JSON serialisation of designs and result summaries.

Designs need to leave the Python process in two situations: when a selected
design is handed to a downstream flow (floorplanning, RTL generation, a full
simulator), and when long search campaigns checkpoint their populations.  The
format is plain JSON with explicit fields so other tools can consume it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

import numpy as np

from repro.moo.result import OptimizationResult, SearchSnapshot
from repro.noc.design import NocDesign
from repro.noc.platform import PlatformConfig


def write_json_atomic(payload: Any, path: "str | Path", indent: int | None = 2) -> Path:
    """Write JSON to ``path`` atomically (temp file + rename).

    Campaign shards and manifests are written through this helper so a killed
    run can never leave a half-written file behind: a shard either exists and
    parses, or does not exist — which is exactly the completion test the
    campaign resume logic relies on.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=indent))
    os.replace(tmp, path)
    return path


def json_line(payload: Any) -> bytes:
    """Encode one newline-terminated compact JSON line (JSONL record).

    The append-only twin of :func:`write_json_atomic`, shared by the campaign
    event log and shard compaction: both write single-line records whose
    exact byte length matters at write time — the event log appends each line
    with one ``os.write`` on an ``O_APPEND`` descriptor (POSIX keeps
    concurrent single writes from interleaving), and the rollup records each
    line's byte range in the manifest index so one cell is read with one
    seek.  Compact separators keep a record's bytes canonical for a given
    payload.
    """
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def design_to_dict(design: NocDesign) -> dict[str, Any]:
    """Convert a design to a JSON-serialisable dictionary."""
    return {
        "placement": [int(pe) for pe in design.placement],
        "links": [[int(link.a), int(link.b)] for link in design.links],
    }


def design_from_dict(payload: dict[str, Any]) -> NocDesign:
    """Rebuild a design from :func:`design_to_dict` output."""
    if "placement" not in payload or "links" not in payload:
        raise ValueError("design payload must contain 'placement' and 'links'")
    return NocDesign.from_arrays(payload["placement"], [tuple(pair) for pair in payload["links"]])


def save_design(design: NocDesign, path: "str | Path") -> Path:
    """Write a design to a JSON file and return the path."""
    path = Path(path)
    path.write_text(json.dumps(design_to_dict(design), indent=2))
    return path


def load_design(path: "str | Path") -> NocDesign:
    """Read a design from a JSON file written by :func:`save_design`."""
    return design_from_dict(json.loads(Path(path).read_text()))


def platform_to_dict(config: PlatformConfig) -> dict[str, Any]:
    """Convert a platform configuration to a JSON-serialisable dictionary.

    Every constructor field is included (the energy/thermal/frequency
    constants too), so ``PlatformConfig(**platform_to_dict(config))``
    round-trips exactly — `Study.to_dict` relies on this for custom
    platforms.
    """
    return {
        "name": config.name,
        "n": config.n,
        "layers": config.layers,
        "num_cpus": config.num_cpus,
        "num_gpus": config.num_gpus,
        "num_llcs": config.num_llcs,
        "num_planar_links": config.num_planar_links,
        "num_vertical_links": config.num_vertical_links,
        "max_planar_length": config.max_planar_length,
        "max_router_degree": config.max_router_degree,
        "router_stages": config.router_stages,
        "link_energy_per_flit": config.link_energy_per_flit,
        "router_energy_per_port": config.router_energy_per_port,
        "vertical_resistance": config.vertical_resistance,
        "base_resistance": config.base_resistance,
        "cpu_frequency_ghz": config.cpu_frequency_ghz,
        "gpu_frequency_ghz": config.gpu_frequency_ghz,
    }


def result_to_dict(result: OptimizationResult, reference: np.ndarray | None = None) -> dict[str, Any]:
    """Summarise an optimisation result (objectives, history, metrics) as JSON data.

    Designs themselves are included via :func:`design_to_dict` when they are
    :class:`NocDesign` instances; other design types are skipped.
    """
    payload: dict[str, Any] = {
        "algorithm": result.algorithm,
        "problem": result.problem_name,
        "evaluations": int(result.evaluations),
        "elapsed_seconds": float(result.elapsed_seconds),
        "objectives": result.objectives.tolist(),
        "final_front": result.final_front().tolist(),
        "history": [
            {
                "iteration": snap.iteration,
                "evaluations": snap.evaluations,
                "elapsed_seconds": snap.elapsed_seconds,
                "front": snap.front.tolist(),
            }
            for snap in result.history
        ],
    }
    if reference is not None:
        payload["reference_point"] = np.asarray(reference, dtype=float).tolist()
        payload["hypervolume"] = float(result.final_hypervolume(reference))
    designs = [d for d in result.designs if isinstance(d, NocDesign)]
    if designs:
        payload["designs"] = [design_to_dict(d) for d in designs]
    return payload


def result_from_dict(payload: dict[str, Any]) -> OptimizationResult:
    """Rebuild an :class:`OptimizationResult` from :func:`result_to_dict` output.

    Designs are restored when the payload carries them (NoC designs written
    via :func:`design_to_dict`); the reference point and hypervolume, when
    present, land in ``metadata``.  Round-tripping preserves objectives,
    history snapshots and evaluation counts exactly (JSON stores binary64
    floats losslessly via repr).
    """
    for field in ("algorithm", "problem", "objectives"):
        if field not in payload:
            raise ValueError(f"result payload must contain {field!r}")
    history = [
        SearchSnapshot(
            iteration=int(snap["iteration"]),
            evaluations=int(snap["evaluations"]),
            elapsed_seconds=float(snap["elapsed_seconds"]),
            front=np.asarray(snap["front"], dtype=np.float64),
        )
        for snap in payload.get("history", [])
    ]
    designs = [design_from_dict(entry) for entry in payload.get("designs", [])]
    result = OptimizationResult(
        algorithm=payload["algorithm"],
        problem_name=payload["problem"],
        designs=designs,
        objectives=np.asarray(payload["objectives"], dtype=np.float64),
        history=history,
        evaluations=int(payload.get("evaluations", 0)),
        elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
    )
    if "reference_point" in payload:
        result.metadata["reference_point"] = np.asarray(payload["reference_point"], dtype=np.float64)
    if "hypervolume" in payload:
        result.metadata["hypervolume"] = float(payload["hypervolume"])
    return result
