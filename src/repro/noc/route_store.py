"""Bounded disk-backed warm-start table for routing solutions.

A :class:`RouteStore` persists the state arrays of a
:class:`~repro.noc.routing.RoutingTables` instance (distance + canonical
predecessors, see :meth:`~repro.noc.routing.RoutingTables.table_state`) keyed
by a sha256 of the grid dimensions and the exact link set.  Loading a stored
entry reconstructs tables bit-identical to the build that produced it — and
therefore to any fresh build for the same link set — without re-running the
all-pairs Dijkstra.

The store exists for process boundaries that an in-memory
:class:`~repro.noc.routing_engine.RoutingEngine` cannot cross: campaign-cell
processes each own a private engine, so without the store every process pays
a cold build for topologies a sibling already solved.
Attaching one store to all of them turns those rebuilds into a single
``.npz`` read.

Durability and determinism
--------------------------
Writes are atomic (``os.replace`` of a pid-suffixed temporary file), so
readers never observe a partial entry and concurrent writers of the same key
converge on identical content.  Entry names derive only from the stored
content's identity — no wall-clock, counters or randomness — so a store
populated twice from the same designs is file-for-file identical.  The entry
count is bounded by ``max_entries``: once full, new keys are simply not
persisted (concurrent writers may overshoot by at most one entry each, which
keeps the bound approximate but the behaviour deterministic per process).
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.noc.geometry import Grid3D
from repro.noc.links import Link
from repro.noc.routing import NO_PREDECESSOR, RoutingTables

#: Default maximum number of persisted topologies per store.
DEFAULT_MAX_ENTRIES = 64


class RouteStore:
    """Content-keyed ``.npz`` store of routing-table state arrays.

    Parameters
    ----------
    root:
        Directory holding the entries (created on first use).
    max_entries:
        Maximum number of persisted topologies; saves beyond the bound are
        skipped (and report ``False``) rather than evicting older entries,
        so a warm store stays stable under concurrent readers.
    """

    def __init__(self, root: "str | Path", max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.root = Path(root)
        self.max_entries = int(max_entries)

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for name in os.listdir(self.root) if name.endswith(".npz"))

    @staticmethod
    def key_for(
        links: "Sequence[Link] | Iterable[Link]", num_tiles: int, grid: Grid3D
    ) -> str:
        """Deterministic content key for a (grid, link set) topology."""
        ordered = tuple(sorted(links))
        ends = np.array([(link.a, link.b) for link in ordered], dtype=np.int64)
        digest = hashlib.sha256()
        digest.update(np.array([grid.n, grid.layers, num_tiles], dtype=np.int64).tobytes())
        digest.update(ends.tobytes())
        return digest.hexdigest()

    def _entry_path(self, key: str) -> Path:
        return self.root / f"{key}.npz"

    def load(
        self, links: "Sequence[Link] | Iterable[Link]", num_tiles: int, grid: Grid3D
    ) -> "RoutingTables | None":
        """Reconstruct stored tables for a link set, or ``None`` when absent.

        The stored link endpoints are verified against the request before
        reconstruction, so a (vanishingly unlikely) key collision or a stale
        file degrades to a miss instead of wrong routes.  So do state arrays
        of the wrong shape, and predecessors that are not integers or are
        neither :data:`~repro.noc.routing.NO_PREDECESSOR` nor a tile id
        (checked before the int16 cast, so no value can wrap into range).
        """
        ordered = tuple(sorted(links))
        entry_path = self._entry_path(self.key_for(ordered, num_tiles, grid))
        if not entry_path.is_file():
            return None
        try:
            # Open the file ourselves: np.load does not close a handle it
            # opened when parsing the archive raises, which leaks it.
            with open(entry_path, "rb") as handle, np.load(handle) as payload:
                dims = payload["dims"]
                ends = payload["link_ends"]
                distance = payload["distance"]
                predecessors = payload["predecessors"]
        except Exception:
            # A foreign or truncated file is a miss, never an error: writes
            # are atomic, so this only guards files the store never wrote.
            return None
        expected = np.array([(link.a, link.b) for link in ordered], dtype=np.int64)
        expected = expected.reshape(-1, 2)
        square = (num_tiles, num_tiles)
        if (
            tuple(dims.tolist()) != (grid.n, grid.layers, num_tiles)
            or ends.shape != expected.shape
            or not np.array_equal(ends, expected)
            or distance.shape != square
            or predecessors.shape != square
            or predecessors.dtype.kind not in "iu"
        ):
            return None
        in_range = (predecessors >= 0) & (predecessors < num_tiles)
        if not np.all(in_range | (predecessors == NO_PREDECESSOR)):
            return None
        return RoutingTables.from_state(ordered, num_tiles, grid, distance, predecessors)

    def save(self, tables: RoutingTables) -> bool:
        """Persist a table's state; True when a new entry was written.

        Skips (returning ``False``) when the key is already stored or the
        store is full.  The write is atomic: the arrays go to a pid-suffixed
        temporary sibling first and are published with one ``os.replace``.
        """
        key = self.key_for(tables.links, tables.num_tiles, tables.grid)
        entry_path = self._entry_path(key)
        if entry_path.is_file():
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        if len(self) >= self.max_entries:
            return False
        state = tables.table_state()
        ends = np.array([(link.a, link.b) for link in tables.links], dtype=np.int64)
        staged_path = entry_path.with_name(f".{key}.{os.getpid()}.tmp.npz")
        with open(staged_path, "wb") as staged:
            np.savez(
                staged,
                dims=np.array(
                    [tables.grid.n, tables.grid.layers, tables.num_tiles], dtype=np.int64
                ),
                link_ends=ends.reshape(-1, 2),
                distance=state["distance"],
                predecessors=state["predecessors"],
            )
            staged.flush()
            os.fsync(staged.fileno())
        os.replace(staged_path, entry_path)
        return True
