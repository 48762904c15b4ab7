"""RouteStore: disk warm-start entries round-trip byte-exact and degrade to misses.

The store crosses process boundaries the in-memory engine cannot (pool
workers, campaign cells), so its contract is strict: a load either
reconstructs tables bit-identical to the build that was saved, or returns
``None`` — never wrong routes, never an exception, no matter what is on disk.
"""

import gc
import sys
import warnings

import numpy as np
import pytest

from repro.noc.constraints import random_design
from repro.noc.platform import PlatformConfig
from repro.noc.route_store import DEFAULT_MAX_ENTRIES, RouteStore
from repro.noc.routing import NO_PREDECESSOR, RoutingTables
from repro.noc.routing_engine import RoutingEngine
from tests.oracles.routing import router_ports

PLATFORM = PlatformConfig.small_3x3x3()


@pytest.fixture
def tables():
    design = random_design(PLATFORM, 3)
    return RoutingTables(design, PLATFORM.grid)


class TestRoundTrip:
    def test_load_reconstructs_saved_state_byte_exact(self, tmp_path, tables):
        store = RouteStore(tmp_path)
        assert store.save(tables) is True
        loaded = store.load(tables.links, tables.num_tiles, tables.grid)
        assert loaded is not None
        assert loaded.links == tables.links
        assert loaded._distance.tobytes() == tables._distance.tobytes()
        assert loaded._predecessors.tobytes() == tables._predecessors.tobytes()
        for ours, theirs in zip(loaded.pair_link_pattern(), tables.pair_link_pattern()):
            assert ours.tobytes() == theirs.tobytes()
        assert loaded.pair_hops().tobytes() == tables.pair_hops().tobytes()
        assert loaded.pair_router_ports().tobytes() == tables.pair_router_ports().tobytes()
        assert np.array_equal(loaded.pair_router_ports(), router_ports(loaded))

    def test_missing_key_is_none(self, tmp_path, tables):
        store = RouteStore(tmp_path)
        assert store.load(tables.links, tables.num_tiles, tables.grid) is None

    def test_save_is_idempotent(self, tmp_path, tables):
        store = RouteStore(tmp_path)
        assert store.save(tables) is True
        assert store.save(tables) is False
        assert len(store) == 1

    def test_identical_content_across_two_stores(self, tmp_path, tables):
        """Entry names derive from content only: two stores populated from the
        same tables are file-for-file identical (determinism contract)."""
        first, second = RouteStore(tmp_path / "a"), RouteStore(tmp_path / "b")
        first.save(tables)
        second.save(tables)
        (file_a,) = sorted(p.name for p in (tmp_path / "a").iterdir())
        (file_b,) = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert file_a == file_b
        assert (tmp_path / "a" / file_a).read_bytes() == (tmp_path / "b" / file_b).read_bytes()


class TestBounds:
    def test_max_entries_caps_saves(self, tmp_path):
        store = RouteStore(tmp_path, max_entries=2)
        outcomes = []
        for seed in range(4):
            design = random_design(PLATFORM, seed)
            outcomes.append(store.save(RoutingTables(design, PLATFORM.grid)))
        assert outcomes == [True, True, False, False]
        assert len(store) == 2

    def test_default_bound(self, tmp_path):
        assert RouteStore(tmp_path).max_entries == DEFAULT_MAX_ENTRIES

    def test_invalid_bound_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            RouteStore(tmp_path, max_entries=0)

    def test_len_of_missing_directory_is_zero(self, tmp_path):
        assert len(RouteStore(tmp_path / "never-created")) == 0


class TestMissNotError:
    def test_grid_mismatch_is_none(self, tmp_path, tables):
        """Same links hashed under another grid must not resolve — the key
        includes the dims, so this is simply a different entry."""
        store = RouteStore(tmp_path)
        store.save(tables)
        other = PlatformConfig.paper_4x4x4()
        assert store.load(tables.links, other.num_tiles, other.grid) is None

    def test_link_set_mismatch_degrades_to_miss(self, tmp_path, tables):
        """A file renamed onto another key (simulated collision / stale cache)
        fails the stored-endpoint verification and loads as None."""
        store = RouteStore(tmp_path)
        store.save(tables)
        (entry,) = list(tmp_path.iterdir())
        victim = random_design(PLATFORM, 99)
        victim_key = RouteStore.key_for(victim.links, victim.num_tiles, PLATFORM.grid)
        entry.rename(tmp_path / f"{victim_key}.npz")
        assert store.load(victim.links, victim.num_tiles, PLATFORM.grid) is None

    def test_corrupt_file_degrades_to_miss(self, tmp_path, tables):
        store = RouteStore(tmp_path)
        store.save(tables)
        (entry,) = list(tmp_path.iterdir())
        entry.write_bytes(b"not an npz archive")
        assert store.load(tables.links, tables.num_tiles, tables.grid) is None

    @staticmethod
    def _overwrite_state(store, **arrays):
        """Rewrite the saved entry with some state arrays replaced."""
        (entry,) = list(store.root.iterdir())
        with np.load(entry) as payload:
            state = dict(payload)
        state.update(arrays)
        with open(entry, "wb") as handle:
            np.savez(handle, **state)

    @pytest.mark.parametrize("name", ["distance", "predecessors"])
    def test_misshaped_state_degrades_to_miss(self, tmp_path, tables, name):
        """Matching dims and links but a 3x3 state array: a miss, not an
        IndexError on the first route query."""
        store = RouteStore(tmp_path)
        store.save(tables)
        self._overwrite_state(store, **{name: np.zeros((3, 3), dtype=np.int64)})
        assert store.load(tables.links, tables.num_tiles, tables.grid) is None

    @pytest.mark.parametrize("bad", [-1, NO_PREDECESSOR + 1, 27, 70_000, 65_541])
    def test_out_of_range_predecessor_degrades_to_miss(self, tmp_path, tables, bad):
        """Every predecessor must be a tile id or the sentinel; 65541 would
        wrap to tile 5 if the int16 cast came first."""
        store = RouteStore(tmp_path)
        store.save(tables)
        predecessors = tables.table_state()["predecessors"].astype(np.int64)
        predecessors[1, 2] = bad
        self._overwrite_state(store, predecessors=predecessors)
        assert store.load(tables.links, tables.num_tiles, tables.grid) is None

    def test_float_predecessors_degrade_to_miss(self, tmp_path, tables):
        store = RouteStore(tmp_path)
        store.save(tables)
        floats = tables.table_state()["predecessors"] + 0.5
        self._overwrite_state(store, predecessors=floats)
        assert store.load(tables.links, tables.num_tiles, tables.grid) is None

    def test_wide_predecessors_load_narrowed(self, tmp_path, tables):
        """Entries written with int64 predecessors still load, as int16."""
        store = RouteStore(tmp_path)
        store.save(tables)
        wide = tables.table_state()["predecessors"].astype(np.int64)
        self._overwrite_state(store, predecessors=wide)
        loaded = store.load(tables.links, tables.num_tiles, tables.grid)
        assert loaded is not None
        assert loaded._predecessors.tobytes() == tables._predecessors.tobytes()

    def test_truncated_file_degrades_to_miss(self, tmp_path, tables, monkeypatch):
        """A failed parse is a miss that leaves no open file behind: the
        ResourceWarning of a leaked handle fires when it is finalized, where
        the "error" filter turns it into an unraisable exception."""
        store = RouteStore(tmp_path)
        store.save(tables)
        (entry,) = list(tmp_path.iterdir())
        entry.write_bytes(entry.read_bytes()[:40])
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            assert store.load(tables.links, tables.num_tiles, tables.grid) is None
            gc.collect()
        assert unraisable == []


class TestEngineIntegration:
    def test_store_hit_turns_sibling_miss_into_repair(self, tmp_path):
        """A second engine (another process in real runs) repairs from the
        store-loaded parent instead of cold-building the child."""
        store = RouteStore(tmp_path)
        parent = random_design(PLATFORM, 5)
        first = RoutingEngine(PLATFORM.grid, store=store)
        first.tables(parent)
        # Fresh builds are auto-saved to an attached store.
        assert first.store_saves == 1

        from repro.noc.moves import MoveGenerator

        rng = np.random.default_rng(8)
        moves = MoveGenerator(PLATFORM)
        child = None
        while child is None:
            child = moves.rewire_link(parent, rng)

        second = RoutingEngine(PLATFORM.grid, store=store)
        repaired = second.tables(child)
        assert second.store_hits == 1
        assert second.incremental_repairs == 1
        fresh = RoutingTables(child, PLATFORM.grid)
        assert repaired.pair_hops().tobytes() == fresh.pair_hops().tobytes()
        assert np.array_equal(repaired._predecessors, fresh._predecessors)

    def test_stats_expose_store_counters_only_when_attached(self, tmp_path):
        bare = RoutingEngine(PLATFORM.grid)
        assert "store_hits" not in bare.stats()
        stored = RoutingEngine(PLATFORM.grid, store=RouteStore(tmp_path))
        stats = stored.stats()
        assert stats["store_hits"] == 0 and stats["store_saves"] == 0
