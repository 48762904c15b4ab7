"""Tests for RNG helpers."""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.rng import BulkIntegers, RngLike, UnseededRngWarning, ensure_rng, spawn_rng

#: Bounds that exercise every branch of Lemire's rule: no word (1), exact
#: powers of two, odd bounds, and bounds above 2**31, where about half the
#: words are rejected and redrawn.
BOUNDS = st.one_of(
    st.sampled_from([1, 2, 3, 4, 7, 64, 2**16, 2**31, 2**32 - 2, 2**32 - 1, 2**32]),
    st.integers(1, 10_000).map(lambda k: 2 * k + 1),
    st.integers(2**31, 2**32 - 2),
)


def _scalar_draws(rng: np.random.Generator, bounds: list[int]) -> list[int]:
    return [int(rng.integers(n)) for n in bounds]


def _same_state(a, b) -> bool:
    """Deep equality of two ``bit_generator.state`` values (MT19937 holds an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


def _assert_same_generator(a: np.random.Generator, b: np.random.Generator) -> None:
    assert _same_state(a.bit_generator.state, b.bit_generator.state)
    assert a.integers(0, 2**63, size=4).tolist() == b.integers(0, 2**63, size=4).tolist()


class TestEnsureRng:
    def test_none_gives_generator_and_warns(self):
        with pytest.warns(UnseededRngWarning):
            assert isinstance(ensure_rng(None), np.random.Generator)

    def test_allow_unseeded_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            generator = ensure_rng(None, allow_unseeded=True)
        assert isinstance(generator, np.random.Generator)

    def test_seeded_inputs_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ensure_rng(7)
            ensure_rng(np.random.default_rng(0))

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(5).integers(0, 1000, size=10)
        b = ensure_rng(5).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(0)
        assert ensure_rng(generator) is generator

    def test_invalid_type_rejected(self):
        with pytest.raises(TypeError):
            ensure_rng("not-an-rng")

    def test_numpy_integer_seed_accepted(self):
        seed = np.int64(7)
        assert isinstance(ensure_rng(seed), np.random.Generator)

    def test_rnglike_is_a_runtime_union(self):
        # A real PEP 604 alias, not a string: usable in isinstance checks.
        assert isinstance(3, RngLike)
        assert isinstance(np.random.default_rng(0), RngLike)
        assert isinstance(None, RngLike)
        assert not isinstance("seed", RngLike)


class TestSpawnRng:
    def test_spawn_count(self):
        children = spawn_rng(np.random.default_rng(0), 4)
        assert len(children) == 4

    def test_children_are_independent_streams(self):
        children = spawn_rng(np.random.default_rng(0), 2)
        a = children[0].integers(0, 10_000, size=20)
        b = children[1].integers(0, 10_000, size=20)
        assert not np.array_equal(a, b)

    def test_spawn_is_reproducible_from_parent_seed(self):
        first = spawn_rng(np.random.default_rng(3), 2)[0].integers(0, 100, size=5)
        second = spawn_rng(np.random.default_rng(3), 2)[0].integers(0, 100, size=5)
        assert np.array_equal(first, second)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_rng(np.random.default_rng(0), -1)


class TestBulkIntegers:
    @given(
        seed=st.integers(0, 2**32 - 1),
        half_word=st.booleans(),
        bounds=st.lists(BOUNDS, max_size=700),
    )
    def test_matches_scalar_integers(self, seed, half_word, bounds):
        scalar, bulk = np.random.default_rng(seed), np.random.default_rng(seed)
        if half_word:
            # One 32-bit draw leaves PCG64 holding the other half of its word.
            for rng in (scalar, bulk):
                rng.integers(0, 2**32, dtype=np.uint32)
            assert bulk.bit_generator.state["has_uint32"] == 1
        with BulkIntegers(bulk) as draws:
            values = [draws.below(n) for n in bounds]
        assert values == _scalar_draws(scalar, bounds)
        _assert_same_generator(scalar, bulk)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                               np.random.Philox, np.random.SFC64])
    def test_matches_scalar_integers_on_every_bit_generator(self, bit_generator):
        bounds = [n for k in range(1, 300) for n in (k, 2**31 + 977 * k, 2**32 - k)]
        scalar = np.random.Generator(bit_generator(5))
        bulk = np.random.Generator(bit_generator(5))
        with BulkIntegers(bulk) as draws:
            values = [draws.below(n) for n in bounds]
        assert values == _scalar_draws(scalar, bounds)
        _assert_same_generator(scalar, bulk)

    def test_refills_across_many_blocks(self, monkeypatch):
        monkeypatch.setattr(BulkIntegers, "_BLOCK", 3)
        bounds = [2 + k % 50 for k in range(100)] + [2**31 + 1] * 20
        scalar, bulk = np.random.default_rng(8), np.random.default_rng(8)
        with BulkIntegers(bulk) as draws:
            values = [draws.below(n) for n in bounds]
        assert values == _scalar_draws(scalar, bounds)
        _assert_same_generator(scalar, bulk)

    def test_rejection_draws_extra_words(self):
        # At 2**31 + 1 almost half of all words are rejected.
        bounds = [2**31 + 1] * 200
        scalar, bulk = np.random.default_rng(4), np.random.default_rng(4)
        with BulkIntegers(bulk) as draws:
            values = [draws.below(n) for n in bounds]
        assert values == _scalar_draws(scalar, bounds)
        _assert_same_generator(scalar, bulk)
        one_word_each = np.random.default_rng(4)
        one_word_each.integers(0, 2**32, size=len(bounds), dtype=np.uint32)
        assert not _same_state(one_word_each.bit_generator.state, bulk.bit_generator.state)

    def test_bound_one_draws_no_word(self):
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        with BulkIntegers(rng) as draws:
            assert [draws.below(1) for _ in range(10)] == [0] * 10
        assert rng.bit_generator.state == before

    def test_unused_helper_leaves_generator_untouched(self):
        rng = np.random.default_rng(2)
        before = rng.bit_generator.state
        with BulkIntegers(rng):
            pass
        assert rng.bit_generator.state == before

    def test_sync_mid_stream_then_continue(self):
        scalar, bulk = np.random.default_rng(6), np.random.default_rng(6)
        draws = BulkIntegers(bulk)
        first = [draws.below(n) for n in range(2, 40)]
        draws.sync()
        assert first == _scalar_draws(scalar, list(range(2, 40)))
        # After a sync the generator may be used directly, then the helper again.
        assert bulk.permutation(10).tolist() == scalar.permutation(10).tolist()
        second = [draws.below(n) for n in range(300, 700)]
        draws.sync()
        assert second == _scalar_draws(scalar, list(range(300, 700)))
        _assert_same_generator(scalar, bulk)

    def test_exception_inside_block_still_syncs(self):
        scalar, bulk = np.random.default_rng(9), np.random.default_rng(9)
        with pytest.raises(RuntimeError, match="stop"):
            with BulkIntegers(bulk) as draws:
                for n in range(2, 30):
                    draws.below(n)
                raise RuntimeError("stop")
        _scalar_draws(scalar, list(range(2, 30)))
        _assert_same_generator(scalar, bulk)

    @pytest.mark.parametrize("bound", [0, -3, 2**32 + 1, 2**40])
    def test_out_of_range_bound_rejected_without_a_draw(self, bound):
        rng = np.random.default_rng(1)
        before = rng.bit_generator.state
        with BulkIntegers(rng) as draws:
            with pytest.raises(ValueError, match="bound"):
                draws.below(bound)
        assert rng.bit_generator.state == before
