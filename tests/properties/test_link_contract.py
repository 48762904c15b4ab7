"""The tuple ``Link`` keeps the frozen-dataclass contract the fingerprints depend on.

Set iteration order, every seeded draw that indexes a list built from a set
or a sort, and the golden ``repr(design.key())`` fingerprints all rest on
how a link hashes, orders and prints.  These properties pin each of those
against the retired dataclass (``tests/oracles/links.py``) on random link
collections: hash, ``sorted`` order, ``repr``, the pickle round trip and
``set`` / ``frozenset`` iteration order (including the set algebra
crossover shuffles) must match exactly.

The one deliberate semantic change is equality with plain tuples:
``Link(a, b) == (a, b)`` is now true (it was false for the dataclass).
"""

import pickle

from hypothesis import given
from hypothesis import strategies as st

from repro.noc.links import Link
from tests.oracles.links import Link as DataclassLink

endpoint_pairs = st.lists(
    st.tuples(st.integers(0, 300), st.integers(0, 300))
    .filter(lambda pair: pair[0] != pair[1])
    .map(lambda pair: (min(pair), max(pair))),
    max_size=120,
)


def both(pairs):
    return [Link(a, b) for a, b in pairs], [DataclassLink(a, b) for a, b in pairs]


@given(pairs=endpoint_pairs)
def test_hash_and_repr_match_the_dataclass(pairs):
    links, oracle = both(pairs)
    assert [hash(link) for link in links] == [hash(link) for link in oracle]
    assert [repr(link) for link in links] == [repr(link) for link in oracle]
    assert [str(link) for link in links] == [str(link) for link in oracle]


@given(pairs=endpoint_pairs)
def test_sorted_order_matches_the_dataclass(pairs):
    links, oracle = both(pairs)
    assert [repr(link) for link in sorted(links)] == [repr(link) for link in sorted(oracle)]
    assert repr(tuple(sorted(links))) == repr(tuple(sorted(oracle)))


@given(pairs=endpoint_pairs)
def test_set_iteration_order_matches_the_dataclass(pairs):
    links, oracle = both(pairs)
    assert [repr(link) for link in set(links)] == [repr(link) for link in set(oracle)]
    assert [repr(link) for link in frozenset(links)] == [
        repr(link) for link in frozenset(oracle)
    ]


@given(left=endpoint_pairs, right=endpoint_pairs)
def test_set_algebra_order_matches_the_dataclass(left, right):
    """crossover_links lists ``(A | B) - (A & B)`` before shuffling it."""
    links_a, oracle_a = (frozenset(side) for side in both(left))
    links_b, oracle_b = (frozenset(side) for side in both(right))
    ours = list((links_a | links_b) - (links_a & links_b))
    theirs = list((oracle_a | oracle_b) - (oracle_a & oracle_b))
    assert [repr(link) for link in ours] == [repr(link) for link in theirs]
    assert [repr(link) for link in links_a ^ links_b] == [repr(link) for link in oracle_a ^ oracle_b]


@given(pairs=endpoint_pairs)
def test_pickle_round_trip_matches_the_dataclass(pairs):
    links, oracle = both(pairs)
    restored = pickle.loads(pickle.dumps(tuple(links)))
    restored_oracle = pickle.loads(pickle.dumps(tuple(oracle)))
    assert restored == tuple(links)
    assert all(type(link) is Link for link in restored)
    assert [repr(link) for link in restored] == [repr(link) for link in restored_oracle]
    assert [hash(link) for link in restored] == [hash(link) for link in restored_oracle]


@given(pairs=endpoint_pairs)
def test_accessors_match_the_dataclass(pairs):
    links, oracle = both(pairs)
    for link, old in zip(links, oracle):
        assert (link.a, link.b) == (old.a, old.b)
        assert link.endpoints() == old.endpoints()
        assert link.other(link.a) == old.other(old.a)
        assert Link.make(link.b, link.a) == link


def test_equality_with_plain_tuples_is_the_deliberate_change():
    """A tuple ``Link`` equals its endpoint pair; the dataclass did not.

    Hashes already agreed (both are ``hash((a, b))``), so the only visible
    effect is that a bare pair now finds a link in a set or dict.
    """
    assert Link(2, 5) == (2, 5)
    assert (2, 5) in {Link(2, 5)}
    assert DataclassLink(2, 5) != (2, 5)
    assert hash(Link(2, 5)) == hash(DataclassLink(2, 5)) == hash((2, 5))
    assert Link(2, 5) != DataclassLink(2, 5)
