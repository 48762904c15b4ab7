"""Random-number-generator helpers.

Every stochastic component in the library accepts either ``None``, an integer
seed, or an existing :class:`numpy.random.Generator`.  These helpers normalise
that input so that experiments are reproducible end to end.

Nondeterminism is opt-in at the API edge: passing ``None`` without
``allow_unseeded=True`` emits an :class:`UnseededRngWarning`, because a
silently unseeded run cannot be reproduced, compared against a campaign
shard, or debugged after the fact.  This module is the one sanctioned home of
the unseeded escape hatch — ``repro lint`` (rule REP001) flags it everywhere
else, and the committed lint baseline grandfathers exactly the one call
below.
"""

from __future__ import annotations

import warnings
from collections.abc import Mapping
from typing import Any, TypeAlias

import numpy as np

#: Anything :func:`ensure_rng` accepts: a seed, an existing generator, or
#: ``None`` (which warns — see :class:`UnseededRngWarning`).  A real runtime
#: ``TypeAlias`` (PEP 604 union), not a string lookalike, so signatures can
#: reference it and type checkers resolve it.
RngLike: TypeAlias = int | np.random.Generator | None


class UnseededRngWarning(UserWarning):
    """Emitted when ``ensure_rng(None)`` silently creates an unseeded generator.

    Seeded runs are the library's core contract (bit-identical scalar/batch
    and cache-on/off results); an unseeded generator makes a run impossible
    to reproduce.  Pass an explicit seed or generator, or acknowledge the
    nondeterminism with ``allow_unseeded=True``.
    """


def ensure_rng(rng: RngLike = None, *, allow_unseeded: bool = False) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any accepted RNG input.

    Parameters
    ----------
    rng:
        ``None`` (fresh non-deterministic generator), an integer seed, or an
        existing generator (returned unchanged).
    allow_unseeded:
        Acknowledge that ``rng=None`` means an irreproducible run and skip
        the :class:`UnseededRngWarning`.  Library code paths that produce
        results should never need this; it exists for exploratory sessions.
    """
    if rng is None:
        if not allow_unseeded:
            warnings.warn(
                "ensure_rng(None) creates an unseeded generator: this run "
                "cannot be reproduced. Pass an int seed or a "
                "numpy.random.Generator, or opt in with allow_unseeded=True.",
                UnseededRngWarning,
                stacklevel=2,
            )
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"rng must be None, an int seed, or a numpy Generator, got {type(rng)!r}")


#: One ``next_uint32`` word spans ``[0, 2**32)``.
_WORD = 2**32
_WORD_MASK = _WORD - 1


class BulkIntegers:
    """Successive ``int(rng.integers(n))`` values, read from 32-bit words drawn in bulk.

    For ``n <= 2**32``, ``Generator.integers(n)`` is Lemire's multiply-shift
    on one ``next_uint32`` word: ``(w * n) >> 32``, redrawn while the low 32
    bits of ``w * n`` fall below ``(2**32 - n) % n`` (Lemire 2019,
    arXiv:1805.10941); ``n == 1`` draws no word.  :meth:`below` replays that
    rule over words fetched a block at a time with
    ``rng.integers(0, 2**32, size=k, dtype=np.uint32)``, which yields the
    bit generator's next ``next_uint32`` words (a buffered half-word
    included).  The values are the scalar calls' values, at a fraction of
    their per-call overhead.

    The fetch runs ahead of the draws, so ``rng`` must not be used directly
    until :meth:`sync` has run.  :meth:`sync` restores the state snapshot
    taken before the first fetch and redraws exactly the words used, leaving
    ``rng`` where the scalar calls would have left it; draws after a sync
    start a new snapshot.  Leaving a ``with`` block syncs, on an exception
    too.
    """

    __slots__ = ("_rng", "_state", "_words", "_used")

    #: Words per fetch: a 64-tile spanning tree uses a few hundred.
    _BLOCK = 256

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        #: ``rng``'s state before the first fetch since the last sync.
        self._state: Mapping[str, Any] = {}
        self._words: list[int] = []
        self._used = 0

    def __enter__(self) -> BulkIntegers:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.sync()

    def below(self, n: int) -> int:
        """The next ``int(rng.integers(n))``: uniform in ``[0, n)``, for ``1 <= n <= 2**32``."""
        if n <= 1 or n > _WORD:
            if n == 1:
                return 0
            raise ValueError(f"bound must lie in [1, 2**32], got {n}")
        used = self._used
        self._used = used + 1
        try:
            product = self._words[used] * n
        except IndexError:
            product = self._fetch(used) * n
        if product & _WORD_MASK < n:
            threshold = (_WORD - n) % n
            while product & _WORD_MASK < threshold:
                product = self._next_word() * n
        return product >> 32

    def sync(self) -> None:
        """Leave ``rng`` in the state the scalar calls so far would have."""
        if not self._words:
            return
        self._rng.bit_generator.state = self._state
        self._rng.integers(0, _WORD, size=self._used, dtype=np.uint32)
        self._words = []
        self._used = 0

    def _fetch(self, used: int) -> int:
        """Draw the next block of words and return word ``used``."""
        if not self._words:
            self._state = self._rng.bit_generator.state
        words = self._rng.integers(0, _WORD, size=self._BLOCK, dtype=np.uint32)
        self._words += words.tolist()
        return self._words[used]

    def _next_word(self) -> int:
        used = self._used
        self._used = used + 1
        if used < len(self._words):
            return self._words[used]
        return self._fetch(used)


def spawn_rng(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Create ``count`` independent child generators from ``rng``.

    Children are seeded from the parent so that runs remain reproducible while
    avoiding correlated streams between components.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(seed)) for seed in seeds]
