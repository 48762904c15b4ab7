"""The hypervolume kernel returns the per-pair oracle's floats bit for bit.

``tests/oracles/pareto.py`` keeps the WFG recursion as it was before the
sorted-list kernel: a numpy sort, ``np.prod`` boxes and a per-pair
non-dominance loop at every node.  MOOS and MOO-STAGE train on PHV values,
so every value here is compared by ``float.hex``, not by a tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.moo.hypervolume import hypervolume, hypervolume_contribution
from tests.oracles import pareto as oracle


def _corpus() -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Seeded ``(name, points, reference)`` fronts of 2-5 objectives and 1-40 points."""
    rng = np.random.default_rng(2012)
    cases = []
    for m in (2, 3, 4, 5):
        reference = np.full(m, 1.1)
        for n in (1, 2, 3, 8, 16, 40):
            cases.append((f"uniform-{m}obj-{n}pts", rng.uniform(0.0, 1.0, (n, m)), reference))
        for n in (2, 6, 12):
            # Mutually non-dominated rows: every row survives to the recursion.
            weights = rng.dirichlet(np.ones(m), n)
            front = weights / np.linalg.norm(weights, axis=1, keepdims=True)
            cases.append((f"front-{m}obj-{n}pts", front, reference))
        # Quarter-step values: ties on objective 0 (and every other one),
        # duplicate rows, and rows on the reference (1.0), which are excluded.
        for n in (5, 20, 40):
            grid = rng.integers(0, 5, (n, m)) / 4.0
            cases.append((f"grid-{m}obj-{n}pts", grid, np.ones(m)))
        base = rng.uniform(0.0, 0.9, (6, m))
        cases.append((f"duplicates-{m}obj", np.vstack([base, base[[0, 3, 3]]]), np.ones(m)))
        on_reference = base.copy()
        on_reference[::2, -1] = 1.0
        cases.append((f"on-reference-{m}obj", on_reference, np.ones(m)))
        tied = base.copy()
        tied[:, 0] = 0.5
        cases.append((f"tied-objective-0-{m}obj", tied, np.ones(m)))
    return cases


CORPUS = _corpus()


def _contribution_points(points: np.ndarray, reference: np.ndarray) -> list[np.ndarray]:
    """A dominated point, a copy of a member, a point outside the reference and a random one."""
    rng = np.random.default_rng(len(points) * 10 + points.shape[1])
    member = points[len(points) // 2]
    outside = member.copy()
    outside[0] = reference[0]
    return [
        np.minimum(member + 0.05, reference - 1e-3),
        member.copy(),
        outside,
        reference + 0.5,
        rng.uniform(0.0, 1.0, points.shape[1]),
        np.full(points.shape[1], 0.01),
    ]


@pytest.mark.parametrize("points, reference", [case[1:] for case in CORPUS],
                         ids=[case[0] for case in CORPUS])
def test_hypervolume_is_bit_identical_to_the_oracle(points, reference):
    assert hypervolume(points, reference).hex() == oracle.hypervolume(points, reference).hex()


@pytest.mark.parametrize("points, reference", [case[1:] for case in CORPUS],
                         ids=[case[0] for case in CORPUS])
def test_contribution_is_bit_identical_to_the_oracle(points, reference):
    # The oracle keeps every copy of a row, and WFG spends 2**k nodes on k
    # copies; a point dominated by k members clips them to k copies of
    # itself.  The first 16 rows keep the oracle's cost bounded.
    front = points[:16]
    for point in _contribution_points(front, reference):
        value = hypervolume_contribution(point, front, reference)
        assert value.hex() == oracle.hypervolume_contribution(point, front, reference).hex()


@pytest.mark.parametrize("copies", [2, 3, 7, 12])
def test_repeated_rows_add_exactly_nothing(copies):
    """An earlier copy's exclusive volume is ``box - box``, so one copy gives the same bits."""
    rng = np.random.default_rng(copies)
    reference = np.full(4, 1.1)
    rows = rng.uniform(0.0, 1.0, (5, 4))
    repeated = np.vstack([rows, np.repeat(rows[:1], copies, axis=0)])
    assert hypervolume(repeated, reference).hex() == oracle.hypervolume(repeated, reference).hex()
    assert hypervolume(repeated, reference).hex() == hypervolume(rows, reference).hex()


def test_point_dominated_by_a_whole_front_contributes_zero():
    """Clipping 40 dominating members gives 40 copies of the point, one box deep."""
    rng = np.random.default_rng(40)
    front = rng.uniform(0.0, 0.5, (40, 5))
    point = np.full(5, 0.6)
    assert hypervolume_contribution(point, front, np.ones(5)).hex() == (0.0).hex()


def test_corpus_covers_the_edge_cases():
    """Ties, duplicates, rows on the reference and 1-40-point fronts all occur."""
    sizes = {len(points) for _, points, _ in CORPUS}
    assert min(sizes) == 1 and max(sizes) == 40
    assert {points.shape[1] for _, points, _ in CORPUS} == {2, 3, 4, 5}
    inside = [points[(points < reference).all(axis=1)] for _, points, reference in CORPUS]
    assert any(len(np.unique(rows[:, 0])) < len(rows) for rows in inside)
    assert any(len(np.unique(rows, axis=0)) < len(rows) for rows in inside)
    assert any((points == reference).any() for _, points, reference in CORPUS)
