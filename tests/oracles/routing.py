"""The sorted-index CSR builder the route-order pair tables replaced.

``RoutingTables`` used to assemble its path incidences ``P`` and ``R`` by
sorting every ``(pair row, column)`` entry into canonical CSR form.  It now
writes each swept entry straight into its route-order slot, no sort.  This
builder lives on here as the oracle:
``tests/noc/test_routing_route_order.py`` rebuilds the canonical matrices
from the route-order entries and checks that every objective product over
the two is byte-identical.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix


def canonical_csr(rows: np.ndarray, cols: np.ndarray, num_rows: int, num_cols: int) -> csr_matrix:
    """Canonical (row-major, sorted-indices) CSR straight from entry lists.

    Bypasses the COO round trip: one lexsort puts the entries into
    canonical order, the index pointer comes from a bincount.  Canonical
    form matters beyond speed — a repaired table and a fresh build hold
    bit-identical arrays, so sparse products over them sum in the same
    order and produce bit-identical objective values.
    """
    # One combined scalar key sorts rows and columns together (cheaper
    # than a lexsort plus two gathers at this entry count).
    key = np.sort(rows * np.int64(num_cols) + cols)
    sorted_rows = key // num_cols
    sorted_cols = key % num_cols
    indptr = np.zeros(num_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(sorted_rows, minlength=num_rows), out=indptr[1:])
    return csr_matrix(
        (np.ones(sorted_cols.size, dtype=np.float64), sorted_cols, indptr),
        shape=(num_rows, num_cols),
    )
