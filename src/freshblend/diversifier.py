"""Packing of the calibrated candidate pools for the greedy blend kernel."""

import numpy as np

from .corpus import RankingTable


def candidate_arrays(table: RankingTable, pool: np.ndarray, r_any: np.ndarray,
                     r_fresh: np.ndarray):
    """Pack every query's pool, as `build_candidates` marks it, into the
    padded (B, M) arrays the blend kernel consumes.

    A pool is ordered by higher r_any, then lower ordinary rank, which is
    unique within a query; the kernel breaks gain ties by this order.
    Returns ``(rows, r_fresh, r_any, sizes)``: column j of query b is table
    row ``rows[b, j]``, and past ``sizes[b]`` it is padding, -1 in rows and
    0 elsewhere.
    """
    rows = np.flatnonzero(pool)
    rows = rows[np.lexsort((table.rank[rows], -r_any[rows], table.query[rows]))]
    query = table.query[rows]
    sizes = np.bincount(query, minlength=len(table.query_ids))
    column = np.arange(rows.size) - (np.cumsum(sizes) - sizes)[query]
    shape = (sizes.size, int(sizes.max()) if sizes.size else 0)
    index = np.full(shape, -1, dtype=np.int64)
    index[query, column] = rows
    packed = np.zeros((2, *shape), dtype=np.float64)
    packed[:, query, column] = r_fresh[rows], r_any[rows]
    return index, packed[0], packed[1], sizes
