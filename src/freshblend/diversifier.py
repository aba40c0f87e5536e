"""Greedy construction of the blended result page."""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernels
from .calibration import CalibratedCandidate
from .corpus import RankingTable
from .errors import ValidationError
from .metric import DEFAULT_METRIC_CONFIG, IntentDistribution, MetricConfig

_NO_RANK = 1 << 30


@dataclass(frozen=True)
class BlendedResult:
    doc_ids: tuple[str, ...]
    gains: tuple[float, ...]
    total: float
    dist: IntentDistribution


def tie_break_key(candidate: CalibratedCandidate):
    """Deterministic ordering for equal marginal gains: higher r_any,
    then lower ordinary rank, then doc_id."""
    rank = candidate.ordinary_rank if candidate.ordinary_rank is not None else _NO_RANK
    return (-candidate.r_any, rank, candidate.doc_id)


def candidate_arrays(table: RankingTable, pool: np.ndarray, r_any: np.ndarray,
                     r_fresh: np.ndarray):
    """Pack every query's pool, as `build_candidates` marks it, into the
    padded (B, M) arrays the blend kernel consumes.

    A pool is ordered as `tie_break_key` orders candidates: higher r_any,
    then lower ordinary rank, unique within a query.  Returns ``(rows,
    r_fresh, r_any, sizes)``: column j of query b is table row ``rows[b,
    j]``, and past ``sizes[b]`` it is padding, -1 in rows and 0 elsewhere.
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


def blend(
    candidates: Sequence[CalibratedCandidate],
    dist: IntentDistribution,
    config: MetricConfig = DEFAULT_METRIC_CONFIG,
) -> BlendedResult:
    """Greedily order the pool, taking the largest marginal gain at each
    position, until the page depth or the pool is exhausted."""
    if not candidates:
        raise ValidationError("cannot blend an empty candidate pool")
    ordered = sorted(candidates, key=tie_break_key)
    order, gains = kernels.greedy_blend(
        np.array([[c.r_fresh for c in ordered]], dtype=np.float64),
        np.array([[c.r_any for c in ordered]], dtype=np.float64),
        np.array([len(ordered)]),
        np.array([dist.p_fresh]),
        np.array([dist.p_any]),
        config.p_break,
        config.break_exponent.shift,
        config.depth,
    )
    doc_ids = tuple(ordered[int(i)].doc_id for i in order[0])
    gain_list = tuple(float(g) for g in gains[0])
    return BlendedResult(doc_ids, gain_list, float(gains[0].sum()), dist)

