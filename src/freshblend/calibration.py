"""Rank-to-probability calibration and candidate assembly.

Retrieval scores vary wildly across queries, so satisfaction
probabilities are read off a position-prior table instead: the
probability of encountering a relevant document at each rank of an
ideal ranking.  The shipped default table is a configurable stand-in
(head 0.60, tail 0.10), not a measured value.  `build_candidates`
calibrates the pools of every query of a ranking table at once.
"""

from dataclasses import dataclass

import numpy as np

from .corpus import RankingTable
from .errors import ValidationError

DEFAULT_PRIORS = (0.60, 0.50, 0.42, 0.35, 0.29, 0.24, 0.20, 0.16, 0.13, 0.10)


@dataclass(frozen=True)
class PositionPriorTable:
    priors: tuple[float, ...] = DEFAULT_PRIORS

    def __post_init__(self):
        if not self.priors:
            raise ValidationError("prior table must be non-empty")
        previous = 1.0
        for i, p in enumerate(self.priors):
            if not 0.0 < p < 1.0:
                raise ValidationError(f"prior at rank {i + 1} out of (0,1): {p!r}")
            if p > previous:
                raise ValidationError("priors must be non-increasing with rank")
            previous = p


DEFAULT_PRIOR_TABLE = PositionPriorTable()


def position_prior(rank: int, table: PositionPriorTable = DEFAULT_PRIOR_TABLE) -> float:
    """Prior at `rank`; ranks beyond the table clamp to its last entry."""
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    priors = table.priors
    return priors[rank - 1] if rank <= len(priors) else priors[-1]


def build_candidates(
    table: RankingTable,
    fresh_rank: np.ndarray,
    prior_table: PositionPriorTable = DEFAULT_PRIOR_TABLE,
    depth: int = 10,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mark and calibrate every query's candidate pool in the table.

    A pool is the union of the top-`depth` of the query's ordinary ranking
    and of its fresh ranking, `fresh_rank` as `derive_fresh_ranking` gives
    it.  r_any is the prior of the ordinary rank inside the ordinary top
    page, and of the fresh rank for a document promoted purely through the
    fresh one.  r_fresh is the prior of the fresh rank inside the fresh top
    page and 0 otherwise; ranks beyond the prior table take its last
    prior.  Returns ``(pool, r_any, r_fresh)`` by row.
    """
    if depth < 1:
        raise ValidationError(f"depth must be >= 1, got {depth}")
    priors = np.asarray(prior_table.priors, dtype=np.float64)
    ordinary_top = table.rank <= depth
    fresh_top = (fresh_rank >= 1) & (fresh_rank <= depth)
    any_rank = np.where(ordinary_top, table.rank, fresh_rank)
    r_any = priors[np.clip(any_rank, 1, priors.size) - 1]
    r_fresh = np.where(fresh_top, priors[np.clip(fresh_rank, 1, priors.size) - 1], 0.0)
    return ordinary_top | fresh_top, r_any, r_fresh
