"""Position priors and candidate pool assembly."""

from dataclasses import dataclass

import numpy as np
import pytest

from freshblend.calibration import (
    DEFAULT_PRIOR_TABLE,
    DEFAULT_PRIORS,
    PositionPriorTable,
    build_candidates,
    position_prior,
)
from freshblend.corpus import DocEntry, Ranking, ranking_table
from freshblend.errors import ValidationError
from freshblend.freshness import DEFAULT_WINDOW, derive_fresh_ranking

DAY = 86_400
NOW = 100 * DAY
FRESH_TS = NOW - DAY
STALE_TS = NOW - 30 * DAY


def ranking(spec):
    """spec: list of (doc_id, timestamp)."""
    return Ranking(tuple(
        DocEntry(doc_id, i + 1, ts) for i, (doc_id, ts) in enumerate(spec)
    ))


@dataclass(frozen=True)
class Candidate:
    r_any: float
    r_fresh: float
    ordinary_rank: int
    fresh_rank: int


def pool_for(ordinary, depth=10):
    """The pool of a one-query table, by doc id in table order."""
    table = ranking_table({"q": ordinary})
    fresh_rank = derive_fresh_ranking(table, [NOW], DEFAULT_WINDOW)
    pool, r_any, r_fresh = build_candidates(table, fresh_rank, DEFAULT_PRIOR_TABLE, depth)
    return {table.doc_ids[row]: Candidate(float(r_any[row]), float(r_fresh[row]),
                                          int(table.rank[row]), int(fresh_rank[row]))
            for row in np.flatnonzero(pool)}


class TestPositionPrior:
    def test_head_of_default_table(self):
        assert position_prior(1) == 0.60

    def test_ranks_beyond_table_clamp_to_tail(self):
        beyond = len(DEFAULT_PRIORS) + 7
        assert position_prior(beyond) == DEFAULT_PRIORS[-1]

    def test_rank_zero_rejected(self):
        with pytest.raises(ValidationError):
            position_prior(0)

    def test_table_validation(self):
        with pytest.raises(ValidationError):
            PositionPriorTable((0.5, 0.6))
        with pytest.raises(ValidationError):
            PositionPriorTable((1.0, 0.5))
        with pytest.raises(ValidationError):
            PositionPriorTable(())


class TestBuildCandidates:
    def test_stale_doc_has_zero_fresh_probability(self):
        pool = pool_for(ranking([("d1", STALE_TS)]))
        assert pool["d1"].r_fresh == 0.0
        assert pool["d1"].r_any == 0.60

    def test_fresh_doc_calibrates_both_ranks(self):
        ordinary = ranking([("s1", STALE_TS), ("s2", STALE_TS), ("f1", FRESH_TS)])
        pool = pool_for(ordinary)
        assert pool["f1"].r_any == DEFAULT_PRIORS[2]
        assert pool["f1"].r_fresh == DEFAULT_PRIORS[0]

    def test_no_fresh_documents_degenerates_to_ordinary_page(self):
        ordinary = ranking([(f"d{i}", STALE_TS) for i in range(12)])
        pool = pool_for(ordinary, depth=10)
        assert len(pool) == 10
        assert all(c.r_fresh == 0.0 for c in pool.values())
        assert all(c.fresh_rank == 0 for c in pool.values())

    def test_deep_fresh_doc_enters_pool_through_fresh_rank(self):
        spec = [(f"s{i}", STALE_TS) for i in range(10)] + [("deep", FRESH_TS)]
        pool = pool_for(ranking(spec), depth=10)
        assert "deep" in pool
        assert pool["deep"].ordinary_rank == 11
        assert pool["deep"].fresh_rank == 1
        # outside the ordinary page, so the fresh rank speaks for topical
        # relevance too
        assert pool["deep"].r_any == DEFAULT_PRIORS[0]
        assert pool["deep"].r_fresh == DEFAULT_PRIORS[0]

    def test_pool_size_bounds(self):
        spec = [(f"s{i}", STALE_TS) for i in range(10)] + [(f"f{i}", FRESH_TS) for i in range(10)]
        pool = pool_for(ranking(spec), depth=10)
        assert len(pool) == 20
        fresh_inside = ranking([(f"f{i}", FRESH_TS) for i in range(4)] + [(f"s{i}", STALE_TS) for i in range(6)])
        assert len(pool_for(fresh_inside, depth=10)) == 10

    def test_probabilities_stay_calibrated(self):
        spec = [(f"d{i}", FRESH_TS if i % 3 else STALE_TS) for i in range(15)]
        for candidate in pool_for(ranking(spec)).values():
            assert 0.0 < candidate.r_any <= 1.0
            assert 0.0 <= candidate.r_fresh <= 1.0

    def test_depth_below_one_rejected(self):
        with pytest.raises(ValidationError, match="depth"):
            pool_for(ranking([("d1", STALE_TS)]), depth=0)
