"""Freshness window semantics, fresh-ranking derivation, burst profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshblend.errors import ConfigError, ParseError, UnknownQueryError, ValidationError
from freshblend.freshness import (
    DEFAULT_WINDOW,
    MAX_PROFILE_DAYS,
    FreshnessWindow,
    burst_profile,
    derive_fresh_ranking,
    is_fresh,
    load_query_log,
    write_burst_csv,
)
from oracles import DocEntry, Ranking, hand_built

DAY = 86_400


class TestIsFresh:
    def test_two_day_old_doc_is_fresh(self):
        assert is_fresh(doc_timestamp=0, query_time=2 * DAY, window=DEFAULT_WINDOW)

    def test_boundary_age_is_inclusive(self):
        assert is_fresh(0, DEFAULT_WINDOW.window_seconds, DEFAULT_WINDOW)
        assert not is_fresh(0, DEFAULT_WINDOW.window_seconds + 1, DEFAULT_WINDOW)

    def test_ten_day_old_doc_is_stale(self):
        assert not is_fresh(0, 10 * DAY, DEFAULT_WINDOW)

    def test_future_dated_doc_counts_as_fresh(self):
        assert is_fresh(doc_timestamp=100 * DAY, query_time=0, window=DEFAULT_WINDOW)

    @pytest.mark.parametrize("timestamp, query_time, window, fresh", [
        (2**62, -2**63, 1, True),              # the age is below -2**63
        (2**63 - 1, -2**63, 2**63 - 1, True),
        (0, 2**63 - 1, 2**63 - 1, True),
        (1, 2**63 - 1, 2**63 - 2, True),
        (0, 2**63 - 1, 2**63 - 2, False),
        (0, 2**63 - 1, 10**30, True),          # a window beyond 64 bits
    ])
    def test_extreme_times_are_exact(self, timestamp, query_time, window, fresh):
        window = FreshnessWindow(window)
        assert is_fresh(timestamp, query_time, window) is fresh
        # the same document in a one-query table, in int64
        _, table = hand_built({"q": Ranking((DocEntry("d", 1, timestamp),))})
        assert derive_fresh_ranking(table, [query_time], window).tolist() == [int(fresh)]

    def test_window_must_be_positive(self):
        with pytest.raises(ConfigError):
            FreshnessWindow(0)


def table_with_ages(ages, query_time):
    """A one-query table of documents d0, d1, ... of the given ages."""
    return hand_built({"q": Ranking(tuple(
        DocEntry(f"d{i}", i + 1, query_time - age) for i, age in enumerate(ages)
    ))})[1]


def fresh_ranks(table, query_time, window=DEFAULT_WINDOW):
    return derive_fresh_ranking(table, [query_time], window).tolist()


def fresh_doc_ids(table, query_time, window=DEFAULT_WINDOW):
    ranks = derive_fresh_ranking(table, [query_time], window)
    return [table.doc_ids[row] for row in np.flatnonzero(ranks)]


class TestDeriveFreshRanking:
    def test_all_fresh_is_identity(self):
        now = 100 * DAY
        assert fresh_ranks(table_with_ages([0, DAY, 2 * DAY], now), now) == [1, 2, 3]

    def test_none_fresh_is_empty(self):
        now = 100 * DAY
        assert fresh_ranks(table_with_ages([10 * DAY, 20 * DAY], now), now) == [0, 0]

    def test_survivors_are_renumbered_in_order(self):
        now = 100 * DAY
        stale, fresh = 10 * DAY, DAY
        table = table_with_ages([stale, fresh, stale, stale, fresh], now)
        assert fresh_doc_ids(table, now) == ["d1", "d4"]
        assert fresh_ranks(table, now) == [0, 1, 0, 0, 2]

    @given(st.lists(st.integers(min_value=0, max_value=30 * DAY), min_size=0, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_idempotent_and_all_outputs_fresh(self, ages):
        now = 100 * DAY
        table = table_with_ages(ages, now)
        ranks = np.asarray(fresh_ranks(table, now))
        kept = [age for age, rank in zip(ages, ranks) if rank]
        assert fresh_ranks(table_with_ages(kept, now), now) == list(range(1, len(kept) + 1))
        assert ranks[ranks > 0].tolist() == list(range(1, len(kept) + 1))
        for row in np.flatnonzero(ranks):
            assert is_fresh(int(table.timestamps[row]), now)

    @given(
        st.lists(st.integers(min_value=0, max_value=30 * DAY), min_size=0, max_size=12),
        st.integers(min_value=1, max_value=5 * DAY),
        st.integers(min_value=0, max_value=5 * DAY),
    )
    @settings(max_examples=60, deadline=None)
    def test_wider_window_never_shrinks_the_fresh_set(self, ages, seconds, extra):
        now = 100 * DAY
        table = table_with_ages(ages, now)
        narrow = fresh_doc_ids(table, now, FreshnessWindow(seconds))
        wide = fresh_doc_ids(table, now, FreshnessWindow(seconds + extra))
        assert set(narrow) <= set(wide)


class TestBurstProfile:
    def test_single_day_query(self):
        profile = burst_profile([("q1", 3, 10)])
        assert profile.shares("q1").tolist() == [1.0]

    def test_reference_shape(self):
        profile = burst_profile([("q1", 1, 73), ("q1", 2, 20), ("q1", 3, 4), ("q1", 4, 3)])
        assert profile.shares("q1").tolist() == [0.73, 0.20, 0.04, 0.03]

    def test_cross_query_average_counts_finished_queries_as_zero(self):
        profile = burst_profile([("q1", 1, 8), ("q2", 1, 5), ("q2", 2, 5)])
        assert profile.average.tolist() == [0.75, 0.25]

    def test_pairs_without_counts_are_accepted(self):
        profile = burst_profile([("q1", 1), ("q1", 1), ("q1", 2)])
        assert np.allclose(profile.shares("q1"), [2 / 3, 1 / 3])

    def test_days_are_relative_to_first_occurrence(self):
        profile = burst_profile([("q1", 17, 1), ("q1", 19, 1)])
        assert profile.shares("q1").tolist() == [0.5, 0.0, 0.5]

    def test_shares_sum_to_one_per_query(self):
        rng = np.random.default_rng(0)
        log = [(f"q{i}", int(day), int(count))
               for i in range(20)
               for day, count in zip(rng.integers(0, 10, 4), rng.integers(1, 50, 4))]
        profile = burst_profile(log)
        for qid in {row[0] for row in log}:
            assert profile.shares(qid).sum() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_query_lookup_fails(self):
        profile = burst_profile([("q1", 1, 1)])
        with pytest.raises(UnknownQueryError):
            profile.shares("q2")

    def test_empty_log_profiles_nothing(self):
        profile = burst_profile([])
        assert profile.per_query == {}
        assert profile.average.size == 0

    def test_span_over_the_limit_is_refused(self):
        longest = burst_profile([("q1", 0, 1), ("q1", MAX_PROFILE_DAYS - 1, 1)])
        assert longest.shares("q1").size == MAX_PROFILE_DAYS
        with pytest.raises(ValidationError, match="spans"):
            burst_profile([("q1", 0, 1), ("q1", MAX_PROFILE_DAYS, 1)])


class TestQueryLogIO:
    def test_load_and_report(self, tmp_path):
        log_path = tmp_path / "log.tsv"
        log_path.write_text("q1\t1\t73\nq1\t2\t20\nq1\t3\t4\nq1\t4\t3\n", encoding="utf-8")
        profile = burst_profile(load_query_log(str(log_path)))
        csv_path = tmp_path / "burst.csv"
        write_burst_csv(profile, str(csv_path))
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "# freshblend.burst.v1"
        assert lines[1] == "query_id,day,share"
        assert lines[2] == "q1,1,0.73"

    def test_malformed_log_line(self, tmp_path):
        log_path = tmp_path / "log.tsv"
        log_path.write_text("q1\tone\t5\n", encoding="utf-8")
        with pytest.raises(ParseError, match=":1:"):
            load_query_log(str(log_path))
