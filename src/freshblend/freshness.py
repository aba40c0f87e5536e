"""Binary document freshness under a fixed time window, the derived
fresh ranking of every query of a ranking table, and burst profiling of
query logs."""

from dataclasses import dataclass

import numpy as np

from .corpus import RankingTable
from .errors import ConfigError, UnknownQueryError, ValidationError
from .fileio import TsvRows, fmt, parse_int, write_lines

#: 3 days, in seconds.
DEFAULT_WINDOW_SECONDS = 259_200

#: The longest span of days one query's burst profile may cover (100 years);
#: the profile holds one share per day of the span.
MAX_PROFILE_DAYS = 36_525


@dataclass(frozen=True)
class FreshnessWindow:
    window_seconds: int = DEFAULT_WINDOW_SECONDS

    def __post_init__(self):
        if self.window_seconds <= 0:
            raise ConfigError(
                f"window_seconds must be positive, got {self.window_seconds}"
            )


DEFAULT_WINDOW = FreshnessWindow()


def is_fresh(doc_timestamp, query_time, window: FreshnessWindow = DEFAULT_WINDOW):
    """True when the document's age at query time is within the window;
    elementwise for int64 arrays.

    The boundary is inclusive; future-dated documents (negative age) count
    as fresh rather than erroring, tolerating clock skew.  An int64
    subtraction wraps only where the age is negative, which the first test
    marks fresh.
    """
    return (query_time <= doc_timestamp) | (query_time - doc_timestamp <= window.window_seconds)


def derive_fresh_ranking(
    table: RankingTable, query_times, window: FreshnessWindow = DEFAULT_WINDOW
) -> np.ndarray:
    """Each row's rank in its query's fresh ranking, 0 for a stale row:
    the rows `is_fresh` at their query's time in `query_times`, in their
    ordinary order."""
    issued = np.asarray(query_times, dtype=np.int64)[table.query]
    fresh = is_fresh(table.timestamps, issued, window)
    count = np.cumsum(fresh)
    before = np.concatenate(([0], count))[table.offsets[:-1]]
    return np.where(fresh, count - before[table.query], 0)


@dataclass(frozen=True)
class BurstProfile:
    """Per-query daily volume shares since each query's first day.

    `average[d]` is the mean share on day d+1 across all profiled queries,
    counting queries whose activity has already ended as zero share.
    """

    per_query: dict[str, np.ndarray]
    average: np.ndarray

    def shares(self, query_id: str) -> np.ndarray:
        if query_id not in self.per_query:
            raise UnknownQueryError(f"no burst data for query {query_id!r}")
        return self.per_query[query_id]


def burst_profile(log) -> BurstProfile:
    """Profile day-by-day volume shares from a query log.

    `log` holds (query_id, day_index) pairs or (query_id, day_index, count)
    triples; day indices are integers on any common scale.  Each query's
    shares cover day 1 (its first observed day) through its last observed
    day and sum to 1.
    """
    counts: dict[str, dict[int, float]] = {}
    for row in log:
        if len(row) == 2:
            qid, day = row
            count = 1
        else:
            qid, day, count = row
        if count < 0:
            raise ValidationError(f"negative count for query {qid!r}")
        counts.setdefault(qid, {}).setdefault(int(day), 0.0)
        counts[qid][int(day)] += count

    per_query: dict[str, np.ndarray] = {}
    max_days = 0
    for qid, by_day in counts.items():
        total = sum(by_day.values())
        if total <= 0:
            raise ValidationError(f"query {qid!r} has no volume in the log")
        first = min(by_day)
        last = max(by_day)
        span = last - first + 1
        if span > MAX_PROFILE_DAYS:
            raise ValidationError(f"query {qid!r} spans {span} days, over {MAX_PROFILE_DAYS}")
        shares = np.zeros(span, dtype=np.float64)
        for day, count in by_day.items():
            shares[day - first] = count / total
        per_query[qid] = shares
        max_days = max(max_days, span)

    if not per_query:
        return BurstProfile({}, np.zeros(0, dtype=np.float64))
    stacked = np.zeros((len(per_query), max_days), dtype=np.float64)
    for i, shares in enumerate(per_query.values()):
        stacked[i, : shares.size] = shares
    return BurstProfile(per_query, stacked.mean(axis=0))


def load_query_log(path: str) -> list[tuple[str, int, int]]:
    """Read a query log TSV: query_id<TAB>day_index<TAB>count."""
    log: list[tuple[str, int, int]] = []
    with TsvRows(path, 3) as rows:
        for qid, day, count in rows:
            day, count = parse_int(day, "day_index"), parse_int(count, "count")
            if count < 0:
                raise ValidationError(f"negative count {count}")
            log.append((qid, day, count))
    return log


def write_burst_csv(profile: BurstProfile, path: str) -> None:
    """Emit the per-query shares as CSV rows query_id,day,share."""
    lines = ["# freshblend.burst.v1", "query_id,day,share"]
    for qid, shares in profile.per_query.items():
        for day, share in enumerate(shares, start=1):
            lines.append(f"{qid},{day},{fmt(share)}")
    write_lines(path, lines)
