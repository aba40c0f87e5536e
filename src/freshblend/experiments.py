"""Offline sweeps, the four-strategy bucket comparison, and a simulated
A/B test driven by a cascade click model with Mann-Whitney significance
testing.

Evaluation convention: pages are always scored against the corpus's
latent per-intent relevances under the query's true intent distribution
(p_fresh = true grade), regardless of what probability the blender was
given.  That separation is what the estimate sweep measures: how much
quality survives when the blending probability is wrong.

Every experiment is deterministic given (corpus seed, experiment seed).
Randomness is drawn into arrays before entering the kernels, a block of
impressions at a time, from fixed offsets of each seed's stream, so the
results do not depend on the block size.
"""

import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from . import kernels
from .calibration import DEFAULT_PRIOR_TABLE, PositionPriorTable, build_candidates
from .corpus import Corpus, QueryTable, RankingTable, training_set
from .errors import ValidationError
from .fileio import atomic_write_text, fmt, write_lines
from .freshness import DEFAULT_WINDOW, FreshnessWindow, derive_fresh_ranking
from .metric import DEFAULT_METRIC_CONFIG, MetricConfig
from .diversifier import candidate_arrays
from .recency_classifier import GbrtHyperparams, predict_batch, train_gbrt

DEFAULT_SWEEP_GRID = tuple(round(0.05 * i, 2) for i in range(20))

STRATEGIES = ("ideal_diversified", "learned_diversified", "initial_only", "fresh_only")

METRIC_NAMES = (
    "abandonment_rate",
    "time_to_first_click",
    "ctr_position_1",
    "ctr_position_2",
    "first_click_position",
)

# The most impressions per A/B bucket: for both buckets pooled, n(n + 1) / 2
# stays below 2**52, within which `_mann_whitney_runs` is exact.
MAX_AB_IMPRESSIONS = 47_453_132

_CLICK_TIME_BASE_S = 2.0
_CLICK_TIME_PER_POSITION_S = 1.5
_CLICK_TIME_NOISE_CLIP_S = 1.5


@dataclass(frozen=True)
class SweepCurve:
    true_grade: float
    points: tuple[tuple[float, float], ...]

    def best_p_hat(self) -> float:
        return max(self.points, key=lambda point: point[1])[0]

    def value_at(self, p_hat: float) -> float:
        for point, value in self.points:
            if point == p_hat:
                return value
        raise ValidationError(f"p_hat {p_hat!r} not on the sweep grid")


@dataclass(frozen=True)
class BucketRow:
    lo: float
    hi: float
    n: int
    means: dict[str, float | None]


@dataclass(frozen=True)
class BucketReport:
    rows: tuple[BucketRow, ...]


@dataclass(frozen=True)
class MetricComparison:
    control: float | None
    treatment: float | None
    u_statistic: float | None
    p_value: float | None


@dataclass(frozen=True)
class AbReport:
    n_queries: int
    metrics: dict[str, MetricComparison]


# ---------------------------------------------------------------------------
# per-query preparation shared by all experiments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PreparedQueries:
    """Every query's candidate pool as padded (B, M) kernel arrays.

    Row b is query ``query_ids[b]``; its ``sizes[b]`` candidates fill the
    leading columns in tie-break order, column j holding row
    ``candidates[b, j]`` of ``table``, and the rest of the row is padding,
    -1 in ``candidates`` and zero elsewhere.  cal_* hold the calibrated
    probabilities the blender sees; lat_* hold the latent ground truth used
    for evaluation and click simulation.  initial_order / fresh_order are
    (B, K) column indices of the unmodified ordinary page and the fresh-only
    page, -1 past a page's end, with K = min(depth, M): no page is longer
    than the longest pool.  true_grade is NaN where a query has none.
    """

    query_ids: tuple[str, ...]
    table: RankingTable
    true_grade: np.ndarray
    volume: np.ndarray
    candidates: np.ndarray
    sizes: np.ndarray
    cal_fresh: np.ndarray
    cal_any: np.ndarray
    lat_fresh: np.ndarray
    lat_any: np.ndarray
    initial_order: np.ndarray
    fresh_order: np.ndarray


Policy = Callable[[PreparedQueries, MetricConfig], np.ndarray]


def prepare_queries(
    queries: QueryTable,
    rankings: RankingTable,
    metric_config: MetricConfig = DEFAULT_METRIC_CONFIG,
    window: FreshnessWindow = DEFAULT_WINDOW,
    table: PositionPriorTable = DEFAULT_PRIOR_TABLE,
    require_latents: bool = True,
) -> PreparedQueries:
    """Derive, calibrate and pack the candidate pool of every query of the
    table `queries`, in its order, from the rows of their rankings in the
    table `rankings`.  Issue times, true grades and volumes are read from
    the query table's columns; an absent volume counts as 1."""
    ranked = rankings.select(queries.query_ids)
    fresh_rank = derive_fresh_ranking(ranked, queries.issue_time, window)
    pool, r_any, r_fresh = build_candidates(ranked, fresh_rank, table, metric_config.depth)
    rows, cal_fresh, cal_any, sizes = candidate_arrays(ranked, pool, r_any, r_fresh)

    live = rows >= 0
    lat_fresh, lat_any = np.where(live, (ranked.latent_fresh[rows], ranked.latent_any[rows]), 0.0)
    pooled = rows[live]
    if require_latents:
        ranked.require_latent_any(
            pooled, "lacks latent relevance; experiments need latent ground truth")

    # scatter each candidate's column to its place on the two pages
    width = min(metric_config.depth, cal_fresh.shape[1])
    pages = np.full((2, len(queries), width), -1, dtype=np.int64)
    b, j = np.nonzero(live)
    for page, rank in zip(pages, (ranked.rank[pooled], fresh_rank[pooled])):
        on_page = (rank >= 1) & (rank <= width)
        page[b[on_page], rank[on_page] - 1] = j[on_page]

    return PreparedQueries(
        query_ids=ranked.query_ids,
        table=ranked,
        true_grade=queries.true_grade,
        volume=np.maximum(queries.volume, 1).astype(np.float64),
        candidates=rows,
        sizes=sizes,
        cal_fresh=cal_fresh,
        cal_any=cal_any,
        lat_fresh=np.nan_to_num(lat_fresh),
        lat_any=np.nan_to_num(lat_any),
        initial_order=pages[0],
        fresh_order=pages[1],
    )


def blend_pages(
    prepared: PreparedQueries, p_fresh, config: MetricConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Blend every prepared pool with its query's recency-need estimate
    (one per row, or one for all); returns the kernel's (order, gains)."""
    p = np.broadcast_to(np.asarray(p_fresh, dtype=np.float64), prepared.sizes.shape)
    bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(
            f"intent probabilities out of [0,1]: p_fresh {float(p[i])!r} "
            f"for query {prepared.query_ids[i]!r}"
        )
    return kernels.greedy_blend(
        prepared.cal_fresh,
        prepared.cal_any,
        prepared.sizes,
        p,
        1.0 - p,
        config.p_break,
        config.break_exponent.shift,
        config.depth,
    )


def estimates_for(prepared: PreparedQueries, p_fresh_by_query: Mapping[str, float]) -> np.ndarray:
    """Each prepared query's recency-need estimate, in row order."""
    missing = [qid for qid in prepared.query_ids if qid not in p_fresh_by_query]
    if missing:
        raise ValidationError(f"no recency-need estimate for query {missing[0]!r}")
    return np.asarray([p_fresh_by_query[qid] for qid in prepared.query_ids], dtype=np.float64)


# ---------------------------------------------------------------------------
# result-page policies
# ---------------------------------------------------------------------------


def initial_ranking_policy() -> Policy:
    def policy(prepared: PreparedQueries, config: MetricConfig) -> np.ndarray:
        return prepared.initial_order[:, : config.depth]

    return policy


def blend_policy(p_fresh_by_query: Mapping[str, float]) -> Policy:
    def policy(prepared: PreparedQueries, config: MetricConfig) -> np.ndarray:
        return blend_pages(prepared, estimates_for(prepared, p_fresh_by_query), config)[0]

    return policy


def _page_matrices(prepared: PreparedQueries, orders: np.ndarray) -> np.ndarray:
    """Latent relevances of the (B, K) pages `orders` selects, stacked as
    (2, B, K): [0] under the fresh intent, [1] under any intent, zero past
    a page's end.  Zero scores nothing and is never clicked, so this equals
    padding every page to the full depth."""
    rows = np.arange(orders.shape[0])[:, None]
    cols = np.maximum(orders, 0)
    live = orders >= 0
    return np.stack([np.where(live, prepared.lat_fresh[rows, cols], 0.0),
                     np.where(live, prepared.lat_any[rows, cols], 0.0)])


def _true_err(
    prepared: PreparedQueries,
    orders: np.ndarray,
    config: MetricConfig,
) -> np.ndarray:
    lat_fresh, lat_any = _page_matrices(prepared, orders)
    p_fresh = prepared.true_grade
    return kernels.err_iaa_batch(
        lat_fresh, lat_any, p_fresh, 1.0 - p_fresh, config.p_break,
        config.break_exponent.shift,
    )


def _require_grades(prepared: PreparedQueries) -> None:
    missing = np.flatnonzero(np.isnan(prepared.true_grade))
    if missing.size:
        raise ValidationError(f"query {prepared.query_ids[missing[0]]!r} has no true grade")


# ---------------------------------------------------------------------------
# estimate sweep
# ---------------------------------------------------------------------------


def sweep_estimate(
    corpus: Corpus,
    grid: Sequence[float] | None = None,
    metric_config: MetricConfig = DEFAULT_METRIC_CONFIG,
    window: FreshnessWindow = DEFAULT_WINDOW,
    table: PositionPriorTable = DEFAULT_PRIOR_TABLE,
) -> list[SweepCurve]:
    """Blend every query with each estimate on the grid, values in [0,1]
    and each once, and score the result under the true intent
    distribution.

    Returns one curve per true grade present in the corpus, each point
    the mean score of that grade's queries at one estimate.
    """
    grid = tuple(DEFAULT_SWEEP_GRID if grid is None else grid)
    if not grid:
        raise ValidationError("the sweep grid is empty")
    for i, p_hat in enumerate(grid):
        if not 0.0 <= p_hat <= 1.0:
            raise ValidationError(f"grid value out of [0,1]: {p_hat!r}")
        if p_hat in grid[:i]:
            raise ValidationError(f"the sweep grid repeats {p_hat!r}")
    prepared = prepare_queries(corpus.queries, corpus.rankings, metric_config, window, table)
    _require_grades(prepared)
    grades = [float(g) for g in np.unique(prepared.true_grade)]
    grade_masks = {g: prepared.true_grade == g for g in grades}

    points: dict[float, list[tuple[float, float]]] = {g: [] for g in grades}
    for p_hat in grid:
        orders, _ = blend_pages(prepared, p_hat, metric_config)
        errs = _true_err(prepared, orders, metric_config)
        for g in grades:
            points[g].append((p_hat, float(errs[grade_masks[g]].mean())))
    return [SweepCurve(g, tuple(points[g])) for g in grades]


# ---------------------------------------------------------------------------
# four-strategy bucket comparison under two-fold cross-validation
# ---------------------------------------------------------------------------


def bucket_comparison(
    corpus: Corpus,
    hyperparams: GbrtHyperparams = GbrtHyperparams(),
    metric_config: MetricConfig = DEFAULT_METRIC_CONFIG,
    seed: int = 0,
    window: FreshnessWindow = DEFAULT_WINDOW,
    table: PositionPriorTable = DEFAULT_PRIOR_TABLE,
) -> BucketReport:
    """Bucket queries by true recency need (width 0.1) and average the
    true-distribution score of four pages per query: blend with the true
    grade, blend with the held-out classifier estimate, the unmodified
    initial page, and the fresh-only page.

    The classifier estimates come from two-fold cross-validation: the
    queries are split in half, each half is scored by a model trained on
    the other.
    """
    prepared = prepare_queries(corpus.queries, corpus.rankings, metric_config, window, table)
    _require_grades(prepared)
    qids = prepared.query_ids
    if len(qids) < 2:
        raise ValidationError("bucket comparison needs at least 2 queries")
    x, y = training_set(corpus.features, corpus.judgments, qids)

    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(qids))
    half = len(qids) // 2
    folds = (perm[:half], perm[half:])

    p_hat = np.empty(len(qids), dtype=np.float64)
    for fold_index, test_idx in enumerate(folds):
        train_idx = folds[1 - fold_index]
        model = train_gbrt(x[train_idx], y[train_idx], hyperparams, seed=seed + fold_index,
                           feature_names=corpus.features.names)
        p_hat[test_idx] = predict_batch(model, x[test_idx])

    orders = {
        "ideal_diversified": blend_pages(prepared, prepared.true_grade, metric_config)[0],
        "learned_diversified": blend_pages(prepared, p_hat, metric_config)[0],
        "initial_only": prepared.initial_order,
        "fresh_only": prepared.fresh_order,
    }
    errs = {name: _true_err(prepared, strategy_orders, metric_config)
            for name, strategy_orders in orders.items()}

    bucket_index = np.minimum((prepared.true_grade * 10).astype(np.int64), 9)
    report_rows = []
    for b in range(10):
        mask = bucket_index == b
        n = int(mask.sum())
        means: dict[str, float | None] = {}
        for name in STRATEGIES:
            means[name] = float(errs[name][mask].mean()) if n else None
        report_rows.append(BucketRow(lo=round(b / 10, 1), hi=round((b + 1) / 10, 1), n=n, means=means))
    return BucketReport(tuple(report_rows))


# ---------------------------------------------------------------------------
# cascade click simulation
# ---------------------------------------------------------------------------

# Uniform draws per simulated block: 65,536 impressions at the default
# depth of 10.  Blocks shrink as the depth grows, so the block arrays stay
# near 5 MB each whatever the depth and the impression count.
_BLOCK_DRAWS = 655_360


def _stream(seed, offset: int) -> np.random.Generator:
    """A generator over PCG64(seed)'s stream, `offset` 64-bit outputs in;
    a double from `random` or `choice` takes one output."""
    bit_generator = np.random.PCG64(seed)
    bit_generator.advance(offset)
    return np.random.Generator(bit_generator)


class _GuideTable:
    """``cdf.searchsorted(u, side="right")`` over a nondecreasing `cdf`, for
    draws u in [0, 1), through a guide table of G + 1 entries, G the
    smallest power of two >= 4 * cdf.size: guide[g] is the search of g / G.
    Scaling by a power of two is exact, so a draw u lies in the cell g =
    floor(u * G), and its search lies in [guide[g], guide[g + 1]].  Where
    the two are equal that is the answer; the draws in the cells that hold a
    cdf value, at most a quarter of the cells, are searched in full."""

    def __init__(self, cdf: np.ndarray):
        self.cdf = cdf
        self.grid = 1 << (4 * cdf.size - 1).bit_length()
        self.guide = cdf.searchsorted(np.arange(self.grid + 1) / self.grid, side="right")

    def __call__(self, u: np.ndarray) -> np.ndarray:
        cell = (u * self.grid).astype(np.intp)
        idx = self.guide[cell]
        unresolved = np.flatnonzero(idx != self.guide[1:][cell])
        idx[unresolved] = self.cdf.searchsorted(u[unresolved], side="right")
        return idx


def _click_blocks(seed, pages, p_fresh, weights, n, config: MetricConfig, block=None):
    """Simulate `n` users on the stacked (2, Q, K) latent pages, K <= depth
    ([0] fresh intent, [1] any intent, as `_page_matrices` builds them),
    `block` users at a time; yields each block's 1-based click positions,
    0 where nothing was clicked.

    PCG64(seed)'s stream is read as consecutive segments, each by its own
    generator:
      1. choice: n doubles; a user sees page ``cdf.searchsorted(u,
         side="right")``, as ``Generator.choice(Q, p=weights)`` draws it,
         found through a `_GuideTable`;
      2. u_intent: n doubles; the user has the fresh intent when u_intent <
         p_fresh of the page, and scans that intent's row;
      3. u_cont: n x depth doubles;
      4. u_click: n x depth doubles.
    So the results do not depend on the block size.  u_cont and u_click are
    drawn at the full depth to keep that layout; the columns past K meet
    zero relevance, which is never clicked, and are not scanned.
    """
    depth = config.depth
    if block is None:
        block = max(1, _BLOCK_DRAWS // depth)
    choice = _stream(seed, 0)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    choose = _GuideTable(cdf)
    intent = _stream(seed, n)
    cont = _stream(seed, 2 * n)
    click = _stream(seed, 2 * n + n * depth)
    width = pages.shape[2]
    for start in range(0, n, block):
        m = min(block, n - start)
        qidx = choose(choice.random(m))
        any_intent = ~(intent.random(m) < p_fresh[qidx])
        u_cont = cont.random((m, depth))[:, :width]
        u_click = click.random((m, depth))[:, :width]
        yield kernels.simulate_clicks_batch(
            pages[any_intent.astype(np.intp), qidx], u_cont, u_click,
            config.p_break, config.break_exponent.shift,
        )


# ---------------------------------------------------------------------------
# A/B simulation
# ---------------------------------------------------------------------------


def _simulate_bucket(seed, pages, p_fresh, weights, n, config: MetricConfig, levels: int,
                     block=None) -> tuple[np.ndarray, np.ndarray]:
    """One A/B bucket of `n` impressions on the (2, Q, K) pages, drawn by
    `_click_blocks`.  The click-time noise is a fifth segment of the seed's
    stream, normal variates from offset 2n + 2n * depth on, one per
    impression.  Returns the count of impressions per click position
    (`levels` >= K + 1 entries, position 0 for no click) and the click
    times of the clicked impressions, in impression order."""
    noise = _stream(seed, 2 * n + 2 * n * config.depth)
    counts = np.zeros(levels, dtype=np.int64)
    times = []
    for pos in _click_blocks(seed, pages, p_fresh, weights, n, config, block):
        counts += np.bincount(pos, minlength=levels)
        clicked = pos > 0
        jitter = np.clip(noise.normal(0.0, 1.0, pos.size),
                         -_CLICK_TIME_NOISE_CLIP_S, _CLICK_TIME_NOISE_CLIP_S)
        times.append(_CLICK_TIME_BASE_S + _CLICK_TIME_PER_POSITION_S * (pos[clicked] - 1.0)
                     + jitter[clicked])
    return counts, np.concatenate(times)


def _level_comparison(counts_a, counts_b, first_level: int, scale: float) -> MetricComparison:
    """Compare two samples of the integer levels first_level,
    first_level + 1, ... given as counts per level."""
    values = np.arange(first_level, first_level + counts_a.size)
    means = [int(values @ c) / int(c.sum()) * scale if c.any() else None
             for c in (counts_a, counts_b)]
    u, p = (None, None) if None in means else mann_whitney_counts(counts_a, counts_b)
    return MetricComparison(means[0], means[1], u, p)


def _sample_comparison(a: np.ndarray, b: np.ndarray) -> MetricComparison:
    """Compare two float samples, sorting both in place so that their test
    reads them without a copy.  The means are taken first: a float sum
    depends on the order of its terms."""
    means = [float(x.mean()) if x.size else None for x in (a, b)]
    if None in means:
        return MetricComparison(means[0], means[1], None, None)
    a.sort()
    b.sort()
    u, p = mann_whitney_u(a, b)
    return MetricComparison(means[0], means[1], u, p)


def check_ab_impressions(n_queries: int) -> None:
    """Refuse an A/B bucket size outside [2, MAX_AB_IMPRESSIONS]."""
    if not 2 <= n_queries <= MAX_AB_IMPRESSIONS:
        raise ValidationError(
            f"n_queries must be in [2, {MAX_AB_IMPRESSIONS}], got {n_queries}")


def ab_test(
    corpus: Corpus,
    control_policy: Policy,
    treatment_policy: Policy,
    n_queries: int,
    seed: int = 0,
    metric_config: MetricConfig = DEFAULT_METRIC_CONFIG,
    window: FreshnessWindow = DEFAULT_WINDOW,
    table: PositionPriorTable = DEFAULT_PRIOR_TABLE,
) -> AbReport:
    """Simulate `n_queries` impressions per bucket and compare the user
    behavior metrics with Mann-Whitney tests over per-impression
    observations.

    Impressions sample queries from the corpus proportionally to their
    volume; each bucket uses an independent child seed stream.  User
    intent is drawn from the query's true grade.

    Each bucket's PCG64 stream holds five consecutive segments: the query
    choice (n doubles), u_intent (n), u_cont (n x depth), u_click
    (n x depth), then the click-time normals.  Impressions are simulated
    in fixed blocks, each segment read from its own offset, so the report
    equals drawing each segment whole.  A bucket keeps only its count of
    impressions per click position, from which the four discrete metrics
    and their tests follow without a sort, and the click times of its
    clicked impressions, sorted in place once their means are taken.  Those
    times are the memory that still grows with n.
    """
    check_ab_impressions(n_queries)
    prepared = prepare_queries(corpus.queries, corpus.rankings, metric_config, window, table)
    if not prepared.query_ids:
        raise ValidationError("the A/B test needs at least one query")
    _require_grades(prepared)
    weights = prepared.volume / prepared.volume.sum()
    pages = []
    for bucket, policy in (("control", control_policy), ("treatment", treatment_policy)):
        orders = np.asarray(policy(prepared, metric_config))
        if (orders.ndim != 2 or orders.shape[0] != len(prepared.query_ids)
                or orders.shape[1] > metric_config.depth):
            raise ValidationError(f"the {bucket} policy returned pages of shape {orders.shape}, "
                                  f"not one row per query at most {metric_config.depth} wide "
                                  "(the depth)")
        pages.append(_page_matrices(prepared, orders))
    # click positions 0..K, and at least 0..2, which the CTR@2 sample reads
    levels = max(3, 1 + max(bucket_pages.shape[2] for bucket_pages in pages))
    (counts_c, times_c), (counts_t, times_t) = (
        _simulate_bucket(child, bucket_pages, prepared.true_grade, weights, n_queries,
                         metric_config, levels)
        for bucket_pages, child in zip(pages, np.random.SeedSequence(seed).spawn(2))
    )

    def indicator(position: int) -> list[np.ndarray]:
        """Both buckets' counts of the 0/1 sample `click position == position`."""
        return [np.array([n_queries - c[position], c[position]]) for c in (counts_c, counts_t)]

    metrics = {
        "abandonment_rate": _level_comparison(*indicator(0), 0, 100.0),
        "time_to_first_click": _sample_comparison(times_c, times_t),
        "ctr_position_1": _level_comparison(*indicator(1), 0, 100.0),
        "ctr_position_2": _level_comparison(*indicator(2), 0, 100.0),
        "first_click_position": _level_comparison(counts_c[1:], counts_t[1:], 1, 1.0),
    }
    return AbReport(n_queries=n_queries, metrics=metrics)


# ---------------------------------------------------------------------------
# Mann-Whitney U with midranks, tie correction and continuity correction
# ---------------------------------------------------------------------------


# Each sample is walked in value-range chunks cut at every _MW_CHUNK-th value
# of either sorted sample, so a chunk holds at most _MW_CHUNK values of each
# sample beyond the tie run at its lower edge.
_MW_CHUNK = 1 << 16


def _pairwise_sum(at: np.ndarray, terms: np.ndarray, lo: int, n: int) -> float:
    """``np.sum`` of the n floats from position lo of a vector that is zero
    but for terms[k] at the ascending positions at[k].  numpy sums
    pairwise: a range of more than 128 floats is summed as two, split after
    its first n // 2 rounded down to a multiple of 8.  So the split is
    followed down to ranges short enough to hand to ``np.sum`` whole; a
    range that holds no term sums to 0.0."""
    i, j = at.searchsorted([lo, lo + n])
    if i == j:
        return 0.0
    if n <= 1 << 16:
        dense = np.zeros(n)
        dense[at[i:j] - lo] = terms[i:j]
        return float(dense.sum())
    half = n // 2
    half -= half % 8
    return _pairwise_sum(at, terms, lo, half) + _pairwise_sum(at, terms, lo + half, n - half)


def _mann_whitney_runs(chunks) -> tuple[float, float]:
    """Mann-Whitney U over tie runs in ascending order, given as chunks
    (run_a, counts): run i of a chunk holds counts[i] > 0 tied
    observations, run_a[i] of them from the first sample.  Returns the U
    statistic of the first sample and a two-sided p-value from the normal
    approximation with tie and continuity corrections.

    Each run's members share the midrank of its ranks, so the first
    sample's rank sum is a sum of half-integers.  It is summed exactly, as
    an integer count of halves; a float sum in any order gives the same
    value while it stays below 2**52, which holds whenever n(n + 1) / 2 <
    2**52, n the two samples' total: up to about 9 x 10**7 observations.

    The tie term sums t**3 - t in float64 over the runs of t observations.
    Past 2**53 the terms and their sum round, so the sum is the one
    ``np.sum`` takes over one term per run, runs of one included; only the
    runs of two or more are kept.
    """
    n_a = n = halves = runs = 0
    tie_at, tie_terms = [], []
    for run_a, counts in chunks:
        # twice each run's midrank is 2 * run_end - counts + 1
        twice = np.cumsum(counts)
        twice += n
        twice *= 2
        twice -= counts
        twice += 1
        halves += int(twice @ run_a)
        tied = np.flatnonzero(counts > 1)
        ties = counts[tied].astype(np.float64)
        ties **= 3
        ties -= counts[tied]
        tie_at.append(tied + runs)
        tie_terms.append(ties)
        runs += counts.size
        n_a += int(run_a.sum())
        n += int(counts.sum())
    n_b = n - n_a
    if n_a == 0 or n_b == 0:
        raise ValidationError("both samples must be non-empty")
    u_a = halves / 2.0 - n_a * (n_a + 1) / 2.0

    tie_term = _pairwise_sum(np.concatenate(tie_at), np.concatenate(tie_terms), 0, runs)
    mean = n_a * n_b / 2.0
    variance = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if variance <= 0.0:
        return u_a, 1.0
    z = max(0.0, abs(u_a - mean) - 0.5) / math.sqrt(variance)
    return u_a, min(1.0, math.erfc(z / math.sqrt(2.0)))


def mann_whitney_counts(counts_a, counts_b) -> tuple[float, float]:
    """`mann_whitney_u` of two samples given as counts per level:
    counts_a[i] and counts_b[i] observations take the i-th smallest level.
    Levels that no observation takes are skipped, so the result equals
    `mann_whitney_u` on the expanded samples bit for bit, without a sort."""
    counts_a = np.asarray(counts_a, dtype=np.int64)
    counts = counts_a + np.asarray(counts_b, dtype=np.int64)
    taken = counts > 0
    return _mann_whitney_runs([(counts_a[taken], counts[taken])])


def _ascending(sample) -> np.ndarray:
    """The sample as float64, itself if it is already in ascending order,
    else a sorted copy."""
    x = np.asarray(sample, dtype=np.float64)
    return x if bool((x[1:] >= x[:-1]).all()) else np.sort(x)


def _tie_runs(a: np.ndarray, b: np.ndarray):
    """The tie runs of the ascending samples a and b pooled, in ascending
    order, one value-range chunk at a time: yields each chunk's (run_a,
    counts) as `_mann_whitney_runs` reads them.  The chunks are cut with a
    left search at values of the samples, so a tie run never straddles two
    chunks.  A run longer than _MW_CHUNK can leave a chunk empty; it is
    skipped."""
    edges = np.unique(np.concatenate([a[_MW_CHUNK::_MW_CHUNK], b[_MW_CHUNK::_MW_CHUNK]]))
    cuts_a = np.concatenate(([0], a.searchsorted(edges, "left"), [a.size]))
    cuts_b = np.concatenate(([0], b.searchsorted(edges, "left"), [b.size]))
    for lo_a, hi_a, lo_b, hi_b in zip(cuts_a[:-1], cuts_a[1:], cuts_b[:-1], cuts_b[1:]):
        if lo_a == hi_a and lo_b == hi_b:
            continue
        chunk_a, chunk_b = a[lo_a:hi_a], b[lo_b:hi_b]
        # merged, each value of a goes after the values of b below it
        at = np.arange(chunk_a.size) + chunk_b.searchsorted(chunk_a, "left")
        from_a = np.zeros(chunk_a.size + chunk_b.size, dtype=bool)
        from_a[at] = True
        pooled = np.empty(from_a.size)
        pooled[at] = chunk_a
        pooled[~from_a] = chunk_b
        starts = np.flatnonzero(np.concatenate(([True], pooled[1:] != pooled[:-1])))
        yield np.add.reduceat(from_a, starts, dtype=np.int64), np.diff(starts, append=from_a.size)


def mann_whitney_u(sample_a, sample_b) -> tuple[float, float]:
    """U statistic of the first sample and a two-sided p-value from the
    normal approximation with tie and continuity corrections.  A sample
    that is not in ascending order is sorted in a copy; the caller's arrays
    are never changed.  The two sorted samples are then walked together in
    value-range chunks (`_tie_runs`), so beyond the samples the test holds
    only a chunk's arrays and one entry per run of tied values."""
    return _mann_whitney_runs(_tie_runs(_ascending(sample_a), _ascending(sample_b)))


# ---------------------------------------------------------------------------
# report writers
# ---------------------------------------------------------------------------


def write_sweep_csv(curves: Sequence[SweepCurve], path: str) -> None:
    lines = ["# freshblend.sweep.v1", "true_grade,p_hat,err_iaa"]
    for curve in curves:
        for p_hat, value in curve.points:
            lines.append(f"{fmt(curve.true_grade)},{fmt(p_hat)},{fmt(value)}")
    write_lines(path, lines)


def write_buckets_csv(report: BucketReport, path: str) -> None:
    lines = ["# freshblend.buckets.v1", "bucket_lo,bucket_hi,strategy,mean_err_iaa,n"]
    for row in report.rows:
        for strategy in STRATEGIES:
            mean = row.means.get(strategy)
            cell = "" if mean is None else fmt(mean)
            lines.append(f"{fmt(row.lo)},{fmt(row.hi)},{strategy},{cell},{row.n}")
    write_lines(path, lines)


def write_ab_report(report: AbReport, path: str) -> None:
    metrics = {name: asdict(report.metrics[name]) for name in METRIC_NAMES}
    document = {"schema_version": 1, "n_queries": report.n_queries, "metrics": metrics}
    atomic_write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")
