"""Experiment harness: sweep, bucket comparison, click simulation,
A/B test, and the Mann-Whitney implementation."""

import re

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from freshblend import experiments
from freshblend.calibration import DEFAULT_PRIOR_TABLE, PositionPriorTable
from freshblend.corpus import (
    DocEntry,
    GeneratorConfig,
    JUDGED_POOL_MIXTURE,
    QueryRecord,
    Ranking,
    generate_corpus,
)
from freshblend.errors import ValidationError
from freshblend.experiments import (
    DEFAULT_SWEEP_GRID,
    STRATEGIES,
    ab_test,
    blend_policy,
    bucket_comparison,
    initial_ranking_policy,
    mann_whitney_counts,
    mann_whitney_u,
    prepare_queries,
    sweep_estimate,
    write_ab_report,
    write_buckets_csv,
    write_sweep_csv,
)
from freshblend.freshness import FreshnessWindow
from freshblend.kernels import err_iaa_batch
from freshblend.metric import BreakExponent, MetricConfig
from oracles import (
    exact_two_sided_p,
    midrank_mann_whitney,
    one_shot_ab_report,
    one_shot_bucket,
    prepared_pools,
)


def small_corpus(seed=0, n=120, mixture=None):
    config = GeneratorConfig(
        n_queries=n,
        ranking_depth=15,
        grade_mixture=dict(JUDGED_POOL_MIXTURE if mixture is None else mixture),
    )
    return generate_corpus(config, seed=seed)


# ---------------------------------------------------------------------------
# Mann-Whitney
# ---------------------------------------------------------------------------


class TestMannWhitney:
    def test_separated_samples_fixture(self):
        u, _ = mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert u == 0.0
        assert exact_two_sided_p([1, 2, 3], [4, 5, 6]) == pytest.approx(0.1, abs=1e-12)

    def test_identical_multisets(self):
        a = [1, 2, 2, 5]
        u, p = mann_whitney_u(a, a)
        assert u == len(a) ** 2 / 2
        assert p == 1.0

    def test_swapping_samples_mirrors_u_and_keeps_p(self):
        rng = np.random.default_rng(1)
        a = rng.integers(0, 5, 20).astype(float)
        b = rng.integers(0, 5, 30).astype(float)
        u_ab, p_ab = mann_whitney_u(a, b)
        u_ba, p_ba = mann_whitney_u(b, a)
        assert u_ab + u_ba == len(a) * len(b)
        assert p_ab == pytest.approx(p_ba, abs=1e-12)

    def test_matches_scipy_asymptotic_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.integers(0, 4, int(rng.integers(5, 40))).astype(float)
            b = rng.integers(0, 4, int(rng.integers(5, 40))).astype(float)
            u, p = mann_whitney_u(a, b)
            ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided",
                                           method="asymptotic", use_continuity=True)
            assert u == pytest.approx(float(ref.statistic), abs=1e-9)
            assert p == pytest.approx(float(ref.pvalue), abs=1e-9)

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError):
            mann_whitney_u([], [1.0])


def level_counts(levels: np.ndarray, sample) -> np.ndarray:
    return np.bincount(np.searchsorted(levels, sample), minlength=levels.size)


# heavily tied observations: 0/1, the levels 1..10, continuous values, and
# all three mixed
OBSERVATIONS = {
    "binary": st.integers(0, 1).map(float),
    "levels": st.integers(1, 10).map(float),
    "continuous": st.floats(-1e3, 1e3, allow_nan=False),
}
OBSERVATIONS["mixed"] = st.one_of(*OBSERVATIONS.values())


@st.composite
def tied_samples(draw):
    element = draw(st.sampled_from(list(OBSERVATIONS.values())))
    samples = [draw(st.lists(element, min_size=1, max_size=500)) for _ in range(2)]
    unused = draw(st.lists(element, max_size=5))
    return samples[0], samples[1], unused


class TestMannWhitneyAgainstMidranks:
    @settings(max_examples=300, deadline=None)
    @given(tied_samples())
    def test_both_entry_points_equal_the_midrank_oracle_bit_for_bit(self, samples):
        a, b, unused = samples
        expected = midrank_mann_whitney(a, b)
        assert mann_whitney_u(a, b) == expected
        # levels that no observation takes must not matter
        levels = np.unique(np.asarray(a + b + unused, dtype=np.float64))
        assert mann_whitney_counts(level_counts(levels, a), level_counts(levels, b)) == expected

    @pytest.mark.parametrize("counts_a, counts_b", [
        ([700_000, 300_001], [650_000, 350_000]),
        # summed over all nine levels, the tie term rounds to another p-value
        ([164_464, 0, 0, 0, 0, 0, 110_250, 125_025, 0],
         [164_296, 0, 0, 0, 0, 0, 110_396, 126_355, 0]),
    ])
    def test_counts_whose_cubes_round_equal_the_oracle(self, counts_a, counts_b):
        # runs of more than 2**(53/3) ~ 208k ties make the tie term inexact,
        # so it must be summed over the same runs in the same order
        levels = np.arange(len(counts_a), dtype=np.float64)
        a = np.repeat(levels, counts_a)
        b = np.repeat(levels, counts_b)
        expected = midrank_mann_whitney(a, b)
        assert mann_whitney_counts(counts_a, counts_b) == expected
        assert mann_whitney_u(a, b) == expected

    def test_counts_need_both_samples(self):
        with pytest.raises(ValidationError):
            mann_whitney_counts([0, 0], [3, 1])


# ---------------------------------------------------------------------------
# click simulation
# ---------------------------------------------------------------------------


# One query's page is simulated as an A/B bucket whose query choice has a
# single page to land on.  Pages are (2, 1, K): [0] r_fresh, [1] r_any.
ONE_PAGE = np.array([1.0])
LEVELS = MetricConfig().depth + 1


class TestSimulateClicks:
    def test_unsatisfiable_page_is_abandoned(self):
        pages = np.zeros((2, 1, 5))
        counts, times = experiments._simulate_bucket(3, pages, np.array([0.5]), ONE_PAGE, 200,
                                                     MetricConfig(), LEVELS)
        assert counts[0] == 200 and counts.sum() == 200
        assert times.size == 0

    def test_certain_top_result_clicks_immediately_under_shifted_exponent(self):
        pages = np.array([[[1.0, 0.5]], [[1.0, 0.5]]])
        config = MetricConfig(break_exponent=BreakExponent.POSITION_MINUS_ONE)
        for seed in range(25):
            counts, _ = experiments._simulate_bucket(seed, pages, np.array([0.5]), ONE_PAGE, 40,
                                                     config, LEVELS)
            assert counts[1] == 40

    def test_same_seed_reproduces_the_positions(self):
        pages = np.array([[[0.2, 0.4, 0.0]], [[0.5, 0.4, 0.1]]])
        runs = [experiments._simulate_bucket(seed, pages, np.array([0.3]), ONE_PAGE, 500,
                                             MetricConfig(), LEVELS)
                for seed in (11, 11, 12)]
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])
        assert not np.array_equal(runs[0][1], runs[2][1])

    @pytest.mark.parametrize("exponent", list(BreakExponent))
    @pytest.mark.parametrize("position", [1, 2, 5])
    def test_click_time_is_two_seconds_plus_one_and_a_half_per_position(
        self, exponent, position
    ):
        # the page's only satisfying result sits at `position`, so every
        # click lands there; its time is 2.0 + 1.5 (position - 1), plus
        # normal noise clipped to +-1.5
        config = MetricConfig(break_exponent=exponent, depth=5)
        pages = np.zeros((2, 1, config.depth))
        pages[:, 0, position - 1] = 1.0
        n = 2000
        counts, times = experiments._simulate_bucket(7, pages, np.array([0.5]), ONE_PAGE, n,
                                                     config, config.depth + 1)
        assert counts[0] + counts[position] == n
        assert counts[position] == times.size > 0
        centre = 2.0 + 1.5 * (position - 1)
        assert (np.abs(times - centre) <= 1.5).all()
        assert times.min() == centre - 1.5 and times.max() == centre + 1.5

    def test_satisfaction_frequency_tracks_the_metric(self):
        pages = np.array([[[0.1, 0.5, 0.0, 0.7]], [[0.6, 0.3, 0.2, 0.1]]])
        config = MetricConfig()
        n = 40_000
        counts, _ = experiments._simulate_bucket(5, pages, np.array([0.4]), ONE_PAGE, n, config,
                                                 LEVELS)
        analytic = err_iaa_batch(*pages, np.array([0.4]), np.array([0.6]), config.p_break,
                                 config.break_exponent.shift)[0]
        frequency = 1.0 - counts[0] / n
        se = np.sqrt(analytic * (1 - analytic) / n)
        assert abs(frequency - analytic) <= 3 * se

    def test_abandonment_of_certain_click_page_reflects_continuation(self):
        # a certain first result under the unshifted exponent is reached
        # with probability p_break
        config = MetricConfig(p_break=0.85)
        n = 40_000
        counts, _ = experiments._simulate_bucket(6, np.ones((2, 1, 1)), np.array([0.0]),
                                                 ONE_PAGE, n, config, LEVELS)
        abandonment = counts[0] / n
        se = np.sqrt(0.85 * 0.15 / n)
        assert abs(abandonment - 0.15) <= 3 * se

    @pytest.mark.parametrize("exponent", list(BreakExponent))
    @pytest.mark.parametrize("length", [1, 3, 10])
    def test_draw_order_is_pinned(self, exponent, length):
        # query choice (n), u_intent (n), u_cont (n, depth), u_click (n,
        # depth), then the click-time normals, as one_shot_bucket draws them
        pages = np.random.default_rng(length).random((2, 1, length))
        config = MetricConfig(break_exponent=exponent, depth=10)
        n, seed = 500, 31
        counts, times = experiments._simulate_bucket(seed, pages, np.array([0.35]), ONE_PAGE, n,
                                                     config, LEVELS)
        pos, expected_times = one_shot_bucket(seed, pages, np.array([0.35]), ONE_PAGE, n, config)
        assert np.array_equal(counts, np.bincount(pos, minlength=LEVELS))
        assert np.array_equal(times, expected_times)


# ---------------------------------------------------------------------------
# per-query preparation
# ---------------------------------------------------------------------------


def ranking_of(timestamps, latents=True):
    """Ranks 1..n with the given timestamps; latents are distinct per
    rank, or all absent."""
    return Ranking(tuple(
        DocEntry(f"d{rank}", rank, ts,
                 (0.9 / rank) if latents else None,
                 (0.5 / rank) if latents else None)
        for rank, ts in enumerate(timestamps, start=1)
    ))


# issue time 1000, window 100: a timestamp of 900 or later is fresh
FRESH, STALE = 950, 10
HAND_RANKINGS = {
    "short": ranking_of([FRESH, STALE]),
    "no_fresh": ranking_of([STALE] * 7),
    "fresh_below_page": ranking_of([STALE] * 5 + [FRESH, FRESH, STALE]),
    "mixed": ranking_of([FRESH, STALE, FRESH, STALE, STALE, FRESH, FRESH, STALE, FRESH]),
    "all_fresh": ranking_of([FRESH] * 6),
}


def check_prepared_rows(queries, rankings, config, window, table, require_latents):
    """prepare_queries against the pools built one query at a time."""
    prepared = prepare_queries(queries, rankings, config, window, table, require_latents)
    depth = config.depth
    m = prepared.cal_fresh.shape[1]
    # pages are as wide as the longest pool allows, never wider than the depth
    width = min(depth, int(prepared.sizes.max(initial=0)))
    assert prepared.query_ids == prepared.table.query_ids == tuple(queries)
    assert prepared.initial_order.shape == prepared.fresh_order.shape == (len(queries), width)
    expected = prepared_pools(queries, rankings, depth, window, table)
    for b, (qid, (fresh, pool)) in enumerate(zip(queries, expected)):
        ranking = rankings[qid]
        size = len(pool)
        offset = int(prepared.table.offsets[b])
        rows = [offset + c.ordinary_rank - 1 for c in pool]
        assert prepared.candidates[b].tolist() == rows + [-1] * (m - size)
        assert [prepared.table.doc_ids[row] for row in rows] == [c.doc_id for c in pool]
        assert prepared.sizes[b] == size
        assert prepared.cal_fresh[b].tolist() == [c.r_fresh for c in pool] + [0.0] * (m - size)
        assert prepared.cal_any[b].tolist() == [c.r_any for c in pool] + [0.0] * (m - size)

        entries = [ranking.entries[c.ordinary_rank - 1] for c in pool]
        lat_any = [e.latent_rel_any if e.latent_rel_any is not None else 0.0 for e in entries]
        lat_fresh = [e.latent_rel_fresh if e.latent_rel_fresh is not None else 0.0
                     for e in entries]
        assert prepared.lat_any[b].tolist() == lat_any + [0.0] * (m - size)
        assert prepared.lat_fresh[b].tolist() == lat_fresh + [0.0] * (m - size)

        column = {candidate.doc_id: j for j, candidate in enumerate(pool)}
        initial = [column[e.doc_id] for e in ranking.entries[:width]]
        fresh_page = [column[e.doc_id] for e in fresh.entries[:width]]
        assert prepared.initial_order[b].tolist() == initial + [-1] * (width - len(initial))
        assert prepared.fresh_order[b].tolist() == fresh_page + [-1] * (width - len(fresh_page))


@st.composite
def ranking_batches(draw):
    """Up to five queries of 0-40 documents each, fresh, stale or
    future-dated, with and without latents, and a window, a prior table and
    a depth to prepare them under."""
    window = draw(st.integers(1, 10**6))
    queries, rankings = {}, {}
    for i in range(draw(st.integers(1, 5))):
        qid = f"q{i}"
        issue_time = draw(st.integers(2 * 10**6, 10**7))
        entries = []
        for rank in range(1, draw(st.integers(0, 40)) + 1):
            age = draw(st.one_of(st.integers(0, window),                 # fresh
                                 st.integers(window + 1, 2 * 10**6),     # stale
                                 st.integers(-10**6, -1)))               # future-dated
            latent = st.one_of(st.none(), st.floats(0.0, 1.0))
            entries.append(DocEntry(f"{qid}-d{rank}", rank, issue_time - age,
                                    draw(latent), draw(latent)))
        queries[qid] = QueryRecord(qid, issue_time)
        rankings[qid] = Ranking(tuple(entries))
    priors = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                           min_size=1, max_size=12))
    table = PositionPriorTable(tuple(sorted(priors, reverse=True)))
    config = MetricConfig(depth=draw(st.integers(1, 14)))
    return queries, rankings, FreshnessWindow(window), table, config


class TestPreparedTable:
    @given(ranking_batches(), st.randoms(use_true_random=False))
    @settings(max_examples=80, deadline=None)
    def test_table_path_equals_the_per_query_reference(self, batch, random):
        queries, rankings, window, table, config = batch
        check_prepared_rows(queries, rankings, config, window, table, require_latents=False)

        # a query's rows do not depend on the batch it is prepared in
        order = list(queries)
        random.shuffle(order)
        shuffled = {qid: queries[qid] for qid in order}
        together = prepare_queries(shuffled, rankings, config, window, table,
                                   require_latents=False)
        for b, qid in enumerate(together.query_ids):
            alone = prepare_queries({qid: queries[qid]}, rankings, config, window, table,
                                    require_latents=False)
            size = int(alone.sizes[0])
            assert together.sizes[b] == size
            for name in ("cal_fresh", "cal_any", "lat_fresh", "lat_any"):
                row = getattr(together, name)[b].tolist()
                assert row == getattr(alone, name)[0].tolist() + [0.0] * (len(row) - size)
            doc_ids = [[prepared.table.doc_ids[r] for r in prepared.candidates[i, :size]]
                       for prepared, i in ((together, b), (alone, 0))]
            assert doc_ids[0] == doc_ids[1]
            for name in ("initial_order", "fresh_order"):
                row = getattr(together, name)[b].tolist()
                own = getattr(alone, name)[0].tolist()
                assert row == own + [-1] * (len(row) - len(own))


class TestPrepareQueries:
    @pytest.mark.parametrize("depth", [1, 4, 10])
    @pytest.mark.parametrize("table", [DEFAULT_PRIOR_TABLE, PositionPriorTable((0.5, 0.3))])
    def test_hand_rows_match_a_doc_id_lookup(self, depth, table):
        queries = {qid: QueryRecord(qid, 1000) for qid in HAND_RANKINGS}
        check_prepared_rows(queries, HAND_RANKINGS, MetricConfig(depth=depth),
                            FreshnessWindow(100), table, require_latents=True)

    def test_rows_without_latents_pad_with_zeros(self):
        rankings = {**HAND_RANKINGS,
                    "bare": ranking_of([STALE, FRESH, STALE, FRESH], latents=False)}
        queries = {qid: QueryRecord(qid, 1000) for qid in rankings}
        check_prepared_rows(queries, rankings, MetricConfig(depth=3),
                            FreshnessWindow(100), DEFAULT_PRIOR_TABLE, require_latents=False)
        with pytest.raises(ValidationError, match="'bare' doc 'd1' lacks latent"):
            prepare_queries(queries, rankings, MetricConfig(depth=3), FreshnessWindow(100))

    def test_generated_rows_match_a_doc_id_lookup(self):
        corpus = small_corpus(seed=21, n=60)
        window = FreshnessWindow(GeneratorConfig().window_seconds)
        check_prepared_rows(corpus.queries, corpus.rankings, MetricConfig(depth=10),
                            window, DEFAULT_PRIOR_TABLE, require_latents=True)

    def test_query_without_ranking_rejected(self):
        with pytest.raises(ValidationError, match="has no ranking"):
            prepare_queries({"q": QueryRecord("q", 1000)}, {})


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


class TestSweep:
    def test_default_grid_matches_plot_abscissae(self):
        assert DEFAULT_SWEEP_GRID[0] == 0.0
        assert DEFAULT_SWEEP_GRID[-1] == 0.95
        assert len(DEFAULT_SWEEP_GRID) == 20
        steps = {round(b - a, 2) for a, b in zip(DEFAULT_SWEEP_GRID, DEFAULT_SWEEP_GRID[1:])}
        assert steps == {0.05}

    def test_zero_need_corpus_peaks_at_zero_estimate(self):
        corpus = small_corpus(seed=7, n=80, mixture={0.0: 1.0})
        curves = sweep_estimate(corpus, grid=(0.0, 0.3, 0.6, 0.9))
        assert len(curves) == 1
        assert curves[0].true_grade == 0.0
        assert curves[0].best_p_hat() == 0.0

    def test_refuses_a_corpus_without_latents(self):
        corpus = small_corpus(seed=8, n=5)
        bare = {
            qid: Ranking(tuple(
                DocEntry(e.doc_id, e.rank, e.timestamp) for e in ranking.entries
            ))
            for qid, ranking in corpus.rankings.items()
        }
        stripped = type(corpus)(corpus.queries, bare, corpus.judgments, corpus.features)
        with pytest.raises(ValidationError, match="latent"):
            sweep_estimate(stripped, grid=(0.0, 0.5))

    def test_true_estimate_sits_on_the_curve_plateau(self):
        # blending with the exact true probability must score within 0.02
        # of the best grid point of that grade's curve
        corpus = small_corpus(seed=19, n=600)
        for curve in sweep_estimate(corpus):
            values = dict(curve.points)
            best = max(values.values())
            assert best - values[curve.true_grade] <= 0.02

    def test_curves_cover_every_grade_present(self, tmp_path):
        corpus = small_corpus(seed=9, n=200)
        curves = sweep_estimate(corpus, grid=(0.0, 0.5, 0.95))
        grades = {q.true_grade for q in corpus.queries.values()}
        assert {c.true_grade for c in curves} == grades
        out = tmp_path / "sweep.csv"
        write_sweep_csv(curves, str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "# freshblend.sweep.v1"
        assert lines[1] == "true_grade,p_hat,err_iaa"
        assert len(lines) == 2 + 3 * len(curves)


# ---------------------------------------------------------------------------
# bucket comparison
# ---------------------------------------------------------------------------


class TestBucketComparison:
    def test_reports_all_strategies_and_partitions_unit_interval(self, tmp_path):
        corpus = small_corpus(seed=10, n=160)
        report = bucket_comparison(corpus, seed=3)
        assert len(report.rows) == 10
        assert report.rows[0].lo == 0.0
        assert report.rows[-1].hi == 1.0
        for row in report.rows:
            assert set(row.means) == set(STRATEGIES)
            if row.n == 0:
                assert all(mean is None for mean in row.means.values())
        populated = [row for row in report.rows if row.n]
        assert sum(row.n for row in populated) == len(corpus.queries)
        for row in populated:
            assert row.means["ideal_diversified"] >= row.means["learned_diversified"] - 0.01
        out = tmp_path / "buckets.csv"
        write_buckets_csv(report, str(out))
        lines = out.read_text().splitlines()
        assert lines[1] == "bucket_lo,bucket_hi,strategy,mean_err_iaa,n"
        assert len(lines) == 2 + 10 * len(STRATEGIES)

    def test_needs_at_least_two_queries(self):
        corpus = small_corpus(seed=11, n=1)
        with pytest.raises(ValidationError):
            bucket_comparison(corpus)

    def test_deterministic_in_seed(self):
        corpus = small_corpus(seed=12, n=100)
        a = bucket_comparison(corpus, seed=5)
        b = bucket_comparison(corpus, seed=5)
        assert a == b


# ---------------------------------------------------------------------------
# A/B test
# ---------------------------------------------------------------------------


class TestAbTest:
    def test_null_experiment_shows_no_significant_differences(self):
        corpus = small_corpus(seed=13, n=150)
        report = ab_test(corpus, initial_ranking_policy(), initial_ranking_policy(),
                         n_queries=4000, seed=17)
        for name, comparison in report.metrics.items():
            assert comparison.p_value is not None
            assert comparison.p_value > 0.01, name

    def test_metric_ranges(self):
        corpus = small_corpus(seed=14, n=150)
        grades = {qid: q.true_grade for qid, q in corpus.queries.items()}
        report = ab_test(corpus, initial_ranking_policy(), blend_policy(grades),
                         n_queries=4000, seed=18)
        for key in ("abandonment_rate", "ctr_position_1", "ctr_position_2"):
            for value in (report.metrics[key].control, report.metrics[key].treatment):
                assert 0.0 <= value <= 100.0
        assert report.metrics["first_click_position"].control >= 1.0
        assert report.metrics["first_click_position"].treatment >= 1.0

    def test_deterministic_in_seed(self):
        corpus = small_corpus(seed=15, n=100)
        grades = {qid: q.true_grade for qid, q in corpus.queries.items()}
        a = ab_test(corpus, initial_ranking_policy(), blend_policy(grades),
                    n_queries=2000, seed=4)
        b = ab_test(corpus, initial_ranking_policy(), blend_policy(grades),
                    n_queries=2000, seed=4)
        assert a == b

    def test_too_few_queries_rejected(self):
        corpus = small_corpus(seed=16, n=20)
        with pytest.raises(ValidationError):
            ab_test(corpus, initial_ranking_policy(), initial_ranking_policy(),
                    n_queries=1, seed=0)

    def test_too_many_impressions_rejected(self):
        # both buckets pooled, the limit keeps n(n + 1) / 2 below 2**52
        n = 2 * experiments.MAX_AB_IMPRESSIONS
        assert n * (n + 1) // 2 < 2**52 <= (n + 2) * (n + 3) // 2
        corpus = small_corpus(seed=16, n=20)
        with pytest.raises(ValidationError, match="47453132"):
            ab_test(corpus, initial_ranking_policy(), initial_ranking_policy(),
                    n_queries=experiments.MAX_AB_IMPRESSIONS + 1, seed=0)

    def test_policy_wider_than_the_depth_rejected(self):
        corpus = small_corpus(seed=16, n=20)

        def three_wide(prepared, metric_config):
            return np.zeros((len(prepared.query_ids), 3), dtype=np.int64)

        message = ("control policy returned pages of shape (20, 3), not one row per query "
                   "at most 1 wide (the depth)")
        with pytest.raises(ValidationError, match=re.escape(message)):
            ab_test(corpus, three_wide, initial_ranking_policy(), n_queries=100, seed=0,
                    metric_config=MetricConfig(depth=1))

    @pytest.mark.parametrize("shape", [(19, 2), (20,), (20, 2, 1)])
    def test_policy_without_one_row_per_query_rejected(self, shape):
        corpus = small_corpus(seed=16, n=20)

        def misshapen(prepared, metric_config):
            return np.zeros(shape, dtype=np.int64)

        message = f"treatment policy returned pages of shape {shape},"
        with pytest.raises(ValidationError, match=re.escape(message)):
            ab_test(corpus, initial_ranking_policy(), misshapen, n_queries=100, seed=0)

    def test_missing_estimate_for_a_query_rejected(self):
        corpus = small_corpus(seed=17, n=20)
        with pytest.raises(ValidationError, match="estimate"):
            ab_test(corpus, initial_ranking_policy(), blend_policy({}),
                    n_queries=100, seed=0)

    def test_report_serializes_without_nan(self, tmp_path):
        corpus = small_corpus(seed=18, n=80)
        report = ab_test(corpus, initial_ranking_policy(), initial_ranking_policy(),
                         n_queries=500, seed=2)
        out = tmp_path / "abreport.json"
        write_ab_report(report, str(out))
        import json

        document = json.loads(out.read_text())
        assert document["schema_version"] == 1
        assert set(document["metrics"]) == {
            "abandonment_rate", "time_to_first_click", "ctr_position_1",
            "ctr_position_2", "first_click_position",
        }


# ---------------------------------------------------------------------------
# streamed A/B simulation against the one-shot draw
# ---------------------------------------------------------------------------


def latent_pages(rng, n_pages, width):
    """(2, Q, K) latent pages, each zero past its own random length."""
    pages = rng.random((2, n_pages, width))
    lengths = rng.integers(1, width + 1, n_pages)
    pages[:, np.arange(width)[None, :] >= lengths[:, None]] = 0.0
    return pages


BLOCK = 16
VOLUMES = {
    "spread": np.array([3.0, 1.0, 7.0, 2.0, 5.0, 1.0]),
    "one_heavy_query": np.array([1.0, 1.0, 9_400.0, 1.0, 2.0, 1.0]),
}


class TestStreamedSimulation:
    @pytest.mark.parametrize("volume", VOLUMES.values(), ids=VOLUMES.keys())
    def test_choice_is_a_cdf_search_over_one_double_per_draw(self, volume):
        weights = volume / volume.sum()
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        for size in (1, 7, 1000):
            rng = np.random.default_rng(size)
            chosen = rng.choice(len(weights), size=size, p=weights)
            uniforms = np.random.default_rng(size).random(size + 1)
            assert np.array_equal(cdf.searchsorted(uniforms[:size], side="right"), chosen)
            assert rng.random() == uniforms[size]

    @pytest.mark.parametrize("volume", VOLUMES.values(), ids=VOLUMES.keys())
    @pytest.mark.parametrize("depth", [1, 7, 10])
    @pytest.mark.parametrize("exponent", list(BreakExponent))
    @pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
    def test_blocks_equal_the_one_shot_draw(self, n, exponent, depth, volume):
        rng = np.random.default_rng([n, depth])
        config = MetricConfig(p_break=0.8, break_exponent=exponent, depth=depth)
        weights = volume / volume.sum()
        p_fresh = rng.random(volume.size)
        child = np.random.SeedSequence(n).spawn(2)[1]
        for width in sorted({depth, max(1, depth - 3)}):
            pages = latent_pages(rng, volume.size, width)
            counts, times = experiments._simulate_bucket(child, pages, p_fresh, weights, n,
                                                         config, width + 1, block=BLOCK)
            pos, expected_times = one_shot_bucket(child, pages, p_fresh, weights, n, config)
            assert np.array_equal(counts, np.bincount(pos, minlength=width + 1))
            assert np.array_equal(times, expected_times)

    @pytest.mark.parametrize("config", [
        MetricConfig(),
        MetricConfig(p_break=0.8, break_exponent=BreakExponent.POSITION_MINUS_ONE, depth=7),
        MetricConfig(depth=1),
    ])
    @pytest.mark.parametrize("treatment", ["blend", "empty_pages"])
    def test_ab_report_equals_the_one_shot_oracle(self, monkeypatch, config, treatment):
        corpus = small_corpus(seed=23, n=90)
        grades = {qid: q.true_grade for qid, q in corpus.queries.items()}
        if treatment == "blend":
            treatment_policy = blend_policy(grades)
        else:
            def treatment_policy(prepared, metric_config):
                return np.full((len(prepared.query_ids), min(3, metric_config.depth)), -1)
        expected = one_shot_ab_report(corpus, initial_ranking_policy(), treatment_policy,
                                      3000, 29, config)
        # blocks of 7 or 10 impressions
        monkeypatch.setattr(experiments, "_BLOCK_DRAWS", 70)
        report = ab_test(corpus, initial_ranking_policy(), treatment_policy,
                         n_queries=3000, seed=29, metric_config=config)
        assert report == expected
